#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/simd/ops.hh"
#include "common/simd/ops_draw.hh"

namespace fracdram
{

std::uint64_t
Rng::next()
{
    return simd::draw::word(key_, words_++);
}

double
Rng::uniform()
{
    return simd::draw::toUniform(next());
}

double
Rng::gaussian()
{
    return simd::draw::gaussian(key_, gaussians_++);
}

void
Rng::fillGaussian(std::span<double> dst, double mean, double sigma)
{
    simd::rawOps().gaussianFill(dst.data(), dst.size(), key_,
                                gaussians_, mean, sigma);
    gaussians_ += dst.size();
}

void
Rng::fillChance(std::span<std::uint8_t> dst, double p)
{
    simd::rawOps().chanceFill(dst.data(), dst.size(), key_, words_, p);
    words_ += dst.size();
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(gaussian(mu, sigma));
}

double
Rng::gamma(double k)
{
    panic_if(k <= 0.0, "gamma shape must be positive, got %f", k);
    if (k < 1.0) {
        // Boost to shape >= 1, then apply the standard correction.
        const double u = uniform();
        return gamma(k + 1.0) * std::pow(u, 1.0 / k);
    }
    // Marsaglia-Tsang squeeze method.
    const double d = k - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x, v;
        do {
            x = gaussian();
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x)
            return d * v;
        if (u > 0.0 && std::log(u) < 0.5 * x * x +
                d * (1.0 - v + std::log(v))) {
            return d * v;
        }
    }
}

double
Rng::beta(double a, double b)
{
    const double x = gamma(a);
    const double y = gamma(b);
    return x / (x + y);
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    panic_if(n == 0, "Rng::below(0)");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
    std::uint64_t x;
    do {
        x = next();
    } while (x >= limit);
    return x % n;
}

} // namespace fracdram
