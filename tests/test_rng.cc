/**
 * @file
 * Unit tests for the deterministic RNG infrastructure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "common/simd/ops_draw.hh"

using namespace fracdram;

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMean)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng r(13);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = r.gaussian();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianShifted)
{
    Rng r(17);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.gaussian(3.0, 0.5);
    EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, LognormalMedian)
{
    Rng r(19);
    std::vector<double> xs;
    for (int i = 0; i < 50001; ++i)
        xs.push_back(r.lognormal(0.0, 1.0));
    std::nth_element(xs.begin(), xs.begin() + 25000, xs.end());
    EXPECT_NEAR(xs[25000], 1.0, 0.05);
}

TEST(Rng, BetaRangeAndMean)
{
    Rng r(23);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = r.beta(6.0, 4.0);
        EXPECT_GT(x, 0.0);
        EXPECT_LT(x, 1.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, 0.6, 0.01); // mean a/(a+b)
}

TEST(Rng, GammaMean)
{
    Rng r(29);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.gamma(2.5);
    EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, GammaSmallShape)
{
    Rng r(31);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.gamma(0.5);
    EXPECT_NEAR(sum / n, 0.5, 0.03);
}

TEST(Rng, ChanceProbability)
{
    Rng r(37);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BelowBounds)
{
    Rng r(41);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto x = r.below(10);
        EXPECT_LT(x, 10u);
        seen.insert(x);
    }
    EXPECT_EQ(seen.size(), 10u); // all values reachable
}

TEST(RngFactory, StreamsIndependentOfQueryOrder)
{
    RngFactory f(99);
    const auto a1 = f.stream(5).next();
    const auto b1 = f.stream(6).next();
    const auto b2 = f.stream(6).next();
    const auto a2 = f.stream(5).next();
    EXPECT_EQ(a1, a2);
    EXPECT_EQ(b1, b2);
}

TEST(RngFactory, SubFactoriesIndependent)
{
    RngFactory f(123);
    const auto x = f.sub(1).stream(7).next();
    const auto y = f.sub(2).stream(7).next();
    EXPECT_NE(x, y);
}

TEST(RngFactory, MixSeedAvalanche)
{
    // Neighbouring tags must produce uncorrelated seeds.
    const auto a = mixSeed(0, 1);
    const auto b = mixSeed(0, 2);
    int differing = std::popcount(a ^ b);
    EXPECT_GT(differing, 16);
}

namespace
{

constexpr std::size_t kSweep = std::size_t{1} << 20;

/** Two-sided 99.9% normal quantile. */
constexpr double kZ999 = 3.2905;

/** Whether k hits out of n fall inside the binomial 99.9% band. */
::testing::AssertionResult
binomialHolds(std::size_t k, std::size_t n, double p)
{
    const double mean = static_cast<double>(n) * p;
    const double sd = std::sqrt(mean * (1.0 - p));
    const double got = static_cast<double>(k);
    if (std::fabs(got - mean) <= kZ999 * sd)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << k << " of " << n << " outside " << mean << " +- "
           << kZ999 * sd;
}

/** Standard normal CDF. */
double
phi(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

} // namespace

TEST(RngMath, LogMatchesLibm)
{
    // (0, 1] on a uniform grid, then every binade down to 2^-60.
    double worst = 0.0;
    for (std::size_t i = 1; i <= kSweep; ++i) {
        const double u = static_cast<double>(i) / kSweep;
        worst = std::max(worst, std::fabs(simd::draw::logPositive(u) -
                                          std::log(u)));
    }
    for (int e = 20; e <= 60; ++e)
        for (int i = 0; i < 1024; ++i) {
            const double u = std::ldexp(1.0 + i / 1024.0, -e);
            worst = std::max(worst,
                             std::fabs(simd::draw::logPositive(u) -
                                       std::log(u)));
        }
    EXPECT_LE(worst, 1e-13);
}

TEST(RngMath, SincosMatchesLibm)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < kSweep; ++i) {
        const double u = static_cast<double>(i) / kSweep;
        const auto t = simd::draw::turn(u);
        const double theta = 2.0 * M_PI * u;
        worst = std::max({worst, std::fabs(t.cos - std::cos(theta)),
                          std::fabs(t.sin - std::sin(theta))});
    }
    EXPECT_LE(worst, 1e-13);
}

TEST(RngMath, GaussianBound)
{
    using simd::draw::Block;
    // A zero word is the smallest Box-Muller input, 2^-53, and so the
    // largest radius; the bound must cover it, and the next inputs up
    // must stay below it.
    const double top = simd::draw::radius(Block{{0, 0, 0, 0}});
    EXPECT_LE(top, simd::draw::kGaussianMax);
    EXPECT_GT(top, 8.57);
    for (std::uint32_t w = 1; w < 4096; ++w)
        ASSERT_LT(simd::draw::radius(Block{{w << 11, 0, 0, 0}}), top)
            << w;
}

TEST(RngMath, TurnWithinUnitCircle)
{
    // |cos| and |sin| <= 1 on a grid, and a few ulps around every
    // quadrant edge (4u an integer, where x = 0) and every
    // polynomial-range edge (4u half-integer, where |x| = pi/4).
    std::vector<double> us;
    for (std::size_t i = 0; i < kSweep; ++i)
        us.push_back(static_cast<double>(i) / kSweep);
    for (int k = 0; k <= 8; ++k) {
        double lo = k / 8.0, hi = k / 8.0;
        for (int step = 0; step < 64; ++step) {
            us.push_back(lo);
            us.push_back(hi);
            lo = std::nextafter(lo, 0.0);
            hi = std::nextafter(hi, 1.0);
        }
    }
    for (const double u : us) {
        if (u < 0.0 || u >= 1.0)
            continue;
        const auto t = simd::draw::turn(u);
        ASSERT_LE(std::fabs(t.cos), 1.0) << u;
        ASSERT_LE(std::fabs(t.sin), 1.0) << u;
    }
}

TEST(RngMath, GaussianDistribution)
{
    Rng r(43);
    std::vector<double> xs(kSweep);
    r.fillGaussian(xs, 0.0, 1.0);
    const double n = static_cast<double>(kSweep);
    double sum = 0.0, sq = 0.0;
    std::size_t beyond3 = 0, beyond4 = 0;
    for (const double x : xs) {
        sum += x;
        sq += x * x;
        beyond3 += std::fabs(x) > 3.0;
        beyond4 += std::fabs(x) > 4.0;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    // 99.9% bands of the sample mean and variance of N(0, 1).
    EXPECT_LE(std::fabs(mean), kZ999 / std::sqrt(n));
    EXPECT_LE(std::fabs(var - 1.0), kZ999 * std::sqrt(2.0 / n));
    EXPECT_TRUE(binomialHolds(beyond3, kSweep, 2.0 * phi(-3.0)));
    EXPECT_TRUE(binomialHolds(beyond4, kSweep, 2.0 * phi(-4.0)));

    // Kolmogorov-Smirnov against Phi; 1.949 / sqrt(n) is the
    // asymptotic critical value at alpha = 0.001.
    std::sort(xs.begin(), xs.end());
    double d = 0.0;
    for (std::size_t i = 0; i < kSweep; ++i) {
        const double f = phi(xs[i]);
        d = std::max({d, f - static_cast<double>(i) / n,
                      static_cast<double>(i + 1) / n - f});
    }
    EXPECT_LE(d, 1.949 / std::sqrt(n));
}

TEST(RngMath, ChanceFrequencies)
{
    for (const double p : {0.001, 0.3, 0.5}) {
        Rng r(47);
        std::vector<std::uint8_t> coins(kSweep);
        r.fillChance(coins, p);
        std::size_t hits = 0;
        for (const auto c : coins)
            hits += c;
        EXPECT_TRUE(binomialHolds(hits, kSweep, p)) << "p=" << p;
    }
}
