#include "sim/sense.hh"

#include <algorithm>
#include <cmath>

#include "common/simd/ops.hh"
#include "common/simd/ops_draw.hh"
#include "sim/kernels.hh"

namespace fracdram::sim
{

std::size_t
noisySense(std::uint8_t *dec, const double *eq, const float *sa,
           double half, double sigma, Rng &rng, std::size_t n)
{
    // Blocks of columns keep the scratch on the stack, so a bank holds
    // no buffers for this (a module can have many banks and wide
    // rows). A block's columns span at most kBlock / 2 + 1 pairs.
    constexpr std::size_t kBlock = 1024;
    std::uint32_t marg[kBlock];
    std::uint64_t pairs[kBlock / 2 + 1];
    double cos_half[kBlock / 2 + 1];
    double sin_half[kBlock / 2 + 1];

    // Every draw is sigma * g with |g| <= kGaussianMax, and rounding is
    // monotone, so no noise value rounds past this reach.
    const double reach = std::fabs(sigma) * simd::draw::kGaussianMax;
    std::size_t evaluated = 0;
    for (std::size_t start = 0; start < n; start += kBlock) {
        const std::size_t len = std::min(kBlock, n - start);
        const std::size_t m = kernels::senseBounded(
            dec + start, marg, eq + start, sa + start, half, reach, len);

        // Column start + k draws gaussian base + k, the (base + k) & 1
        // half of pair (base + k) >> 1. Marginal columns ascend, so a
        // pair shared by two of them appears twice in a row.
        const std::uint64_t base = rng.gaussianIndex() + start;
        std::size_t np = 0;
        for (std::size_t k = 0; k < m; ++k) {
            const std::uint64_t p = (base + marg[k]) >> 1;
            if (np == 0 || pairs[np - 1] != p)
                pairs[np++] = p;
        }
        simd::rawOps().gaussianPairs(cos_half, sin_half, pairs, np,
                                     rng.key(), 0.0, sigma);
        std::size_t q = 0;
        for (std::size_t k = 0; k < m; ++k) {
            const std::uint64_t j = base + marg[k];
            while (pairs[q] != j >> 1)
                ++q;
            const double noise = (j & 1) ? sin_half[q] : cos_half[q];
            const std::size_t c = start + marg[k];
            dec[c] = (eq[c] - half) > sa[c] + noise ? 1 : 0;
        }
        evaluated += 2 * np;
    }
    rng.skipGaussians(n);
    return evaluated;
}

} // namespace fracdram::sim
