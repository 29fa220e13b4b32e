/**
 * @file
 * Reusable scratch storage for row-wide RNG fills.
 *
 * The columnar kernels consume row-wide spans of gaussians and
 * Bernoulli coins on every activation; allocating those arrays per
 * call would put the allocator on the hot path. An RngBuffer owns
 * grow-only, 64-byte aligned arrays and hands out spans filled by
 * Rng::fillGaussian / Rng::fillChance. One RngBuffer per Bank (or per
 * single-threaded consumer): a span aliases the buffer and is
 * invalidated by the next fill of the same kind.
 */

#ifndef FRACDRAM_COMMON_RNG_BUFFER_HH
#define FRACDRAM_COMMON_RNG_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/rng.hh"
#include "common/simd/aligned.hh"

namespace fracdram
{

class RngBuffer
{
  public:
    /** The next @p n gaussian(mean, sigma) draws of @p rng. */
    std::span<const double> gaussian(Rng &rng, std::size_t n,
                                     double mean, double sigma)
    {
        if (gauss_.size() < n)
            gauss_.resize(n);
        const std::span<double> dst(gauss_.data(), n);
        rng.fillGaussian(dst, mean, sigma);
        return dst;
    }

    /** The next @p n chance(p) draws of @p rng (1 = success). */
    std::span<const std::uint8_t> chance(Rng &rng, std::size_t n,
                                         double p)
    {
        if (coins_.size() < n)
            coins_.resize(n);
        const std::span<std::uint8_t> dst(coins_.data(), n);
        rng.fillChance(dst, p);
        return dst;
    }

  private:
    simd::AlignedVector<double> gauss_;
    simd::AlignedVector<std::uint8_t> coins_;
};

} // namespace fracdram

#endif // FRACDRAM_COMMON_RNG_BUFFER_HH
