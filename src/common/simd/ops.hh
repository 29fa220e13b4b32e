/**
 * @file
 * Dispatched SIMD fills of counter-based RNG draws.
 *
 * Every Rng draw is a pure function of (key, kind, index) (see
 * ops_draw.hh), so a row-wide fill is an element-wise map over
 * consecutive indices: generate the Philox blocks and map them to
 * Bernoulli coins or Box-Muller gaussians in one pass. Rng::fillChance
 * and Rng::fillGaussian run these kernels; gaussianPairs evaluates the
 * same gaussians at an arbitrary list of pair indices, for callers
 * that need only a few draws of a row (DESIGN.md 5c, bounded-noise
 * sensing).
 *
 * Bit-exactness: every tier evaluates the per-element expressions of
 * ops_draw.hh with the same roundings, so all tiers write identical
 * bytes (tests/test_kernels_isa.cc memcmps them). The table has a
 * scalar and an AVX2 tier, like every dispatched path.
 */

#ifndef FRACDRAM_COMMON_SIMD_OPS_HH
#define FRACDRAM_COMMON_SIMD_OPS_HH

#include <cstddef>
#include <cstdint>

#include "common/simd/simd.hh"

namespace fracdram::simd
{

/** Per-ISA function table for the fused generate+map fills. */
struct RawOps
{
    /** dst[i] = mean + sigma * draw::gaussian(key, index + i). */
    void (*gaussianFill)(double *dst, std::size_t n, std::uint64_t key,
                         std::uint64_t index, double mean,
                         double sigma);
    /**
     * cos_out[k], sin_out[k] = mean + sigma * draw::gaussian(key, j)
     * for j = 2 pairs[k] and 2 pairs[k] + 1: the fill's values at an
     * index list.
     */
    void (*gaussianPairs)(double *cos_out, double *sin_out,
                          const std::uint64_t *pairs, std::size_t n,
                          std::uint64_t key, double mean,
                          double sigma);
    /** dst[i] = draw::toUniform(draw::word(key, index + i)) < p. */
    void (*chanceFill)(std::uint8_t *dst, std::size_t n,
                       std::uint64_t key, std::uint64_t index,
                       double p);
};

/** The table for the resolved ISA (resolved once, like activeIsa). */
const RawOps &rawOps();

/**
 * Table for a specific tier, for the equivalence tests.
 * @return nullptr when the tier was not compiled or the machine
 *         cannot execute it
 */
const RawOps *rawOpsForIsa(Isa isa);

} // namespace fracdram::simd

#endif // FRACDRAM_COMMON_SIMD_OPS_HH
