/**
 * @file
 * Noisy sense-amp decisions that draw only the noise that matters.
 *
 * A row's sense decision is dec[c] = (eq[c] - half) > sa[c] + noise[c]
 * with one gaussian draw per column. The draws are bounded
 * (simd::draw::kGaussianMax), so most columns decide the same way for
 * every noise value; only the few near the threshold need theirs.
 * Because the RNG is counter-based, draw c is computed on demand and
 * the others are skipped, with results bit-identical to filling the
 * whole row (DESIGN.md 5c, "Bounded-noise sensing").
 */

#ifndef FRACDRAM_SIM_SENSE_HH
#define FRACDRAM_SIM_SENSE_HH

#include <cstddef>
#include <cstdint>

#include "common/rng.hh"

namespace fracdram::sim
{

/**
 * dec[i] = (eq[i] - half) > sa[i] + noise[i], noise[i] being the next
 * @p n gaussian(0, sigma) draws of @p rng in column order. Evaluates
 * only the Box-Muller pairs that hold a marginal column's draw
 * (kernels::senseBounded) and advances @p rng by exactly n gaussians.
 * @return gaussians evaluated (two per pair)
 */
std::size_t noisySense(std::uint8_t *dec, const double *eq,
                       const float *sa, double half, double sigma,
                       Rng &rng, std::size_t n);

} // namespace fracdram::sim

#endif // FRACDRAM_SIM_SENSE_HH
