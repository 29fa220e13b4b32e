/**
 * @file
 * The scalar kernel implementations, callable directly by the vector
 * tiers for their tail elements (and by the equivalence tests as the
 * reference). Signatures mirror kernels.hh exactly.
 */

#ifndef FRACDRAM_SIM_KERNELS_SCALAR_HH
#define FRACDRAM_SIM_KERNELS_SCALAR_HH

#include "sim/kernels_dispatch.hh"

namespace fracdram::sim::kernels::scalar
{

void decayMultiply(float *volts, const double *mul, std::size_t n);
void chargeAccumulate(double *num, double *den, const float *volts,
                      const float *coupling, double weight,
                      std::size_t n);
void equilibrium(double *eq, const double *num, const double *den,
                 std::size_t n);
std::size_t senseBounded(std::uint8_t *dec, std::uint32_t *marg,
                         const double *eq, const float *sa,
                         double half, double reach, std::size_t n);
std::size_t countFlips(const std::uint8_t *dec, const double *eq,
                       double half, std::size_t n);
void driveRails(float *volts, const std::uint8_t *dec, float vdd,
                std::size_t n);
void settleToward(float *volts, const float *alpha, const double *veq,
                  const float *off, std::size_t n);
void fracSettle(float *volts, const float *alpha,
                const float *coupling, const float *off,
                const double *noise, double weight, double base_num,
                double base_den, std::size_t n);
void restoreTruncate(float *volts, double half, double r,
                     std::size_t n);
void fillFromBits(float *volts, const std::uint64_t *words,
                  bool invert, float vdd, std::size_t n);
void packDecisions(std::uint64_t *words, const std::uint8_t *dec,
                   bool invert, std::size_t n);

} // namespace fracdram::sim::kernels::scalar

#endif // FRACDRAM_SIM_KERNELS_SCALAR_HH
