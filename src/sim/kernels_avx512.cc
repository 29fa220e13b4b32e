/**
 * @file
 * AVX-512 tier of the columnar kernels: 8-wide doubles plus the mask
 * registers (cmp_pd_mask, maskz_mov, test_epi8_mask) for the
 * decision<->bit conversions. Compiled with
 * -mavx512f/bw/dq/vl -mbmi2 -ffp-contract=off; selected only when
 * cpuid + XCR0 report full AVX-512 support (simd.cc).
 *
 * Same bit-exactness contract as kernels_avx2.cc: per-lane operations
 * in the scalar expression order, no FMA, tails delegated to the
 * scalar tier. senseBounded and countFlips are the AVX2 entries:
 * their cost is the mask bookkeeping (the marginal-column listing,
 * the popcount), which wider compares do not shorten.
 */

#include <immintrin.h>

#include "sim/kernels_scalar.hh"

namespace fracdram::sim::kernels
{

namespace
{

void
decayMultiplyAvx512(float *volts, const double *mul, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512d v =
            _mm512_cvtps_pd(_mm256_loadu_ps(volts + i));
        const __m512d m = _mm512_loadu_pd(mul + i);
        _mm256_storeu_ps(volts + i,
                         _mm512_cvtpd_ps(_mm512_mul_pd(v, m)));
    }
    scalar::decayMultiply(volts + i, mul + i, n - i);
}

void
chargeAccumulateAvx512(double *num, double *den, const float *volts,
                       const float *coupling, double weight,
                       std::size_t n)
{
    const __m512d wt = _mm512_set1_pd(weight);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512d c =
            _mm512_cvtps_pd(_mm256_loadu_ps(coupling + i));
        const __m512d v =
            _mm512_cvtps_pd(_mm256_loadu_ps(volts + i));
        const __m512d w = _mm512_mul_pd(wt, c);
        _mm512_storeu_pd(
            num + i, _mm512_add_pd(_mm512_loadu_pd(num + i),
                                   _mm512_mul_pd(w, v)));
        _mm512_storeu_pd(
            den + i, _mm512_add_pd(_mm512_loadu_pd(den + i), w));
    }
    scalar::chargeAccumulate(num + i, den + i, volts + i,
                             coupling + i, weight, n - i);
}

void
equilibriumAvx512(double *eq, const double *num, const double *den,
                  std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm512_storeu_pd(eq + i,
                         _mm512_div_pd(_mm512_loadu_pd(num + i),
                                       _mm512_loadu_pd(den + i)));
    scalar::equilibrium(eq + i, num + i, den + i, n - i);
}

void
driveRailsAvx512(float *volts, const std::uint8_t *dec, float vdd,
                 std::size_t n)
{
    const __m512 vddv = _mm512_set1_ps(vdd);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i bytes = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(dec + i));
        // Nonzero decision byte -> lane mask -> vdd/0 rails.
        const __mmask16 nz = _mm_test_epi8_mask(bytes, bytes);
        _mm512_storeu_ps(volts + i, _mm512_maskz_mov_ps(nz, vddv));
    }
    scalar::driveRails(volts + i, dec + i, vdd, n - i);
}

void
settleTowardAvx512(float *volts, const float *alpha,
                   const double *veq, const float *off, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512d a =
            _mm512_cvtps_pd(_mm256_loadu_ps(alpha + i));
        const __m512d v =
            _mm512_cvtps_pd(_mm256_loadu_ps(volts + i));
        const __m512d target = _mm512_add_pd(
            _mm512_loadu_pd(veq + i),
            _mm512_cvtps_pd(_mm256_loadu_ps(off + i)));
        const __m512d out = _mm512_add_pd(
            v, _mm512_mul_pd(a, _mm512_sub_pd(target, v)));
        _mm256_storeu_ps(volts + i, _mm512_cvtpd_ps(out));
    }
    scalar::settleToward(volts + i, alpha + i, veq + i, off + i,
                         n - i);
}

void
fracSettleAvx512(float *volts, const float *alpha,
                 const float *coupling, const float *off,
                 const double *noise, double weight, double base_num,
                 double base_den, std::size_t n)
{
    const __m512d wt = _mm512_set1_pd(weight);
    const __m512d bnum = _mm512_set1_pd(base_num);
    const __m512d bden = _mm512_set1_pd(base_den);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512d c =
            _mm512_cvtps_pd(_mm256_loadu_ps(coupling + i));
        const __m512d v =
            _mm512_cvtps_pd(_mm256_loadu_ps(volts + i));
        const __m512d w = _mm512_mul_pd(wt, c);
        const __m512d num =
            _mm512_add_pd(bnum, _mm512_mul_pd(w, v));
        const __m512d den = _mm512_add_pd(bden, w);
        const __m512d eq =
            _mm512_add_pd(_mm512_div_pd(num, den),
                          _mm512_loadu_pd(noise + i));
        const __m512d a =
            _mm512_cvtps_pd(_mm256_loadu_ps(alpha + i));
        const __m512d target = _mm512_add_pd(
            eq, _mm512_cvtps_pd(_mm256_loadu_ps(off + i)));
        const __m512d out = _mm512_add_pd(
            v, _mm512_mul_pd(a, _mm512_sub_pd(target, v)));
        _mm256_storeu_ps(volts + i, _mm512_cvtpd_ps(out));
    }
    scalar::fracSettle(volts + i, alpha + i, coupling + i, off + i,
                       noise + i, weight, base_num, base_den, n - i);
}

void
restoreTruncateAvx512(float *volts, double half, double r,
                      std::size_t n)
{
    const __m512d halfv = _mm512_set1_pd(half);
    const __m512d rv = _mm512_set1_pd(r);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512d v =
            _mm512_cvtps_pd(_mm256_loadu_ps(volts + i));
        const __m512d out = _mm512_add_pd(
            halfv, _mm512_mul_pd(_mm512_sub_pd(v, halfv), rv));
        _mm256_storeu_ps(volts + i, _mm512_cvtpd_ps(out));
    }
    scalar::restoreTruncate(volts + i, half, r, n - i);
}

void
fillFromBitsAvx512(float *volts, const std::uint64_t *words,
                   bool invert, float vdd, std::size_t n)
{
    const std::uint64_t flip = invert ? ~std::uint64_t{0} : 0;
    const __m512 vddv = _mm512_set1_ps(vdd);
    const std::size_t full = n / 64;
    for (std::size_t w = 0; w < full; ++w) {
        const std::uint64_t bits = words[w] ^ flip;
        float *out = volts + w * 64;
        // 16 bits feed one zero-masked vdd store; 4 stores per word.
        for (std::size_t g = 0; g < 4; ++g) {
            const __mmask16 mask =
                static_cast<__mmask16>(bits >> (16 * g));
            _mm512_storeu_ps(out + 16 * g,
                             _mm512_maskz_mov_ps(mask, vddv));
        }
    }
    const std::size_t done = full * 64;
    scalar::fillFromBits(volts + done, words + full, invert, vdd,
                         n - done);
}

void
packDecisionsAvx512(std::uint64_t *words, const std::uint8_t *dec,
                    bool invert, std::size_t n)
{
    const std::uint64_t flip = invert ? ~std::uint64_t{0} : 0;
    const __m512i ones = _mm512_set1_epi8(1);
    const std::size_t full = n / 64;
    for (std::size_t w = 0; w < full; ++w) {
        // Bit 0 of all 64 decision bytes in one test-under-mask.
        const __m512i v = _mm512_loadu_si512(dec + w * 64);
        words[w] = static_cast<std::uint64_t>(
                       _mm512_test_epi8_mask(v, ones)) ^
                   flip;
    }
    const std::size_t done = full * 64;
    scalar::packDecisions(words + full, dec + done, invert, n - done);
}

} // namespace

const KernelTable &
avx512KernelTable()
{
    static const KernelTable table = {
        decayMultiplyAvx512,   chargeAccumulateAvx512,
        equilibriumAvx512,     senseBoundedAvx2,
        countFlipsAvx2,        driveRailsAvx512,
        settleTowardAvx512,    fracSettleAvx512,
        restoreTruncateAvx512, fillFromBitsAvx512,
        packDecisionsAvx512,
    };
    return table;
}

} // namespace fracdram::sim::kernels
