/**
 * @file
 * AVX2 tier of the columnar kernels. Compiled with -mavx2 -mbmi2 and
 * -ffp-contract=off; selected at runtime only when cpuid reports
 * AVX2+BMI2 (simd.cc).
 *
 * Bit-exactness: every kernel is element-wise - no cross-lane
 * reductions anywhere in this layer - so vectorizing is purely a
 * matter of running the scalar per-element expression sequence in
 * four (double) or eight (float) lanes at once. Each lane performs
 * the same operations in the same order as the scalar reference
 * (mul/add kept separate: no FMA, matching the baseline build), and
 * tails are delegated to the scalar functions themselves, so the
 * golden digests hold on every tier. See DESIGN.md, "SIMD dispatch".
 */

#include <immintrin.h>

#include <cstring>

#include "sim/kernels_scalar.hh"

namespace fracdram::sim::kernels
{

namespace
{

void
decayMultiplyAvx2(float *volts, const double *mul, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d v =
            _mm256_cvtps_pd(_mm_loadu_ps(volts + i));
        const __m256d m = _mm256_loadu_pd(mul + i);
        _mm_storeu_ps(volts + i,
                      _mm256_cvtpd_ps(_mm256_mul_pd(v, m)));
    }
    scalar::decayMultiply(volts + i, mul + i, n - i);
}

void
chargeAccumulateAvx2(double *num, double *den, const float *volts,
                     const float *coupling, double weight,
                     std::size_t n)
{
    const __m256d wt = _mm256_set1_pd(weight);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d c =
            _mm256_cvtps_pd(_mm_loadu_ps(coupling + i));
        const __m256d v =
            _mm256_cvtps_pd(_mm_loadu_ps(volts + i));
        const __m256d w = _mm256_mul_pd(wt, c);
        _mm256_storeu_pd(
            num + i, _mm256_add_pd(_mm256_loadu_pd(num + i),
                                   _mm256_mul_pd(w, v)));
        _mm256_storeu_pd(
            den + i, _mm256_add_pd(_mm256_loadu_pd(den + i), w));
    }
    scalar::chargeAccumulate(num + i, den + i, volts + i,
                             coupling + i, weight, n - i);
}

void
equilibriumAvx2(double *eq, const double *num, const double *den,
                std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(eq + i,
                         _mm256_div_pd(_mm256_loadu_pd(num + i),
                                       _mm256_loadu_pd(den + i)));
    scalar::equilibrium(eq + i, num + i, den + i, n - i);
}

/** 8 bytes of 0/nonzero decisions -> 8 float lanes of vdd/0. */
inline __m256
railsFromBytes(const std::uint8_t *dec, __m256 vddv)
{
    const __m128i bytes = _mm_loadl_epi64(
        reinterpret_cast<const __m128i *>(dec));
    const __m256i lanes = _mm256_cvtepu8_epi32(bytes);
    const __m256i is_zero =
        _mm256_cmpeq_epi32(lanes, _mm256_setzero_si256());
    return _mm256_andnot_ps(_mm256_castsi256_ps(is_zero), vddv);
}

void
driveRailsAvx2(float *volts, const std::uint8_t *dec, float vdd,
               std::size_t n)
{
    const __m256 vddv = _mm256_set1_ps(vdd);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(volts + i, railsFromBytes(dec + i, vddv));
    scalar::driveRails(volts + i, dec + i, vdd, n - i);
}

void
settleTowardAvx2(float *volts, const float *alpha, const double *veq,
                 const float *off, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d a =
            _mm256_cvtps_pd(_mm_loadu_ps(alpha + i));
        const __m256d v =
            _mm256_cvtps_pd(_mm_loadu_ps(volts + i));
        const __m256d target = _mm256_add_pd(
            _mm256_loadu_pd(veq + i),
            _mm256_cvtps_pd(_mm_loadu_ps(off + i)));
        const __m256d out = _mm256_add_pd(
            v, _mm256_mul_pd(a, _mm256_sub_pd(target, v)));
        _mm_storeu_ps(volts + i, _mm256_cvtpd_ps(out));
    }
    scalar::settleToward(volts + i, alpha + i, veq + i, off + i,
                         n - i);
}

void
fracSettleAvx2(float *volts, const float *alpha, const float *coupling,
               const float *off, const double *noise, double weight,
               double base_num, double base_den, std::size_t n)
{
    const __m256d wt = _mm256_set1_pd(weight);
    const __m256d bnum = _mm256_set1_pd(base_num);
    const __m256d bden = _mm256_set1_pd(base_den);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d c =
            _mm256_cvtps_pd(_mm_loadu_ps(coupling + i));
        const __m256d v =
            _mm256_cvtps_pd(_mm_loadu_ps(volts + i));
        const __m256d w = _mm256_mul_pd(wt, c);
        const __m256d num =
            _mm256_add_pd(bnum, _mm256_mul_pd(w, v));
        const __m256d den = _mm256_add_pd(bden, w);
        const __m256d eq = _mm256_add_pd(_mm256_div_pd(num, den),
                                         _mm256_loadu_pd(noise + i));
        const __m256d a =
            _mm256_cvtps_pd(_mm_loadu_ps(alpha + i));
        const __m256d target = _mm256_add_pd(
            eq, _mm256_cvtps_pd(_mm_loadu_ps(off + i)));
        const __m256d out = _mm256_add_pd(
            v, _mm256_mul_pd(a, _mm256_sub_pd(target, v)));
        _mm_storeu_ps(volts + i, _mm256_cvtpd_ps(out));
    }
    scalar::fracSettle(volts + i, alpha + i, coupling + i, off + i,
                       noise + i, weight, base_num, base_den, n - i);
}

void
restoreTruncateAvx2(float *volts, double half, double r,
                    std::size_t n)
{
    const __m256d halfv = _mm256_set1_pd(half);
    const __m256d rv = _mm256_set1_pd(r);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d v =
            _mm256_cvtps_pd(_mm_loadu_ps(volts + i));
        const __m256d out = _mm256_add_pd(
            halfv,
            _mm256_mul_pd(_mm256_sub_pd(v, halfv), rv));
        _mm_storeu_ps(volts + i, _mm256_cvtpd_ps(out));
    }
    scalar::restoreTruncate(volts + i, half, r, n - i);
}

void
fillFromBitsAvx2(float *volts, const std::uint64_t *words,
                 bool invert, float vdd, std::size_t n)
{
    const std::uint64_t flip = invert ? ~std::uint64_t{0} : 0;
    const __m256 vddv = _mm256_set1_ps(vdd);
    // sel[g] lane j holds bit 8g + j: one broadcast of 32 bits feeds
    // four and+compare rail selections, with no per-byte shuffle.
    const __m256i bit0 = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i sel[4] = {bit0, _mm256_slli_epi32(bit0, 8),
                            _mm256_slli_epi32(bit0, 16),
                            _mm256_slli_epi32(bit0, 24)};
    const std::size_t full = n / 64;
    for (std::size_t w = 0; w < full; ++w) {
        const std::uint64_t bits = words[w] ^ flip;
        float *out = volts + w * 64;
        for (std::size_t h = 0; h < 2; ++h) {
            const __m256i half = _mm256_set1_epi32(
                static_cast<int>(static_cast<std::uint32_t>(
                    bits >> (32 * h))));
            for (std::size_t g = 0; g < 4; ++g) {
                const __m256i set = _mm256_cmpeq_epi32(
                    _mm256_and_si256(half, sel[g]), sel[g]);
                _mm256_storeu_ps(
                    out + 32 * h + 8 * g,
                    _mm256_and_ps(_mm256_castsi256_ps(set), vddv));
            }
        }
    }
    const std::size_t done = full * 64;
    scalar::fillFromBits(volts + done, words + full, invert, vdd,
                         n - done);
}

void
packDecisionsAvx2(std::uint64_t *words, const std::uint8_t *dec,
                  bool invert, std::size_t n)
{
    const std::uint64_t flip = invert ? ~std::uint64_t{0} : 0;
    const std::size_t full = n / 64;
    for (std::size_t w = 0; w < full; ++w) {
        const std::uint8_t *in = dec + w * 64;
        // Bit 0 of every byte -> bit 7 (slli within 16-bit lanes),
        // then movemask collects 32 decisions per vector.
        const __m256i lo = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(in));
        const __m256i hi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(in + 32));
        const std::uint64_t mlo = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_slli_epi16(lo, 7)));
        const std::uint64_t mhi = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_slli_epi16(hi, 7)));
        words[w] = (mlo | (mhi << 32)) ^ flip;
    }
    const std::size_t done = full * 64;
    scalar::packDecisions(words + full, dec + done, invert, n - done);
}

std::size_t
senseBoundedAvx2(std::uint8_t *dec, std::uint32_t *marg, const double *eq,
                 const float *sa, double half, double reach, std::size_t n)
{
    const __m256d halfv = _mm256_set1_pd(half);
    const __m256d reachv = _mm256_set1_pd(reach);
    std::size_t i = 0;
    std::size_t m = 0;
    // 16 columns per iteration: four 4-lane compare pairs merged into
    // 16-bit "up" and "clear" masks. Up expands to 0/1 bytes with
    // pdep; the marginal (not clear) columns are listed bit by bit.
    for (; i + 16 <= n; i += 16) {
        unsigned up = 0;
        unsigned clear = 0;
        for (std::size_t g = 0; g < 4; ++g) {
            const std::size_t j = i + 4 * g;
            const __m256d d =
                _mm256_sub_pd(_mm256_loadu_pd(eq + j), halfv);
            const __m256d s = _mm256_cvtps_pd(_mm_loadu_ps(sa + j));
            const __m256d hi = _mm256_cmp_pd(
                d, _mm256_add_pd(s, reachv), _CMP_GT_OQ);
            const __m256d lo = _mm256_cmp_pd(
                d, _mm256_sub_pd(s, reachv), _CMP_LE_OQ);
            up |= static_cast<unsigned>(_mm256_movemask_pd(hi))
                  << (4 * g);
            clear |= static_cast<unsigned>(
                         _mm256_movemask_pd(_mm256_or_pd(hi, lo)))
                     << (4 * g);
        }
        const std::uint64_t blo =
            _pdep_u64(up & 0xff, 0x0101010101010101ULL);
        const std::uint64_t bhi =
            _pdep_u64(up >> 8, 0x0101010101010101ULL);
        std::memcpy(dec + i, &blo, 8);
        std::memcpy(dec + i + 8, &bhi, 8);
        for (unsigned mask = ~clear & 0xffffu; mask != 0;
             mask &= mask - 1) {
            marg[m++] = static_cast<std::uint32_t>(
                i + static_cast<unsigned>(__builtin_ctz(mask)));
        }
    }
    const std::size_t tail = scalar::senseBounded(
        dec + i, marg + m, eq + i, sa + i, half, reach, n - i);
    for (std::size_t k = m; k < m + tail; ++k)
        marg[k] += static_cast<std::uint32_t>(i);
    return m + tail;
}

std::size_t
countFlipsAvx2(const std::uint8_t *dec, const double *eq, double half,
               std::size_t n)
{
    const __m256d halfv = _mm256_set1_pd(half);
    const __m128i zero = _mm_setzero_si128();
    std::size_t i = 0;
    std::size_t flips = 0;
    for (; i + 16 <= n; i += 16) {
        unsigned above = 0;
        for (std::size_t g = 0; g < 4; ++g)
            above |= static_cast<unsigned>(_mm256_movemask_pd(
                         _mm256_cmp_pd(_mm256_loadu_pd(eq + i + 4 * g),
                                       halfv, _CMP_GT_OQ)))
                     << (4 * g);
        const __m128i bytes = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(dec + i));
        const unsigned zeros = static_cast<unsigned>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(bytes, zero)));
        flips += static_cast<std::size_t>(
            __builtin_popcount((above ^ ~zeros) & 0xffffu));
    }
    return flips + scalar::countFlips(dec + i, eq + i, half, n - i);
}

} // namespace

const KernelTable &
avx2KernelTable()
{
    static const KernelTable table = {
        decayMultiplyAvx2,     chargeAccumulateAvx2,
        equilibriumAvx2,       senseBoundedAvx2,
        countFlipsAvx2,        driveRailsAvx2,
        settleTowardAvx2,      fracSettleAvx2,
        restoreTruncateAvx2,   fillFromBitsAvx2,
        packDecisionsAvx2,
    };
    return table;
}

} // namespace fracdram::sim::kernels
