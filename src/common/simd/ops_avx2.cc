/**
 * @file
 * AVX2 fills of counter-based draws. Compiled with -mavx2 -mbmi2
 * -ffp-contract=off; only reachable when cpuid reports both (see
 * simd.cc's tier gating).
 *
 * Four Philox blocks run side by side, one per 64-bit lane, each of
 * the four counter words in its own register: vpmuludq gives the
 * full 32x32->64 products the round needs. Each lane then evaluates
 * ops_draw.hh's expressions step for step. u64 -> double uses the
 * 2^52 magic-number split (exact below 2^53), and the quadrant fix-up
 * of sincos is a blend plus a sign-bit xor, so every lane is
 * bit-identical to the scalar tier. The fills count the four block
 * indices up from a start; gaussianPairs loads them from its index
 * list. Heads and tails that do not fill a whole group of four blocks
 * delegate to the scalar functions.
 */

#include <immintrin.h>

#include <cstring>

#include "common/simd/ops.hh"
#include "common/simd/ops_draw.hh"

namespace fracdram::simd
{

namespace
{

/** Philox round keys, broadcast once per fill. */
struct RoundKeys
{
    __m256i k0[draw::kPhiloxRounds];
    __m256i k1[draw::kPhiloxRounds];

    explicit RoundKeys(std::uint64_t key)
    {
        auto a = static_cast<std::uint32_t>(key);
        auto b = static_cast<std::uint32_t>(key >> 32);
        for (int r = 0; r < draw::kPhiloxRounds; ++r) {
            if (r != 0) {
                a += draw::kPhiloxW0;
                b += draw::kPhiloxW1;
            }
            k0[r] = _mm256_set1_epi64x(a);
            k1[r] = _mm256_set1_epi64x(b);
        }
    }
};

/** The two 64-bit words of four blocks of one kind. */
struct Words4
{
    __m256i w0, w1;
};

/** Blocks idx[0..3] of one kind (one block index per lane). */
inline Words4
philox4(const RoundKeys &keys, __m256i idx, std::uint32_t kind)
{
    const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
    const __m256i m0 = _mm256_set1_epi64x(draw::kPhiloxM0);
    const __m256i m1 = _mm256_set1_epi64x(draw::kPhiloxM1);
    __m256i c0 = _mm256_and_si256(idx, lo32);
    __m256i c1 = _mm256_srli_epi64(idx, 32);
    __m256i c2 = _mm256_set1_epi64x(kind);
    __m256i c3 = _mm256_setzero_si256();
    for (int r = 0; r < draw::kPhiloxRounds; ++r) {
        const __m256i p0 = _mm256_mul_epu32(c0, m0);
        const __m256i p1 = _mm256_mul_epu32(c2, m1);
        const __m256i n0 = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_srli_epi64(p1, 32), c1), keys.k0[r]);
        const __m256i n2 = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_srli_epi64(p0, 32), c3), keys.k1[r]);
        c1 = _mm256_and_si256(p1, lo32);
        c3 = _mm256_and_si256(p0, lo32);
        c0 = n0;
        c2 = n2;
    }
    return {_mm256_or_si256(c0, _mm256_slli_epi64(c1, 32)),
            _mm256_or_si256(c2, _mm256_slli_epi64(c3, 32))};
}

/** Blocks first..first+3 of one kind. */
inline Words4
philox4(const RoundKeys &keys, std::uint64_t first, std::uint32_t kind)
{
    return philox4(keys,
                   _mm256_add_epi64(
                       _mm256_set1_epi64x(static_cast<long long>(first)),
                       _mm256_set_epi64x(3, 2, 1, 0)),
                   kind);
}

/** double(v) for v <= 2^53, exactly as the scalar static_cast. */
inline __m256d
toDouble(__m256i v)
{
    const __m256i magic_i = _mm256_set1_epi64x(0x4330000000000000LL);
    const __m256d magic_d = _mm256_castsi256_pd(magic_i);
    const __m256i hi = _mm256_srli_epi64(v, 32);
    const __m256i lo =
        _mm256_and_si256(v, _mm256_set1_epi64x(0xffffffffLL));
    const __m256d dhi = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(hi, magic_i)), magic_d);
    const __m256d dlo = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(lo, magic_i)), magic_d);
    return _mm256_add_pd(
        _mm256_mul_pd(dhi, _mm256_set1_pd(4294967296.0)), dlo);
}

/** draw::toUniform. */
inline __m256d
toUniform(__m256i w)
{
    return _mm256_mul_pd(toDouble(_mm256_srli_epi64(w, 11)),
                         _mm256_set1_pd(0x1.0p-53));
}

/** draw::toOpenUniform. */
inline __m256d
toOpenUniform(__m256i w)
{
    const __m256i v = _mm256_add_epi64(_mm256_srli_epi64(w, 11),
                                       _mm256_set1_epi64x(1));
    return _mm256_mul_pd(toDouble(v), _mm256_set1_pd(0x1.0p-53));
}

inline __m256d
horner(__m256d p, __m256d z, double c)
{
    return _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(c));
}

/** draw::logPositive. */
inline __m256d
logPositive(__m256d u)
{
    const __m256i bits = _mm256_castpd_si256(u);
    const __m256i t = _mm256_sub_epi64(
        bits, _mm256_set1_epi64x(static_cast<long long>(draw::kLogOff)));
    const __m256d k = _mm256_sub_pd(
        toDouble(_mm256_srli_epi64(
            _mm256_add_epi64(t, _mm256_set1_epi64x(1023LL << 52)), 52)),
        _mm256_set1_pd(1023.0));
    const __m256d m = _mm256_castsi256_pd(_mm256_sub_epi64(
        bits,
        _mm256_and_si256(t, _mm256_set1_epi64x(0xfffLL << 52))));
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d s =
        _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
    const __m256d z = _mm256_mul_pd(s, s);
    __m256d p = _mm256_set1_pd(1.0 / 19.0);
    p = horner(p, z, 1.0 / 17.0);
    p = horner(p, z, 1.0 / 15.0);
    p = horner(p, z, 1.0 / 13.0);
    p = horner(p, z, 1.0 / 11.0);
    p = horner(p, z, 1.0 / 9.0);
    p = horner(p, z, 1.0 / 7.0);
    p = horner(p, z, 1.0 / 5.0);
    p = horner(p, z, 1.0 / 3.0);
    p = horner(p, z, 1.0);
    const __m256d logm =
        _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), s), p);
    return _mm256_add_pd(
        _mm256_mul_pd(k, _mm256_set1_pd(0x1.62e42feep-1)),
        _mm256_add_pd(
            _mm256_mul_pd(k, _mm256_set1_pd(0x1.a39ef35793c76p-33)),
            logm));
}

/** draw::sinPoly / draw::cosPoly (a - c == a + -c exactly). */
inline __m256d
sinPoly(__m256d x, __m256d x2)
{
    __m256d p = _mm256_set1_pd(1.0 / 355687428096000.0);
    p = horner(p, x2, -1.0 / 1307674368000.0);
    p = horner(p, x2, 1.0 / 6227020800.0);
    p = horner(p, x2, -1.0 / 39916800.0);
    p = horner(p, x2, 1.0 / 362880.0);
    p = horner(p, x2, -1.0 / 5040.0);
    p = horner(p, x2, 1.0 / 120.0);
    p = horner(p, x2, -1.0 / 6.0);
    return _mm256_add_pd(x, _mm256_mul_pd(_mm256_mul_pd(x, x2), p));
}

inline __m256d
cosPoly(__m256d x2)
{
    __m256d p = _mm256_set1_pd(1.0 / 20922789888000.0);
    p = horner(p, x2, -1.0 / 87178291200.0);
    p = horner(p, x2, 1.0 / 479001600.0);
    p = horner(p, x2, -1.0 / 3628800.0);
    p = horner(p, x2, 1.0 / 40320.0);
    p = horner(p, x2, -1.0 / 720.0);
    p = horner(p, x2, 1.0 / 24.0);
    p = horner(p, x2, -0.5);
    return _mm256_add_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(x2, p));
}

/** draw::turn for four turns at once. */
inline void
sincosTurn(__m256d u, __m256d &cos_out, __m256d &sin_out)
{
    const __m256d round = _mm256_set1_pd(0x1.8p52);
    const __m256d t = _mm256_mul_pd(u, _mm256_set1_pd(4.0));
    const __m256d b = _mm256_add_pd(t, round);
    const __m256d f = _mm256_sub_pd(t, _mm256_sub_pd(b, round));
    const __m256d x =
        _mm256_mul_pd(f, _mm256_set1_pd(0x1.921fb54442d18p0));
    const __m256d x2 = _mm256_mul_pd(x, x);
    const __m256d sp = sinPoly(x, x2);
    const __m256d cp = cosPoly(x2);
    const __m256i q = _mm256_castpd_si256(b);
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i two = _mm256_set1_epi64x(2);
    const __m256d odd = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(q, one), one));
    const __m256i cos_neg = _mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_add_epi64(q, one), two), two);
    const __m256i sin_neg =
        _mm256_cmpeq_epi64(_mm256_and_si256(q, two), two);
    const __m256i sign = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    cos_out = _mm256_xor_pd(
        _mm256_blendv_pd(cp, sp, odd),
        _mm256_castsi256_pd(_mm256_and_si256(cos_neg, sign)));
    sin_out = _mm256_xor_pd(
        _mm256_blendv_pd(sp, cp, odd),
        _mm256_castsi256_pd(_mm256_and_si256(sin_neg, sign)));
}

/**
 * mean + sigma * both halves of four Box-Muller pair blocks:
 * draw::gaussianPairs lane for lane.
 */
inline void
boxMuller(const Words4 &w, __m256d mv, __m256d sv, __m256d &yc,
          __m256d &ys)
{
    const __m256d r =
        _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0),
                                     logPositive(toOpenUniform(w.w0))));
    __m256d c, s;
    sincosTurn(toUniform(w.w1), c, s);
    yc = _mm256_add_pd(mv, _mm256_mul_pd(sv, _mm256_mul_pd(r, c)));
    ys = _mm256_add_pd(mv, _mm256_mul_pd(sv, _mm256_mul_pd(r, s)));
}

void
gaussianFillAvx2(double *dst, std::size_t n, std::uint64_t key,
                 std::uint64_t index, double mean, double sigma)
{
    std::size_t i = 0;
    if (n != 0 && (index & 1)) {
        draw::gaussianFill(dst, 1, key, index, mean, sigma);
        i = 1;
    }
    if (n - i >= 8) {
        const RoundKeys keys(key);
        const __m256d mv = _mm256_set1_pd(mean);
        const __m256d sv = _mm256_set1_pd(sigma);
        for (; i + 8 <= n; i += 8) {
            __m256d yc, ys;
            boxMuller(philox4(keys, (index + i) >> 1, draw::kPairs), mv,
                      sv, yc, ys);
            // Pair k's cosine half lands at 2k, its sine half at 2k+1.
            const __m256d lo = _mm256_unpacklo_pd(yc, ys);
            const __m256d hi = _mm256_unpackhi_pd(yc, ys);
            _mm256_storeu_pd(dst + i, _mm256_permute2f128_pd(lo, hi, 0x20));
            _mm256_storeu_pd(dst + i + 4,
                             _mm256_permute2f128_pd(lo, hi, 0x31));
        }
    }
    draw::gaussianFill(dst + i, n - i, key, index + i, mean, sigma);
}

void
gaussianPairsAvx2(double *cos_out, double *sin_out,
                  const std::uint64_t *pairs, std::size_t n,
                  std::uint64_t key, double mean, double sigma)
{
    std::size_t k = 0;
    if (n >= 4) {
        const RoundKeys keys(key);
        const __m256d mv = _mm256_set1_pd(mean);
        const __m256d sv = _mm256_set1_pd(sigma);
        for (; k + 4 <= n; k += 4) {
            const __m256i idx = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(pairs + k));
            __m256d yc, ys;
            boxMuller(philox4(keys, idx, draw::kPairs), mv, sv, yc, ys);
            _mm256_storeu_pd(cos_out + k, yc);
            _mm256_storeu_pd(sin_out + k, ys);
        }
    }
    draw::gaussianPairs(cos_out + k, sin_out + k, pairs + k, n - k, key,
                        mean, sigma);
}

void
chanceFillAvx2(std::uint8_t *dst, std::size_t n, std::uint64_t key,
               std::uint64_t index, double p)
{
    std::size_t i = 0;
    if (n != 0 && (index & 1)) {
        draw::chanceFill(dst, 1, key, index, p);
        i = 1;
    }
    if (n - i >= 8) {
        const RoundKeys keys(key);
        const __m256d pv = _mm256_set1_pd(p);
        for (; i + 8 <= n; i += 8) {
            const Words4 w =
                philox4(keys, (index + i) >> 1, draw::kWords);
            // Lane l of w0 is word 2l, of w1 word 2l+1.
            const auto even = static_cast<unsigned>(_mm256_movemask_pd(
                _mm256_cmp_pd(toUniform(w.w0), pv, _CMP_LT_OQ)));
            const auto odd = static_cast<unsigned>(_mm256_movemask_pd(
                _mm256_cmp_pd(toUniform(w.w1), pv, _CMP_LT_OQ)));
            const std::uint64_t bytes =
                _pdep_u64(even, 0x0001000100010001ULL) |
                _pdep_u64(odd, 0x0100010001000100ULL);
            std::memcpy(dst + i, &bytes, 8);
        }
    }
    draw::chanceFill(dst + i, n - i, key, index + i, p);
}

const RawOps kAvx2Ops = {gaussianFillAvx2, gaussianPairsAvx2,
                         chanceFillAvx2};

} // namespace

const RawOps &
avx2RawOps()
{
    return kAvx2Ops;
}

} // namespace fracdram::simd
