/**
 * @file
 * The counter-based draws, one element at a time.
 *
 * Every draw of an Rng is a pure function of (key, kind, index).
 * Philox4x32-10 (Salmon et al., "Parallel Random Numbers: As Easy as
 * 1, 2, 3", SC'11) encrypts the counter (index_lo, index_hi, kind, 0)
 * under the 64-bit key. The 128-bit block becomes two raw words
 * (kind kWords, word i = half i & 1 of block i >> 1) or one
 * Box-Muller pair (kind kPairs, gaussian j = the cosine half for
 * even j and the sine half for odd j of pair j >> 1).
 *
 * Rng's one-at-a-time draws, the scalar RawOps tier and the vector
 * tiers' heads and tails all call these functions; the vector tiers
 * transcribe them lane for lane.
 *
 * Bit-exactness across tiers: the maps use integer ops and IEEE add,
 * mul, div and sqrt only, in the fixed order written here, and every
 * TU that evaluates them builds with -ffp-contract=off. log and
 * sincos are in-house polynomials for that reason: libm is free to
 * differ between versions and has no vector twin that matches it.
 */

#ifndef FRACDRAM_COMMON_SIMD_OPS_DRAW_HH
#define FRACDRAM_COMMON_SIMD_OPS_DRAW_HH

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace fracdram::simd::draw
{

/** Counter word 2: which family of draws a block belongs to. */
constexpr std::uint32_t kWords = 0;
constexpr std::uint32_t kPairs = 1;

/** Philox4x32 multipliers and Weyl key increments (Random123). */
constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u;
constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85u;
constexpr int kPhiloxRounds = 10;

struct Block
{
    std::uint32_t x[4];
};

/** Philox4x32-10 of counter @p c under key (k0, k1). */
inline Block
philox4x32(Block c, std::uint32_t k0, std::uint32_t k1)
{
    for (int r = 0; r < kPhiloxRounds; ++r) {
        if (r != 0) {
            k0 += kPhiloxW0;
            k1 += kPhiloxW1;
        }
        const std::uint64_t p0 = std::uint64_t{kPhiloxM0} * c.x[0];
        const std::uint64_t p1 = std::uint64_t{kPhiloxM1} * c.x[2];
        c = {{static_cast<std::uint32_t>(p1 >> 32) ^ c.x[1] ^ k0,
              static_cast<std::uint32_t>(p1),
              static_cast<std::uint32_t>(p0 >> 32) ^ c.x[3] ^ k1,
              static_cast<std::uint32_t>(p0)}};
    }
    return c;
}

/** Block @p index of the @p kind family of stream @p key. */
inline Block
block(std::uint64_t key, std::uint64_t index, std::uint32_t kind)
{
    return philox4x32({{static_cast<std::uint32_t>(index),
                        static_cast<std::uint32_t>(index >> 32), kind,
                        0}},
                      static_cast<std::uint32_t>(key),
                      static_cast<std::uint32_t>(key >> 32));
}

/** The 64-bit word in half @p h (0 or 1) of a block. */
inline std::uint64_t
half(const Block &b, unsigned h)
{
    return std::uint64_t{b.x[2 * h + 1]} << 32 | b.x[2 * h];
}

/** Raw word @p i of stream @p key. */
inline std::uint64_t
word(std::uint64_t key, std::uint64_t i)
{
    return half(block(key, i >> 1, kWords), i & 1);
}

/** Uniform double in [0, 1) from the top 53 bits of @p w. */
inline double
toUniform(std::uint64_t w)
{
    return static_cast<double>(w >> 11) * 0x1.0p-53;
}

/** Uniform double in (0, 1]: the Box-Muller radius input. */
inline double
toOpenUniform(std::uint64_t w)
{
    return static_cast<double>((w >> 11) + 1) * 0x1.0p-53;
}

/** Bits of sqrt(2)/2: logPositive's reduced mantissa starts here. */
constexpr std::uint64_t kLogOff = 0x3fe6a09e667f3bcdULL;

/**
 * Natural log of a positive normal double. u = 2^k * m with m in
 * [sqrt(2)/2, sqrt(2)) (split branch-free on the bits, as in musl),
 * then log(m) = 2 atanh(s), s = (m-1)/(m+1), |s| <= 0.172, as its
 * odd series to s^19 (truncation < 1e-17).
 */
inline double
logPositive(double u)
{
    // ln 2 split so that k * kLn2Hi is exact for every exponent.
    constexpr double kLn2Hi = 0x1.62e42feep-1;
    constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
    const std::uint64_t t = bits - kLogOff;
    const double k =
        static_cast<double>((t + (1023ULL << 52)) >> 52) - 1023.0;
    const double m = std::bit_cast<double>(bits - (t & (0xfffULL << 52)));
    const double s = (m - 1.0) / (m + 1.0);
    const double z = s * s;
    double p = 1.0 / 19.0;
    p = p * z + 1.0 / 17.0;
    p = p * z + 1.0 / 15.0;
    p = p * z + 1.0 / 13.0;
    p = p * z + 1.0 / 11.0;
    p = p * z + 1.0 / 9.0;
    p = p * z + 1.0 / 7.0;
    p = p * z + 1.0 / 5.0;
    p = p * z + 1.0 / 3.0;
    p = p * z + 1.0;
    return k * kLn2Hi + (k * kLn2Lo + (2.0 * s) * p);
}

/** sin(x) for |x| <= pi/4: Taylor to x^17 (truncation < 1e-18). */
inline double
sinPoly(double x)
{
    const double x2 = x * x;
    double p = 1.0 / 355687428096000.0;
    p = p * x2 - 1.0 / 1307674368000.0;
    p = p * x2 + 1.0 / 6227020800.0;
    p = p * x2 - 1.0 / 39916800.0;
    p = p * x2 + 1.0 / 362880.0;
    p = p * x2 - 1.0 / 5040.0;
    p = p * x2 + 1.0 / 120.0;
    p = p * x2 - 1.0 / 6.0;
    return x + (x * x2) * p;
}

/** cos(x) for |x| <= pi/4: Taylor to x^16 (truncation < 1e-17). */
inline double
cosPoly(double x)
{
    const double x2 = x * x;
    double p = 1.0 / 20922789888000.0;
    p = p * x2 - 1.0 / 87178291200.0;
    p = p * x2 + 1.0 / 479001600.0;
    p = p * x2 - 1.0 / 3628800.0;
    p = p * x2 + 1.0 / 40320.0;
    p = p * x2 - 1.0 / 720.0;
    p = p * x2 + 1.0 / 24.0;
    p = p * x2 - 0.5;
    return 1.0 + x2 * p;
}

/** cos(2 pi u) and sin(2 pi u). */
struct Turn
{
    double cos;
    double sin;
};

/**
 * Turn of u in [0, 1): 4u = q + f with integer q and |f| <= 1/2, the
 * polynomials at x = f pi/2, then the quadrant q mod 4 swaps and
 * negates them. The swap and the negation are bit operations, so no
 * branch depends on the random quadrant.
 */
inline Turn
turn(double u)
{
    constexpr double kRound = 0x1.8p52; // adding it rounds to integer
    constexpr double kHalfPi = 0x1.921fb54442d18p0;
    const double t = u * 4.0; // exact
    const double b = t + kRound;
    const double x = (t - (b - kRound)) * kHalfPi;
    const std::uint64_t q = std::bit_cast<std::uint64_t>(b);
    const std::uint64_t c = std::bit_cast<std::uint64_t>(cosPoly(x));
    const std::uint64_t s = std::bit_cast<std::uint64_t>(sinPoly(x));
    const std::uint64_t odd = 0 - (q & 1);
    return {std::bit_cast<double>(((s & odd) | (c & ~odd)) ^
                                  (((q + 1) & 2) << 62)),
            std::bit_cast<double>(((c & odd) | (s & ~odd)) ^
                                  ((q & 2) << 62))};
}

/** Box-Muller radius sqrt(-2 log u1) of a pair block. */
inline double
radius(const Block &b)
{
    return std::sqrt(-2.0 * logPositive(toOpenUniform(half(b, 0))));
}

/**
 * Bound on |gaussian(key, j)| for every key and j. The radius is
 * largest at the smallest input, toOpenUniform(0) = 2^-53, where it
 * is sqrt(106 ln 2) = 8.571674..; this constant rounds that up by
 * more than 1e-5, far beyond logPositive's < 1e-13 error and sqrt's
 * rounding. turn's cos and sin never exceed 1 in magnitude (the
 * polynomials stay inside [-1, 1] on |x| <= pi/4, and the quadrant
 * fix-up only swaps and negates them), so r * cos and r * sin round to
 * at most r.
 */
constexpr double kGaussianMax = 8.5717;

/** Standard normal @p j of stream @p key. */
inline double
gaussian(std::uint64_t key, std::uint64_t j)
{
    const Block b = block(key, j >> 1, kPairs);
    const Turn a = turn(toUniform(half(b, 1)));
    return radius(b) * ((j & 1) ? a.sin : a.cos);
}

/**
 * dst[i] = mean + sigma * gaussian(key, index + i): the scalar tier of
 * RawOps::gaussianFill, and the vector tiers' head and tail.
 */
inline void
gaussianFill(double *dst, std::size_t n, std::uint64_t key,
             std::uint64_t index, double mean, double sigma)
{
    std::size_t i = 0;
    if (n != 0 && (index & 1)) {
        dst[0] = mean + sigma * gaussian(key, index);
        i = 1;
    }
    for (; i + 2 <= n; i += 2) {
        const Block b = block(key, (index + i) >> 1, kPairs);
        const double r = radius(b);
        const Turn a = turn(toUniform(half(b, 1)));
        dst[i] = mean + sigma * (r * a.cos);
        dst[i + 1] = mean + sigma * (r * a.sin);
    }
    if (i < n)
        dst[i] = mean + sigma * gaussian(key, index + i);
}

/**
 * Both halves of Box-Muller pairs pairs[k] of stream @p key:
 * cos_out[k] = mean + sigma * gaussian(key, 2 pairs[k]) and
 * sin_out[k] = mean + sigma * gaussian(key, 2 pairs[k] + 1). The
 * scalar tier of RawOps::gaussianPairs and the vector tiers' tail.
 */
inline void
gaussianPairs(double *cos_out, double *sin_out,
              const std::uint64_t *pairs, std::size_t n,
              std::uint64_t key, double mean, double sigma)
{
    for (std::size_t k = 0; k < n; ++k) {
        const Block b = block(key, pairs[k], kPairs);
        const double r = radius(b);
        const Turn a = turn(toUniform(half(b, 1)));
        cos_out[k] = mean + sigma * (r * a.cos);
        sin_out[k] = mean + sigma * (r * a.sin);
    }
}

/** dst[i] = toUniform(word(key, index + i)) < p: RawOps::chanceFill. */
inline void
chanceFill(std::uint8_t *dst, std::size_t n, std::uint64_t key,
           std::uint64_t index, double p)
{
    std::size_t i = 0;
    if (n != 0 && (index & 1)) {
        dst[0] = toUniform(word(key, index)) < p ? 1 : 0;
        i = 1;
    }
    for (; i + 2 <= n; i += 2) {
        const Block b = block(key, (index + i) >> 1, kWords);
        dst[i] = toUniform(half(b, 0)) < p ? 1 : 0;
        dst[i + 1] = toUniform(half(b, 1)) < p ? 1 : 0;
    }
    if (i < n)
        dst[i] = toUniform(word(key, index + i)) < p ? 1 : 0;
}

} // namespace fracdram::simd::draw

#endif // FRACDRAM_COMMON_SIMD_OPS_DRAW_HH
