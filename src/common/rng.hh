/**
 * @file
 * Deterministic random-number infrastructure.
 *
 * Process variation must be reproducible: the same (chip serial, bank,
 * row, column) must always yield the same manufacturing parameters, no
 * matter in which order experiments touch them. RngFactory hands out
 * independent streams keyed by a hierarchy of integer tags, all derived
 * from one root seed via SplitMix64 hashing.
 *
 * Rng is counter-based: every draw is a pure function of (key, kind,
 * index) (common/simd/ops_draw.hh). A stream is a key plus two
 * counters, one for raw words (next, uniform, chance) and one for
 * gaussians, so skipping n draws is a counter add, and a row-wide fill
 * is an element-wise map that the SIMD tiers vectorize (DESIGN.md,
 * "Columnar kernels").
 */

#ifndef FRACDRAM_COMMON_RNG_HH
#define FRACDRAM_COMMON_RNG_HH

#include <cstddef>
#include <cstdint>
#include <span>

namespace fracdram
{

/** SplitMix64 hash step; good avalanche, cheap, reproducible. */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Combine a seed with a tag into a new independent seed. */
inline std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t tag)
{
    return splitmix64(seed ^ splitmix64(tag + 0x632be59bd9b4e019ULL));
}

/**
 * A counter-based PRNG (Philox4x32-10) with distribution helpers.
 *
 * Word i of the stream is next()'s i-th result; gaussian j is half
 * j & 1 (cosine, sine) of Box-Muller pair j >> 1. Each counter only
 * moves forward by the draws of its own kind, so fill(a) then fill(b)
 * equals fill(a + b) for any a and b.
 *
 * Not cryptographic; used only for simulating device physics.
 */
class Rng
{
  public:
    /** A stream keyed by splitmix64(@p seed), both counters at 0. */
    explicit Rng(std::uint64_t seed) : key_(splitmix64(seed)) {}

    /** Raw 64 random bits. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Standard normal via Box-Muller. */
    double gaussian();

    /** Normal with given mean and standard deviation. */
    double gaussian(double mean, double sigma)
    {
        return mean + sigma * gaussian();
    }

    /** Lognormal: exp(N(mu, sigma)). */
    double lognormal(double mu, double sigma);

    /** Beta(a, b) via two gamma draws. */
    double beta(double a, double b);

    /** Gamma(shape k, scale 1) via Marsaglia-Tsang. */
    double gamma(double k);

    /** Bernoulli trial. */
    bool chance(double p) { return uniform() < p; }

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t below(std::uint64_t n);

    /** dst[i] = the next gaussian(mean, sigma) draws, in order. */
    void fillGaussian(std::span<double> dst, double mean,
                      double sigma);

    /** dst[i] = the next chance(p) draws, in order (1 = success). */
    void fillChance(std::span<std::uint8_t> dst, double p);

    /** Advance past @p n raw-word draws (next, uniform, chance). */
    void skip(std::size_t n) { words_ += n; }

    /** Advance past @p n gaussian draws. */
    void skipGaussians(std::size_t n) { gaussians_ += n; }

    /**
     * The stream's Philox key: gaussian j is
     * simd::draw::gaussian(key(), j), so a caller can evaluate draws
     * at chosen indices (simd::RawOps::gaussianPairs).
     */
    std::uint64_t key() const { return key_; }

    /** Index of the next gaussian draw. */
    std::uint64_t gaussianIndex() const { return gaussians_; }

  private:
    std::uint64_t key_;
    std::uint64_t words_ = 0;     //!< index of the next raw word
    std::uint64_t gaussians_ = 0; //!< index of the next gaussian
};

/**
 * Factory producing independent, reproducible Rng streams from
 * hierarchical integer tags.
 */
class RngFactory
{
  public:
    explicit RngFactory(std::uint64_t root_seed) : seed_(root_seed) {}

    /** Derive a sub-factory for a component (e.g. a bank). */
    RngFactory sub(std::uint64_t tag) const
    {
        return RngFactory(mixSeed(seed_, tag));
    }

    /** Materialize a stream for a leaf entity. */
    Rng stream(std::uint64_t tag) const { return Rng(mixSeed(seed_, tag)); }

    /** Root seed of this factory. */
    std::uint64_t seed() const { return seed_; }

  private:
    std::uint64_t seed_;
};

} // namespace fracdram

#endif // FRACDRAM_COMMON_RNG_HH
