/**
 * @file
 * ISA-equivalence property tests for the dispatched columnar kernels:
 * the AVX2 tier, when this binary compiled it and this machine can
 * run it, must produce bit-identical output to the scalar reference,
 * for every kernel, over random inputs at sizes covering every vector
 * tail length (n % 16 in [0, 15]) plus word-boundary and row-sized
 * cases. The same holds for the RNG fills of common/simd/ops, at even
 * and odd start counters, and for gaussianPairs at pair indices across
 * the counter's 32-bit carry. This is the contract that lets the
 * golden-digest suite hold regardless of FRACDRAM_ISA (see DESIGN.md,
 * "SIMD dispatch").
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "common/simd/ops.hh"
#include "sim/kernels.hh"
#include "sim/kernels_dispatch.hh"

using namespace fracdram;
using namespace fracdram::sim::kernels;

namespace
{

/** Sizes covering all 16-lane tails, 64-bit word edges, and a row. */
const std::vector<std::size_t> &
testSizes()
{
    static const std::vector<std::size_t> sizes = [] {
        std::vector<std::size_t> s;
        for (std::size_t n = 0; n <= 16; ++n)
            s.push_back(n);
        for (const std::size_t n : {63, 64, 65, 127, 128, 129})
            s.push_back(n);
        for (std::size_t n = 1000; n < 1016; ++n)
            s.push_back(n);
        s.push_back(16384);
        return s;
    }();
    return sizes;
}

struct Tier
{
    const char *name;
    const KernelTable *table;
};

/** The runnable AVX2 tier (empty on old machines or without SIMD). */
std::vector<Tier>
vectorTiers()
{
    std::vector<Tier> tiers;
    if (const KernelTable *t = kernelTableForIsa(simd::Isa::Avx2))
        tiers.push_back({simd::isaName(simd::Isa::Avx2), t});
    return tiers;
}

class Inputs
{
  public:
    explicit Inputs(std::uint64_t seed, std::size_t n) : gen_(seed)
    {
        volts = floats(n, 0.0f, 1.0f);
        coupling = floats(n, 0.0f, 0.2f);
        alpha = floats(n, 0.01f, 0.99f);
        off = floats(n, -0.05f, 0.05f);
        sa = floats(n, -0.1f, 0.1f);
        num = doubles(n, 0.0, 1.0);
        den = doubles(n, 0.5, 2.0);
        eq = doubles(n, 0.0, 1.0);
        noise = doubles(n, -0.1, 0.1);
        mul = doubles(n, 0.9, 1.0);
        dec.resize(n);
        words.resize((n + 63) / 64);
        for (auto &d : dec)
            d = static_cast<std::uint8_t>(gen_());
        for (auto &w : words)
            w = gen_();
    }

    std::vector<float> volts, coupling, alpha, off, sa;
    std::vector<double> num, den, eq, noise, mul;
    std::vector<std::uint8_t> dec;
    std::vector<std::uint64_t> words;

  private:
    std::vector<float> floats(std::size_t n, float lo, float hi)
    {
        std::uniform_real_distribution<float> d(lo, hi);
        std::vector<float> v(n);
        for (auto &x : v)
            x = d(gen_);
        return v;
    }
    std::vector<double> doubles(std::size_t n, double lo, double hi)
    {
        std::uniform_real_distribution<double> d(lo, hi);
        std::vector<double> v(n);
        for (auto &x : v)
            x = d(gen_);
        return v;
    }
    std::mt19937_64 gen_;
};

template <typename T>
::testing::AssertionResult
bitIdentical(const std::vector<T> &got, const std::vector<T> &want)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure() << "size mismatch";
    if (!got.empty() &&
        std::memcmp(got.data(), want.data(),
                    got.size() * sizeof(T)) != 0) {
        for (std::size_t i = 0; i < got.size(); ++i)
            if (std::memcmp(&got[i], &want[i], sizeof(T)) != 0)
                return ::testing::AssertionFailure()
                       << "first mismatch at index " << i;
    }
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(KernelsIsaTest, TiersReported)
{
    // Informational: record which tiers this run actually covered.
    const auto tiers = vectorTiers();
    std::string names;
    for (const auto &t : tiers)
        names += std::string(" ") + t.name;
    RecordProperty("vector_tiers",
                   tiers.empty() ? "none" : names.c_str());
    SUCCEED();
}

TEST(KernelsIsaTest, ParseIsaKnowsTwoTiers)
{
    // FRACDRAM_ISA names exactly the two tiers, lower case; anything
    // else (the retired 512-bit tier's name included) is rejected, so
    // resolve() warns and keeps the best tier.
    simd::Isa isa = simd::Isa::Avx2;
    ASSERT_TRUE(simd::parseIsa("scalar", isa));
    EXPECT_EQ(isa, simd::Isa::Scalar);
    ASSERT_TRUE(simd::parseIsa("avx2", isa));
    EXPECT_EQ(isa, simd::Isa::Avx2);
    for (const char *bad : {"avx512", "", "AVX2"}) {
        isa = simd::Isa::Scalar;
        EXPECT_FALSE(simd::parseIsa(bad, isa)) << "'" << bad << "'";
        EXPECT_EQ(isa, simd::Isa::Scalar) << "'" << bad << "'";
    }
    for (const simd::Isa t : {simd::Isa::Scalar, simd::Isa::Avx2})
        ASSERT_TRUE(simd::parseIsa(simd::isaName(t), isa) && isa == t);
}

TEST(KernelsIsaTest, DecayMultiply)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes()) {
            Inputs in(n * 2 + 1, n);
            auto got = in.volts;
            auto want = in.volts;
            tier.table->decayMultiply(got.data(), in.mul.data(), n);
            ref.decayMultiply(want.data(), in.mul.data(), n);
            EXPECT_TRUE(bitIdentical(got, want))
                << tier.name << " n=" << n;
        }
}

TEST(KernelsIsaTest, ChargeAccumulate)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes()) {
            Inputs in(n * 3 + 1, n);
            auto gnum = in.num, gden = in.den;
            auto wnum = in.num, wden = in.den;
            tier.table->chargeAccumulate(gnum.data(), gden.data(),
                                         in.volts.data(),
                                         in.coupling.data(), 0.37, n);
            ref.chargeAccumulate(wnum.data(), wden.data(),
                                 in.volts.data(), in.coupling.data(),
                                 0.37, n);
            EXPECT_TRUE(bitIdentical(gnum, wnum))
                << tier.name << " num n=" << n;
            EXPECT_TRUE(bitIdentical(gden, wden))
                << tier.name << " den n=" << n;
        }
}

TEST(KernelsIsaTest, Equilibrium)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes()) {
            Inputs in(n * 5 + 1, n);
            std::vector<double> got(n), want(n);
            tier.table->equilibrium(got.data(), in.num.data(),
                                    in.den.data(), n);
            ref.equilibrium(want.data(), in.num.data(), in.den.data(),
                            n);
            EXPECT_TRUE(bitIdentical(got, want))
                << tier.name << " n=" << n;
        }
}

TEST(KernelsIsaTest, SenseBounded)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes())
            // Nothing, some and every column marginal.
            for (const double reach : {0.0, 0.05, 1.0}) {
                Inputs in(n * 7 + 1, n);
                std::vector<std::uint8_t> got(n, 0xcc), want(n, 0xcc);
                std::vector<std::uint32_t> gm(n, 7), wm(n, 7);
                const std::size_t g = tier.table->senseBounded(
                    got.data(), gm.data(), in.eq.data(), in.sa.data(),
                    0.5, reach, n);
                const std::size_t w = ref.senseBounded(
                    want.data(), wm.data(), in.eq.data(), in.sa.data(),
                    0.5, reach, n);
                ASSERT_EQ(g, w) << tier.name << " n=" << n;
                gm.resize(g);
                wm.resize(w);
                EXPECT_TRUE(bitIdentical(got, want))
                    << tier.name << " n=" << n << " reach=" << reach;
                EXPECT_TRUE(bitIdentical(gm, wm))
                    << tier.name << " n=" << n << " reach=" << reach;
            }
}

TEST(KernelsIsaTest, SenseBoundedEdges)
{
    // The scalar contract at the bound itself: d == s + reach and
    // d == s - reach + ulp stay marginal, one ulp outward is clear.
    const float sa = 0.01f;
    const double reach = 0.03;
    const double s = sa;
    const double hi = s + reach;
    const double lo = s - reach;
    // half = 0, so eq itself is the delta d the kernel compares.
    const double probe[] = {std::nextafter(hi, 1.0), hi,
                            std::nextafter(hi, 0.0),
                            std::nextafter(lo, 1.0), lo,
                            std::nextafter(lo, -1.0), s};
    // Three copies: 21 columns reach the vector tiers' main loops.
    std::vector<double> eq;
    std::vector<std::uint8_t> want_dec;
    std::vector<std::uint32_t> want_marg;
    for (std::uint32_t rep = 0; rep < 3; ++rep) {
        eq.insert(eq.end(), std::begin(probe), std::end(probe));
        want_dec.insert(want_dec.end(), {1, 0, 0, 0, 0, 0, 0});
        for (const std::uint32_t c : {1, 2, 3, 6})
            want_marg.push_back(7 * rep + c);
    }
    const std::vector<float> sas(eq.size(), sa);
    std::vector<const KernelTable *> tables = {&scalarKernelTable()};
    for (const auto &tier : vectorTiers())
        tables.push_back(tier.table);
    for (const KernelTable *t : tables) {
        std::vector<std::uint8_t> dec(eq.size(), 0xcc);
        std::vector<std::uint32_t> marg(eq.size());
        marg.resize(t->senseBounded(dec.data(), marg.data(), eq.data(),
                                    sas.data(), 0.0, reach, eq.size()));
        EXPECT_EQ(dec, want_dec);
        EXPECT_EQ(marg, want_marg);
    }
}

TEST(KernelsIsaTest, CountFlips)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes()) {
            Inputs in(n * 31 + 1, n); // dec holds arbitrary bytes
            EXPECT_EQ(tier.table->countFlips(in.dec.data(), in.eq.data(),
                                             0.5, n),
                      ref.countFlips(in.dec.data(), in.eq.data(), 0.5, n))
                << tier.name << " n=" << n;
        }
}

TEST(KernelsIsaTest, DriveRails)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes()) {
            Inputs in(n * 11 + 1, n);
            auto got = in.volts;
            auto want = in.volts;
            tier.table->driveRails(got.data(), in.dec.data(), 1.1f, n);
            ref.driveRails(want.data(), in.dec.data(), 1.1f, n);
            EXPECT_TRUE(bitIdentical(got, want))
                << tier.name << " n=" << n;
        }
}

TEST(KernelsIsaTest, SettleToward)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes()) {
            Inputs in(n * 13 + 1, n);
            auto got = in.volts;
            auto want = in.volts;
            tier.table->settleToward(got.data(), in.alpha.data(),
                                     in.eq.data(), in.off.data(), n);
            ref.settleToward(want.data(), in.alpha.data(),
                             in.eq.data(), in.off.data(), n);
            EXPECT_TRUE(bitIdentical(got, want))
                << tier.name << " n=" << n;
        }
}

TEST(KernelsIsaTest, FracSettle)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes()) {
            Inputs in(n * 17 + 1, n);
            auto got = in.volts;
            auto want = in.volts;
            tier.table->fracSettle(got.data(), in.alpha.data(),
                                   in.coupling.data(), in.off.data(),
                                   in.noise.data(), 0.41, 0.3, 0.7, n);
            ref.fracSettle(want.data(), in.alpha.data(),
                           in.coupling.data(), in.off.data(),
                           in.noise.data(), 0.41, 0.3, 0.7, n);
            EXPECT_TRUE(bitIdentical(got, want))
                << tier.name << " n=" << n;
        }
}

TEST(KernelsIsaTest, RestoreTruncate)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes()) {
            Inputs in(n * 19 + 1, n);
            auto got = in.volts;
            auto want = in.volts;
            tier.table->restoreTruncate(got.data(), 0.55, 0.93, n);
            ref.restoreTruncate(want.data(), 0.55, 0.93, n);
            EXPECT_TRUE(bitIdentical(got, want))
                << tier.name << " n=" << n;
        }
}

TEST(KernelsIsaTest, FillFromBits)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes())
            for (const bool invert : {false, true}) {
                Inputs in(n * 23 + invert, n);
                std::vector<float> got(n, -7.0f), want(n, -7.0f);
                tier.table->fillFromBits(got.data(), in.words.data(),
                                         invert, 1.1f, n);
                ref.fillFromBits(want.data(), in.words.data(), invert,
                                 1.1f, n);
                EXPECT_TRUE(bitIdentical(got, want))
                    << tier.name << " n=" << n
                    << " invert=" << invert;
            }
}

TEST(KernelsIsaTest, PackDecisions)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes())
            for (const bool invert : {false, true}) {
                Inputs in(n * 29 + invert, n);
                const std::size_t nwords = (n + 63) / 64;
                std::vector<std::uint64_t> got(nwords, 0xdeadbeef),
                    want(nwords, 0xdeadbeef);
                tier.table->packDecisions(got.data(), in.dec.data(),
                                          invert, n);
                ref.packDecisions(want.data(), in.dec.data(), invert,
                                  n);
                EXPECT_TRUE(bitIdentical(got, want))
                    << tier.name << " n=" << n
                    << " invert=" << invert;
            }
}

TEST(KernelsIsaTest, PublicEntryPointsUseActiveTable)
{
    // The dispatched public functions and the active table must agree
    // (one indirection, resolved once).
    const KernelTable &active = activeKernelTable();
    Inputs in(99, 256);
    auto via_public = in.volts;
    auto via_table = in.volts;
    decayMultiply(via_public.data(), in.mul.data(), 256);
    active.decayMultiply(via_table.data(), in.mul.data(), 256);
    EXPECT_TRUE(bitIdentical(via_public, via_table));
}

namespace
{

/** The runnable AVX2 RawOps table, by name (empty when absent). */
std::vector<std::pair<const char *, const simd::RawOps *>>
rawVectorTiers()
{
    std::vector<std::pair<const char *, const simd::RawOps *>> tiers;
    if (const simd::RawOps *t = simd::rawOpsForIsa(simd::Isa::Avx2))
        tiers.emplace_back(simd::isaName(simd::Isa::Avx2), t);
    return tiers;
}

/** Start counters: even, odd, and across a 32-bit carry. */
constexpr std::uint64_t kStarts[] = {0, 1, 2, 7, 0xfffffffdULL,
                                     (1ULL << 40) + 3};

} // namespace

TEST(KernelsIsaTest, RngGaussianFill)
{
    const simd::RawOps &ref = *simd::rawOpsForIsa(simd::Isa::Scalar);
    for (const auto &[name, ops] : rawVectorTiers())
        for (const std::size_t n : testSizes())
            for (const std::uint64_t start : kStarts) {
                const std::uint64_t key = 0x9e3779b97f4a7c15ULL ^ n;
                std::vector<double> got(n, -1.0), want(n, -1.0);
                ops->gaussianFill(got.data(), n, key, start, 0.25, 1.5);
                ref.gaussianFill(want.data(), n, key, start, 0.25, 1.5);
                EXPECT_TRUE(bitIdentical(got, want))
                    << name << " n=" << n << " start=" << start;
            }
}

TEST(KernelsIsaTest, RngGaussianPairs)
{
    const simd::RawOps &ref = *simd::rawOpsForIsa(simd::Isa::Scalar);
    // Pair indices around the 32-bit carry of the counter's low word
    // and far up the stream.
    constexpr std::uint64_t kBases[] = {0, (1ULL << 32) - 2,
                                        (1ULL << 40) - 1};
    for (const auto &[name, ops] : rawVectorTiers())
        for (const std::size_t n : testSizes())
            for (const std::uint64_t base : kBases) {
                const std::uint64_t key = 0x243f6a8885a308d3ULL + n;
                std::vector<std::uint64_t> pairs(n);
                std::mt19937_64 gen(n ^ base);
                std::uint64_t p = base;
                for (auto &x : pairs) {
                    x = p;
                    p += 1 + gen() % 5; // sparse, ascending
                }
                std::vector<double> gc(n, -1.0), gs(n, -1.0);
                std::vector<double> wc(n, -1.0), ws(n, -1.0);
                ops->gaussianPairs(gc.data(), gs.data(), pairs.data(), n,
                                   key, 0.25, 1.5);
                ref.gaussianPairs(wc.data(), ws.data(), pairs.data(), n,
                                  key, 0.25, 1.5);
                EXPECT_TRUE(bitIdentical(gc, wc))
                    << name << " n=" << n << " base=" << base;
                EXPECT_TRUE(bitIdentical(gs, ws))
                    << name << " n=" << n << " base=" << base;
            }
}

TEST(KernelsIsaTest, RngGaussianPairsMatchFill)
{
    // Pair k's halves are gaussians 2k and 2k + 1 of the fill.
    for (const simd::Isa isa : {simd::Isa::Scalar, simd::Isa::Avx2}) {
        const simd::RawOps *ops = simd::rawOpsForIsa(isa);
        if (ops == nullptr)
            continue;
        const std::uint64_t key = 0xfeedULL;
        const std::uint64_t first = (1ULL << 32) - 3;
        std::vector<double> fill(64);
        ops->gaussianFill(fill.data(), fill.size(), key, 2 * first,
                          0.0, 0.7);
        std::vector<std::uint64_t> pairs(32);
        for (std::size_t k = 0; k < pairs.size(); ++k)
            pairs[k] = first + k;
        std::vector<double> c(32), s(32), want_c(32), want_s(32);
        ops->gaussianPairs(c.data(), s.data(), pairs.data(), 32, key,
                           0.0, 0.7);
        for (std::size_t k = 0; k < 32; ++k) {
            want_c[k] = fill[2 * k];
            want_s[k] = fill[2 * k + 1];
        }
        EXPECT_TRUE(bitIdentical(c, want_c)) << simd::isaName(isa);
        EXPECT_TRUE(bitIdentical(s, want_s)) << simd::isaName(isa);
    }
}

TEST(KernelsIsaTest, RngChanceFill)
{
    const simd::RawOps &ref = *simd::rawOpsForIsa(simd::Isa::Scalar);
    for (const auto &[name, ops] : rawVectorTiers())
        for (const std::size_t n : testSizes())
            for (const std::uint64_t start : kStarts)
                for (const double p : {0.0, 0.3, 0.5, 1.0}) {
                    const std::uint64_t key = 0x5eedULL * (n + 1);
                    std::vector<std::uint8_t> got(n, 7), want(n, 7);
                    ops->chanceFill(got.data(), n, key, start, p);
                    ref.chanceFill(want.data(), n, key, start, p);
                    EXPECT_TRUE(bitIdentical(got, want))
                        << name << " n=" << n << " start=" << start
                        << " p=" << p;
                }
}
