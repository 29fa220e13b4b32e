/**
 * @file
 * Tests for the counter-based RNG contract the columnar kernels rely
 * on: a draw is a pure function of (key, kind, index), so fills
 * compose (fill(a) then fill(b) == fill(a + b)), skips are counter
 * adds, the word and gaussian counters are independent, and the
 * Philox core matches the published known answers. Also covers
 * RngBuffer and the trial engine's mixSeed-seeded streams at several
 * thread counts.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/rng_buffer.hh"
#include "common/simd/ops_draw.hh"

using namespace fracdram;

namespace
{

constexpr std::uint64_t kSeed = 0x5eedULL;

/** Sizes with both parities and lengths past one vector group. */
constexpr std::size_t kSizes[] = {0, 1, 2, 3, 7, 8, 9, 16, 17, 100, 255};

std::vector<double>
fillGaussians(Rng &rng, std::size_t n, double mean = 0.0,
              double sigma = 1.0)
{
    std::vector<double> out(n);
    rng.fillGaussian(out, mean, sigma);
    return out;
}

std::vector<std::uint8_t>
fillCoins(Rng &rng, std::size_t n, double p)
{
    std::vector<std::uint8_t> out(n);
    rng.fillChance(out, p);
    return out;
}

} // namespace

TEST(RngCounter, PhiloxKnownAnswers)
{
    // Random123's kat_vectors for philox4x32, 10 rounds.
    struct Kat
    {
        simd::draw::Block ctr;
        std::uint32_t k0, k1;
        simd::draw::Block want;
    };
    const Kat kats[] = {
        {{{0, 0, 0, 0}},
         0,
         0,
         {{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}}},
        {{{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff}},
         0xffffffff,
         0xffffffff,
         {{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}}},
        {{{0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344}},
         0xa4093822,
         0x299f31d0,
         {{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}}},
    };
    for (const Kat &k : kats) {
        const auto got = simd::draw::philox4x32(k.ctr, k.k0, k.k1);
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(got.x[i], k.want.x[i]) << "word " << i;
    }
}

TEST(RngCounter, FillsCompose)
{
    // fill(a) then fill(b) == fill(a + b), for every parity of a, b.
    for (const std::size_t a : kSizes)
        for (const std::size_t b : kSizes) {
            Rng split(kSeed);
            auto got = fillGaussians(split, a, 0.25, 1.5);
            const auto tail = fillGaussians(split, b, 0.25, 1.5);
            got.insert(got.end(), tail.begin(), tail.end());
            Rng whole(kSeed);
            EXPECT_EQ(got, fillGaussians(whole, a + b, 0.25, 1.5))
                << "a=" << a << " b=" << b;

            Rng csplit(kSeed);
            auto coins = fillCoins(csplit, a, 0.3);
            const auto ctail = fillCoins(csplit, b, 0.3);
            coins.insert(coins.end(), ctail.begin(), ctail.end());
            Rng cwhole(kSeed);
            EXPECT_EQ(coins, fillCoins(cwhole, a + b, 0.3))
                << "a=" << a << " b=" << b;
        }
}

TEST(RngCounter, ScalarDrawsEqualFills)
{
    Rng g(kSeed), c(kSeed);
    Rng gf(kSeed), cf(kSeed);
    const auto gauss = fillGaussians(gf, 1001, 0.25, 1.5);
    const auto coins = fillCoins(cf, 513, 0.3);
    for (std::size_t i = 0; i < gauss.size(); ++i)
        EXPECT_EQ(g.gaussian(0.25, 1.5), gauss[i]) << "i=" << i;
    for (std::size_t i = 0; i < coins.size(); ++i)
        EXPECT_EQ(c.chance(0.3) ? 1 : 0, coins[i]) << "i=" << i;
}

TEST(RngCounter, SkipThenFillIsTailOfLongerFill)
{
    for (const std::size_t n : kSizes)
        for (const std::size_t m : {1, 2, 9, 64}) {
            Rng whole(kSeed);
            const auto all = fillGaussians(whole, n + m);
            Rng skipped(kSeed);
            skipped.skipGaussians(n);
            const std::vector<double> want(all.begin() + n, all.end());
            EXPECT_EQ(fillGaussians(skipped, m), want)
                << "n=" << n << " m=" << m;

            Rng cwhole(kSeed);
            const auto call = fillCoins(cwhole, n + m, 0.5);
            Rng cskipped(kSeed);
            cskipped.skip(n);
            const std::vector<std::uint8_t> cwant(call.begin() + n,
                                                  call.end());
            EXPECT_EQ(fillCoins(cskipped, m, 0.5), cwant)
                << "n=" << n << " m=" << m;
        }
}

TEST(RngCounter, SkipIsConstantTime)
{
    // A skip of 2^40 draws finishes at once and lands exactly where
    // the pure function says: no draw is walked.
    constexpr std::uint64_t kFar = 1ULL << 40;
    const std::uint64_t key = splitmix64(kSeed);
    Rng rng(kSeed);
    rng.skipGaussians(kFar);
    const auto got = fillGaussians(rng, 37, 0.25, 1.5);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i],
                  0.25 + 1.5 * simd::draw::gaussian(key, kFar + i))
            << "i=" << i;
    rng.skip(kFar + 1);
    EXPECT_EQ(rng.next(), simd::draw::word(key, kFar + 1));
}

TEST(RngCounter, WordAndGaussianCountersAreIndependent)
{
    // Interleaving word draws does not move the gaussian sequence.
    Rng mixed(kSeed);
    Rng pure(kSeed);
    std::vector<double> got;
    for (int i = 0; i < 50; ++i) {
        (void)mixed.next();
        (void)mixed.chance(0.5);
        got.push_back(mixed.gaussian());
    }
    EXPECT_EQ(got, fillGaussians(pure, 50));
}

TEST(RngCounter, DistinctSeedsAndKindsDiffer)
{
    Rng a(kSeed), b(kSeed + 1);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
    // Word 0 and pair 0 of one key are different blocks.
    const std::uint64_t key = splitmix64(kSeed);
    EXPECT_NE(simd::draw::word(key, 0),
              simd::draw::half(
                  simd::draw::block(key, 0, simd::draw::kPairs), 0));
}

TEST(RngBuffer, SpansHoldTheNextDraws)
{
    Rng rng(kSeed);
    RngBuffer buf;
    std::vector<double> got;
    for (const std::size_t n : {std::size_t{5}, std::size_t{8}}) {
        const auto span = buf.gaussian(rng, n, 0.0, 1.0);
        ASSERT_EQ(span.size(), n);
        got.insert(got.end(), span.begin(), span.end());
    }
    const auto coins = buf.chance(rng, 33, 0.3);
    Rng ref(kSeed);
    EXPECT_EQ(got, fillGaussians(ref, 13));
    EXPECT_EQ(std::vector<std::uint8_t>(coins.begin(), coins.end()),
              fillCoins(ref, 33, 0.3));
}

TEST(RngBuffer, MixSeedStreamsIndependentOfThreadCount)
{
    // The trial engine seeds stream i as mixSeed(root, i); buffered
    // draws inside a parallelMap must give bit-identical results at
    // any thread count (scheduling never touches the streams).
    constexpr std::size_t kTrials = 32;
    constexpr std::size_t kDraws = 101;

    const auto run = [](unsigned threads) {
        parallel::setThreads(threads);
        return parallel::parallelMap(kTrials, [](std::size_t i) {
            Rng rng(mixSeed(kSeed, i));
            RngBuffer buf;
            const auto span = buf.gaussian(rng, kDraws, 0.0, 1.0);
            return std::vector<double>(span.begin(), span.end());
        });
    };

    const auto serial = run(1);
    for (const unsigned threads : {2u, 8u}) {
        const auto par = run(threads);
        ASSERT_EQ(par.size(), serial.size()) << threads << " threads";
        for (std::size_t i = 0; i < kTrials; ++i)
            EXPECT_EQ(par[i], serial[i])
                << threads << " threads, trial " << i;
    }
    parallel::setThreads(0); // restore automatic resolution

    // And the serial run itself must equal direct scalar draws.
    for (std::size_t i = 0; i < kTrials; ++i) {
        Rng rng(mixSeed(kSeed, i));
        for (std::size_t d = 0; d < kDraws; ++d)
            EXPECT_EQ(serial[i][d], rng.gaussian(0.0, 1.0))
                << "trial " << i << " draw " << d;
    }
}
