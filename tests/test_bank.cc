/**
 * @file
 * White-box tests of the bank state machine and analog model: normal
 * activation, interrupted activation (Frac), multi-row activation,
 * row copy, leakage, the timing-checker vendors, and the bounded-noise
 * sensing that full activations and refreshes share.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "common/simd/ops_draw.hh"
#include "common/stats.hh"
#include "sim/chip.hh"
#include "sim/sense.hh"

using namespace fracdram;
using namespace fracdram::sim;

namespace
{

DramParams
smallParams()
{
    DramParams p;
    p.numBanks = 2;
    p.subarraysPerBank = 2;
    p.rowsPerSubarray = 32;
    p.colsPerRow = 256;
    return p;
}

/** Write a full row (voltage domain) through the command interface. */
void
writeRowHigh(DramChip &chip, Cycles &t, BankAddr bank, RowAddr row,
             bool high)
{
    BitVector bits(chip.dramParams().colsPerRow,
                   high ^ chip.rowIsAnti(bank, row));
    chip.act(t, bank, row);
    t += 6;
    chip.write(t, bank, bits);
    t += 10;
    chip.pre(t, bank);
    t += 6;
}

double
meanVoltage(DramChip &chip, BankAddr bank, RowAddr row)
{
    OnlineStats s;
    for (ColAddr c = 0; c < chip.dramParams().colsPerRow; ++c)
        s.add(chip.bank(bank).cellVoltage(row, c));
    return s.mean();
}

} // namespace

class BankTest : public ::testing::Test
{
  protected:
    DramChip chip{DramGroup::B, 1, smallParams()};
    Cycles t = 100;
};

TEST_F(BankTest, WriteSetsFullRails)
{
    writeRowHigh(chip, t, 0, 4, true);
    for (ColAddr c = 0; c < 16; ++c)
        EXPECT_DOUBLE_EQ(chip.bank(0).cellVoltage(4, c), 1.5);
    writeRowHigh(chip, t, 0, 4, false);
    for (ColAddr c = 0; c < 16; ++c)
        EXPECT_DOUBLE_EQ(chip.bank(0).cellVoltage(4, c), 0.0);
}

TEST_F(BankTest, NormalActivationRestoresAndReads)
{
    writeRowHigh(chip, t, 0, 4, true);
    chip.act(t, 0, 4);
    t += 6;
    const BitVector data = chip.read(t, 0);
    t += 8; // close at tRAS so the restore completes
    chip.pre(t, 0);
    t += 6;
    // Row 4 is a true-cell row: high voltage reads as logic one.
    EXPECT_DOUBLE_EQ(data.hammingWeight(), 1.0);
    // The activation restored the full level.
    EXPECT_DOUBLE_EQ(chip.bank(0).cellVoltage(4, 0), 1.5);
}

TEST_F(BankTest, InterruptedActivationStoresFractionalValue)
{
    writeRowHigh(chip, t, 0, 4, true);
    // Frac: ACT then PRE back-to-back.
    chip.pre(t, 0);
    t += 5;
    chip.act(t, 0, 4);
    chip.pre(t + 1, 0);
    t += 10;
    chip.flushAll(t);
    const double mean = meanVoltage(chip, 0, 4);
    EXPECT_LT(mean, 1.45);
    EXPECT_GT(mean, 0.75);
}

TEST_F(BankTest, RepeatedFracConvergesTowardHalfVdd)
{
    writeRowHigh(chip, t, 0, 4, true);
    double prev = meanVoltage(chip, 0, 4);
    for (int i = 0; i < 5; ++i) {
        chip.pre(t, 0);
        t += 5;
        chip.act(t, 0, 4);
        chip.pre(t + 1, 0);
        t += 10;
        chip.flushAll(t);
        const double mean = meanVoltage(chip, 0, 4);
        EXPECT_LT(mean, prev) << "iteration " << i;
        EXPECT_GT(mean, 0.75);
        prev = mean;
    }
    // Five Fracs get the fast cells close to V_dd/2; slow cells keep
    // the row average above it.
    EXPECT_LT(prev, 1.2);
}

TEST_F(BankTest, FracFromZerosApproachesFromBelow)
{
    writeRowHigh(chip, t, 0, 4, false);
    for (int i = 0; i < 3; ++i) {
        chip.pre(t, 0);
        t += 5;
        chip.act(t, 0, 4);
        chip.pre(t + 1, 0);
        t += 10;
    }
    chip.flushAll(t);
    const double mean = meanVoltage(chip, 0, 4);
    EXPECT_GT(mean, 0.05);
    EXPECT_LT(mean, 0.75);
}

TEST_F(BankTest, PerCellFracMonotonicity)
{
    // Voltage of every individual cell decreases monotonically with
    // more Fracs (initial value all ones) - the property behind the
    // paper's Fig. 6 category 2.
    writeRowHigh(chip, t, 0, 4, true);
    std::vector<double> prev(16);
    for (ColAddr c = 0; c < 16; ++c)
        prev[c] = chip.bank(0).cellVoltage(4, c);
    for (int i = 0; i < 4; ++i) {
        chip.pre(t, 0);
        t += 5;
        chip.act(t, 0, 4);
        chip.pre(t + 1, 0);
        t += 10;
        chip.flushAll(t);
        for (ColAddr c = 0; c < 16; ++c) {
            const double v = chip.bank(0).cellVoltage(4, c);
            EXPECT_LE(v, prev[c] + 0.01) << "col " << c;
            // Cells settle toward V_dd/2 plus their own (small)
            // equilibrium offset.
            EXPECT_GE(v, 0.75 - 4.0 *
                             chip.profile().cellFracOffsetSigma);
            prev[c] = v;
        }
    }
}

TEST_F(BankTest, MultiRowActivationComputesSharedResult)
{
    // Rows {0,1,2} open together on group B; all-ones operands give
    // an all-high result restored in every opened row.
    for (const RowAddr r : {0u, 1u, 2u})
        writeRowHigh(chip, t, 0, r, true);
    chip.pre(t, 0);
    t += 5;
    chip.act(t, 0, 1);
    chip.pre(t + 1, 0);
    chip.act(t + 2, 0, 2);
    t += 12;
    chip.flushAll(t);
    for (const RowAddr r : {0u, 1u, 2u})
        EXPECT_GT(meanVoltage(chip, 0, r), 1.45) << "row " << r;
}

TEST_F(BankTest, InterruptedMultiRowLeavesFractionalCells)
{
    // Half-m with two high and two low rows: opened cells end away
    // from the rails.
    writeRowHigh(chip, t, 0, 8, true);  // R1
    writeRowHigh(chip, t, 0, 0, true);  // R3
    writeRowHigh(chip, t, 0, 1, false); // R2
    writeRowHigh(chip, t, 0, 9, false); // R4
    chip.pre(t, 0);
    t += 5;
    chip.act(t, 0, 8);
    chip.pre(t + 1, 0);
    chip.act(t + 2, 0, 1);
    chip.pre(t + 3, 0);
    t += 12;
    chip.flushAll(t);
    // Rows stay between the rails on average.
    const double v0 = meanVoltage(chip, 0, 0);
    EXPECT_GT(v0, 0.05);
    EXPECT_LT(v0, 1.45);
}

TEST_F(BankTest, RowCopy)
{
    // Copy row 20 (all high) -> row 21 (all low). The pair differs in
    // one bit, so the second ACT reconnects both rows to the
    // still-driven bit-lines and row 21 latches row 20's data.
    writeRowHigh(chip, t, 0, 20, true);
    writeRowHigh(chip, t, 0, 21, false);
    chip.pre(t, 0);
    t += 5;
    chip.act(t, 0, 20);
    t += 4; // let the sense amps latch
    chip.pre(t, 0);
    chip.act(t + 1, 0, 21); // 20^21=1: opens {20,21}, copies into 21
    t += 3;
    chip.pre(t, 0);
    t += 6;
    chip.flushAll(t);
    EXPECT_GT(meanVoltage(chip, 0, 21), 1.45);
}

TEST_F(BankTest, LeakageDischargesCells)
{
    writeRowHigh(chip, t, 0, 4, true);
    const double before = meanVoltage(chip, 0, 4);
    chip.advanceTime(3600.0 * 3000.0); // far beyond the tau median
    const double after = meanVoltage(chip, 0, 4);
    EXPECT_LT(after, before * 0.7);
}

TEST_F(BankTest, RefreshRestoresLeakedCells)
{
    writeRowHigh(chip, t, 0, 4, true);
    chip.advanceTime(600.0); // well within retention for most cells
    chip.refresh(t);
    // Most cells should be back at full level.
    OnlineStats s;
    for (ColAddr c = 0; c < chip.dramParams().colsPerRow; ++c)
        s.add(chip.bank(0).cellVoltage(4, c));
    EXPECT_GT(s.mean(), 1.4);
}

TEST_F(BankTest, RefreshDestroysFractionalValues)
{
    writeRowHigh(chip, t, 0, 4, true);
    for (int i = 0; i < 3; ++i) {
        chip.pre(t, 0);
        t += 5;
        chip.act(t, 0, 4);
        chip.pre(t + 1, 0);
        t += 10;
    }
    chip.flushAll(t);
    ASSERT_LT(meanVoltage(chip, 0, 4), 1.2);
    chip.refresh(t);
    // Every cell snapped back to a rail.
    for (ColAddr c = 0; c < 32; ++c) {
        const double v = chip.bank(0).cellVoltage(4, c);
        EXPECT_TRUE(v < 0.01 || v > 1.49) << "col " << c << " v=" << v;
    }
}

TEST_F(BankTest, AntiRowsStoreComplementVoltage)
{
    // Row 5 is odd -> anti cells: logic one is stored as 0 V.
    BitVector ones(chip.dramParams().colsPerRow, true);
    chip.act(t, 0, 5);
    t += 6;
    chip.write(t, 0, ones);
    t += 10;
    chip.pre(t, 0);
    t += 6;
    EXPECT_DOUBLE_EQ(chip.bank(0).cellVoltage(5, 0), 0.0);
    // And reads back as logic one.
    chip.act(t, 0, 5);
    t += 6;
    const BitVector data = chip.read(t, 0);
    EXPECT_TRUE(data.get(0));
}

TEST(BankChecker, TimingCheckerDropsFrac)
{
    DramChip chip(DramGroup::J, 1, smallParams());
    Cycles t = 100;
    writeRowHigh(chip, t, 0, 4, true);
    // Attempt a Frac: the PRE is dropped (tRAS unmet), the activation
    // completes normally, the cells stay at full level.
    chip.pre(t, 0);
    t += 5;
    chip.act(t, 0, 4);
    chip.pre(t + 1, 0); // dropped
    t += 30;
    chip.pre(t, 0); // legal close (tRAS satisfied)
    t += 6;
    chip.flushAll(t);
    EXPECT_DOUBLE_EQ(chip.bank(0).cellVoltage(4, 0), 1.5);
}

TEST(BankChecker, TimingCheckerBlocksMultiRow)
{
    DramChip chip(DramGroup::J, 1, smallParams());
    Cycles t = 100;
    writeRowHigh(chip, t, 0, 1, true);
    writeRowHigh(chip, t, 0, 2, false);
    chip.pre(t, 0);
    t += 5;
    chip.act(t, 0, 1);
    chip.pre(t + 1, 0);    // dropped
    chip.act(t + 2, 0, 2); // dropped (bank still open)
    t += 30;
    chip.pre(t, 0);
    t += 6;
    chip.flushAll(t);
    // Nothing shared: both rows keep their data.
    EXPECT_GT(meanVoltage(chip, 0, 1), 1.45);
    EXPECT_LT(meanVoltage(chip, 0, 2), 0.05);
}

TEST_F(BankTest, DiscardRowForgetsState)
{
    writeRowHigh(chip, t, 0, 4, true);
    EXPECT_TRUE(chip.bank(0).rowAllocated(4));
    chip.bank(0).discardRow(4);
    EXPECT_FALSE(chip.bank(0).rowAllocated(4));
}

TEST_F(BankTest, StartupContentIsMixed)
{
    // Never-written rows power up with arbitrary (but deterministic)
    // data.
    OnlineStats s;
    for (ColAddr c = 0; c < chip.dramParams().colsPerRow; ++c)
        s.add(chip.bank(1).cellVoltage(30, c));
    EXPECT_GT(s.mean(), 0.3);
    EXPECT_LT(s.mean(), 1.2);
}

TEST_F(BankTest, RestoreTruncationLeavesPartialCharge)
{
    // Closing a row before tRAS freezes a partial restore level
    // (refs [17,18] of the paper); a full-tRAS close restores fully.
    writeRowHigh(chip, t, 0, 4, true);
    chip.act(t, 0, 4);
    chip.pre(t + 6, 0); // well before fullRestoreCycles (14)
    t += 20;
    chip.flushAll(t);
    const double truncated = meanVoltage(chip, 0, 4);
    EXPECT_GT(truncated, 0.8);
    EXPECT_LT(truncated, 1.45);

    chip.act(t, 0, 4);
    chip.pre(t + 14, 0); // exactly tRAS
    t += 30;
    chip.flushAll(t);
    EXPECT_GT(meanVoltage(chip, 0, 4), 1.45);
}

TEST_F(BankTest, RestoreTruncationMonotoneInOpenTime)
{
    writeRowHigh(chip, t, 0, 4, true);
    double prev = 0.0;
    for (const Cycles open_for : {4u, 6u, 9u, 12u, 14u}) {
        chip.act(t, 0, 4);
        chip.pre(t + open_for, 0);
        t += open_for + 20;
        chip.flushAll(t);
        const double v = meanVoltage(chip, 0, 4);
        EXPECT_GE(v, prev - 1e-9) << "open for " << open_for;
        prev = v;
    }
    EXPECT_GT(prev, 1.45); // full restore at tRAS
}

TEST(BankStreams, WriteResolvedActivationAdvancesLikeSensing)
{
    // An ACT that a WRITE resolves skips its sensing draws (leakage
    // coins, jitter, sense noise) by counter adds; an ACT sensed by a
    // READ first draws them. Afterwards both chips must sit at the
    // same RNG counters, so the same Frac gives identical voltages.
    DramParams p = smallParams();
    p.colsPerRow = 2048; // ~10 VRT cells a row: leakage draws coins
    DramChip skipped{DramGroup::B, 1, p};
    DramChip sensed{DramGroup::B, 1, p};
    Cycles ts = 100, tl = 100;
    writeRowHigh(skipped, ts, 0, 4, true);
    writeRowHigh(sensed, tl, 0, 4, true);
    skipped.advanceTime(60.0);
    sensed.advanceTime(60.0);

    writeRowHigh(skipped, ts, 0, 4, false);
    const BitVector zeros(p.colsPerRow, sensed.rowIsAnti(0, 4));
    sensed.act(tl, 0, 4);
    tl += 6;
    (void)sensed.read(tl, 0);
    sensed.write(tl, 0, zeros);
    tl += 10;
    sensed.pre(tl, 0);
    tl += 6;

    for (auto [chip, t] : {std::pair{&skipped, &ts}, {&sensed, &tl}}) {
        writeRowHigh(*chip, *t, 0, 5, true);
        chip->advanceTime(60.0); // the Frac's leakage draws VRT coins
        chip->pre(*t, 0);
        *t += 5;
        chip->act(*t, 0, 5);
        chip->pre(*t + 1, 0);
        *t += 10;
        chip->flushAll(*t);
    }
    for (ColAddr c = 0; c < p.colsPerRow; ++c) {
        ASSERT_EQ(skipped.bank(0).cellVoltage(4, c),
                  sensed.bank(0).cellVoltage(4, c))
            << "col " << c;
        ASSERT_EQ(skipped.bank(0).cellVoltage(5, c),
                  sensed.bank(0).cellVoltage(5, c))
            << "col " << c;
    }
}

namespace
{

/**
 * The dense sensing noisySense replaces: fill one noise draw per
 * column, then compare every column.
 */
std::vector<std::uint8_t>
denseSense(const std::vector<double> &eq, const std::vector<float> &sa,
           double half, double sigma, Rng &rng)
{
    std::vector<double> noise(eq.size());
    rng.fillGaussian(noise, 0.0, sigma);
    std::vector<std::uint8_t> dec(eq.size());
    for (std::size_t i = 0; i < eq.size(); ++i)
        dec[i] = (eq[i] - half) > sa[i] + noise[i] ? 1 : 0;
    return dec;
}

/** Runs noisySense and the dense path on twin streams and compares. */
class SenseTwins
{
  public:
    explicit SenseTwins(std::uint64_t seed) : bounded_(seed), dense_(seed)
    {
    }

    /** Both streams advance by @p n gaussians (odd n misaligns pairs). */
    void skip(std::size_t n)
    {
        bounded_.skipGaussians(n);
        dense_.skipGaussians(n);
    }

    /** Noise draw @p c of the next row, as the dense path sees it. */
    double peek(std::size_t c, double sigma) const
    {
        return sigma * simd::draw::gaussian(dense_.key(),
                                            dense_.gaussianIndex() + c);
    }

    /** Sense one row both ways; true when they agree everywhere. */
    ::testing::AssertionResult
    agree(const std::vector<double> &eq, const std::vector<float> &sa,
          double half, double sigma)
    {
        const std::uint64_t before = bounded_.gaussianIndex();
        std::vector<std::uint8_t> got(eq.size(), 0xcc);
        draws_ = sim::noisySense(got.data(), eq.data(), sa.data(), half,
                                 sigma, bounded_, eq.size());
        const auto want = denseSense(eq, sa, half, sigma, dense_);
        if (bounded_.gaussianIndex() != before + eq.size())
            return ::testing::AssertionFailure()
                   << "counter moved by "
                   << bounded_.gaussianIndex() - before << ", not "
                   << eq.size();
        for (std::size_t i = 0; i < eq.size(); ++i)
            if (got[i] != want[i])
                return ::testing::AssertionFailure()
                       << "column " << i << ": bounded " << int(got[i])
                       << ", dense " << int(want[i]) << " (d - sa = "
                       << (eq[i] - half) - sa[i] << ")";
        return ::testing::AssertionSuccess();
    }

    /** Gaussians the last agree() evaluated. */
    std::size_t draws() const { return draws_; }

    /** Gaussian counter of both streams. */
    std::uint64_t index() const { return dense_.gaussianIndex(); }

  private:
    Rng bounded_, dense_;
    std::size_t draws_ = 0;
};

/** Deltas d = eq - half spread over +-spread around the offsets. */
void
randomRow(std::mt19937_64 &gen, std::size_t n, double half,
          double spread, std::vector<double> &eq, std::vector<float> &sa)
{
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    eq.resize(n);
    sa.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        sa[i] = static_cast<float>(0.01 * u(gen));
        eq[i] = half + sa[i] + spread * u(gen);
    }
}

} // namespace

TEST(BoundedSense, MatchesDenseOnRandomRows)
{
    std::mt19937_64 gen(11);
    SenseTwins twins(0xb0u);
    std::vector<double> eq;
    std::vector<float> sa;
    for (const double sigma : {0.004, 0.01, 0.05}) {
        for (const double spread : {0.01, 0.1, 1.0}) {
            // Sizes around noisySense's 1024-column blocks too.
            for (const std::size_t n :
                 {1, 15, 16, 17, 1023, 1024, 1025, 2048, 3001}) {
                randomRow(gen, n, 0.6, spread, eq, sa);
                EXPECT_TRUE(twins.agree(eq, sa, 0.6, sigma))
                    << "sigma " << sigma << " spread " << spread
                    << " n " << n;
                twins.skip(n % 3); // vary the pair alignment
            }
        }
    }
}

TEST(BoundedSense, OnlyMarginalPairsAreDrawn)
{
    // A row whose deltas all sit far outside the noise draws nothing;
    // one marginal column costs one pair.
    SenseTwins twins(7);
    const double sigma = 0.01;
    std::vector<double> eq(2048);
    std::vector<float> sa(2048, 0.0f);
    for (std::size_t i = 0; i < eq.size(); ++i)
        eq[i] = (i & 1) ? 0.2 : -0.2;
    EXPECT_TRUE(twins.agree(eq, sa, 0.0, sigma));
    EXPECT_EQ(twins.draws(), 0u);
    eq[1000] = 0.0;
    EXPECT_TRUE(twins.agree(eq, sa, 0.0, sigma));
    EXPECT_EQ(twins.draws(), 2u);
}

TEST(BoundedSense, ColumnsAtTheBound)
{
    // Deltas at sa +- the noise reach, and a few ulps either side of
    // it, on both pair alignments.
    const double sigma = 0.02;
    const double reach = sigma * simd::draw::kGaussianMax;
    SenseTwins twins(3);
    std::vector<double> eq;
    std::vector<float> sa;
    std::mt19937_64 gen(5);
    std::uniform_real_distribution<double> u(-0.01, 0.01);
    for (int row = 0; row < 4; ++row) {
        eq.clear();
        sa.clear();
        for (const double sign : {1.0, -1.0}) {
            for (int ulps = -4; ulps <= 4; ++ulps) {
                const float s = static_cast<float>(u(gen));
                double d = s + sign * reach;
                for (int k = 0; k < std::abs(ulps); ++k)
                    d = std::nextafter(d, ulps > 0 ? 1.0 : -1.0);
                sa.push_back(s);
                eq.push_back(d); // half = 0: eq is the delta
            }
        }
        EXPECT_TRUE(twins.agree(eq, sa, 0.0, sigma)) << "row " << row;
        twins.skip(1);
    }
}

TEST(BoundedSense, ColumnsOnTheirOwnNoise)
{
    // Every delta sits on the knife edge of its own noise draw,
    // sa + noise, or up to two ulps off it, so each decision turns on
    // the exact draw. Sixteen rows in a row, then the row holding the
    // widest of the next 4 Mi draws at every offset: a bound that cuts
    // into the range the draws reach (beyond 5 sigma there) fails.
    const double sigma = 0.03;
    const std::uint64_t seed = 0xed9e;
    std::vector<double> eq(4096);
    std::vector<float> sa(4096);
    std::mt19937_64 gen(9);
    std::uniform_real_distribution<double> u(-0.01, 0.01);
    auto knife_row = [&](SenseTwins &twins, std::size_t phase) {
        for (std::size_t c = 0; c < eq.size(); ++c) {
            sa[c] = static_cast<float>(u(gen));
            double d = sa[c] + twins.peek(c, sigma);
            const int ulps = static_cast<int>((c + phase) % 5) - 2;
            for (int k = 0; k < std::abs(ulps); ++k)
                d = std::nextafter(d, ulps > 0 ? 1.0 : -1.0);
            eq[c] = d;
        }
        return twins.agree(eq, sa, 0.0, sigma);
    };
    SenseTwins twins(seed);
    for (int row = 0; row < 16; ++row) {
        ASSERT_TRUE(knife_row(twins, 0)) << "row " << row;
        twins.skip(row & 1);
    }

    Rng scan(seed);
    const std::uint64_t from = twins.index();
    scan.skipGaussians(from);
    std::vector<double> chunk(std::size_t{1} << 16);
    std::uint64_t widest_at = 0;
    double widest = 0.0;
    for (std::uint64_t k = 0; k < 64; ++k) {
        scan.fillGaussian(chunk, 0.0, 1.0);
        for (std::size_t i = 0; i < chunk.size(); ++i)
            if (std::fabs(chunk[i]) > widest) {
                widest = std::fabs(chunk[i]);
                widest_at = from + k * chunk.size() + i;
            }
    }
    ASSERT_GT(widest, 5.0);
    for (std::size_t phase = 0; phase < 5; ++phase) {
        SenseTwins at(seed);
        at.skip(widest_at - widest_at % eq.size());
        EXPECT_TRUE(knife_row(at, phase))
            << "row with the " << widest << " sigma draw, phase "
            << phase;
    }
}

TEST(BoundedSense, ZeroSigmaDrawsNothing)
{
    std::mt19937_64 gen(13);
    SenseTwins twins(21);
    std::vector<double> eq;
    std::vector<float> sa;
    randomRow(gen, 2048, 0.5, 0.01, eq, sa);
    eq[3] = 0.5 + sa[3]; // exactly on the offset: decides 0
    EXPECT_TRUE(twins.agree(eq, sa, 0.5, 0.0));
    EXPECT_EQ(twins.draws(), 0u);
}
