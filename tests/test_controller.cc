/**
 * @file
 * Unit tests for the SoftMC-style memory controller: host helpers,
 * voltage-domain conversion, cycle accounting, spec enforcement.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/frac_op.hh"
#include "sim/chip.hh"
#include "softmc/controller.hh"
#include "telemetry/metrics.hh"

using namespace fracdram;
using namespace fracdram::sim;
using namespace fracdram::softmc;

namespace
{

DramParams
tinyParams()
{
    DramParams p;
    p.numBanks = 2;
    p.subarraysPerBank = 1;
    p.rowsPerSubarray = 16;
    p.colsPerRow = 128;
    return p;
}

BitVector
randomBits(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    BitVector v(n);
    for (std::size_t i = 0; i < n; ++i)
        v.set(i, rng.chance(0.5));
    return v;
}

} // namespace

class ControllerTest : public ::testing::Test
{
  protected:
    DramChip chip{DramGroup::B, 1, tinyParams()};
    MemoryController mc{chip, false};
};

TEST_F(ControllerTest, WriteReadRoundTrip)
{
    const auto data = randomBits(128, 1);
    mc.writeRow(0, 4, data);
    EXPECT_TRUE(mc.readRow(0, 4) == data);
}

TEST_F(ControllerTest, WriteReadRoundTripAntiRow)
{
    const auto data = randomBits(128, 2);
    mc.writeRow(0, 5, data); // odd row: anti cells
    EXPECT_TRUE(mc.readRow(0, 5) == data);
}

TEST_F(ControllerTest, VoltageDomainHelpers)
{
    mc.fillRowVoltage(0, 5, true); // anti row, physically high
    EXPECT_DOUBLE_EQ(chip.bank(0).cellVoltage(5, 0), 1.5);
    const auto v = mc.readRowVoltage(0, 5);
    EXPECT_DOUBLE_EQ(v.hammingWeight(), 1.0);
    // Logic view is complemented on an anti row.
    EXPECT_DOUBLE_EQ(mc.readRow(0, 5).hammingWeight(), 0.0);
}

TEST_F(ControllerTest, ToVoltageDomainIdentityOnTrueRows)
{
    const auto data = randomBits(128, 3);
    EXPECT_TRUE(mc.toVoltageDomain(0, 4, data) == data);
    EXPECT_FALSE(mc.toVoltageDomain(0, 5, data) == data);
}

TEST_F(ControllerTest, AccountantChargesLabels)
{
    // The controller keeps one total; telemetry splits it per label.
    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(true);
    const auto counter = [](const char *name) -> std::uint64_t {
        const auto snap = telemetry::Metrics::instance().snapshot();
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0 : it->second;
    };
    const auto write0 = counter("softmc.cycles.writeRow");
    const auto read0 = counter("softmc.cycles.readRow");
    mc.writeRow(0, 1, randomBits(128, 4));
    mc.readRow(0, 1);
    mc.readRow(0, 1);
    telemetry::setEnabled(was_enabled);

    const auto write_cycles = counter("softmc.cycles.writeRow") - write0;
    const auto read_cycles = counter("softmc.cycles.readRow") - read0;
    EXPECT_GT(write_cycles, 0u);
    EXPECT_GT(read_cycles, 2 * mc.readRowCycles()); // bursts + ACT/PRE
    EXPECT_EQ(mc.sequenceCycles(), write_cycles + read_cycles);
    // The clock also counts the settle margin after each sequence.
    EXPECT_LT(mc.sequenceCycles(), mc.nowCycles());
}

TEST_F(ControllerTest, ClockAdvancesMonotonically)
{
    const auto t0 = mc.nowCycles();
    mc.readRow(0, 1);
    const auto t1 = mc.nowCycles();
    EXPECT_GT(t1, t0);
    mc.readRow(0, 1);
    EXPECT_GT(mc.nowCycles(), t1);
}

TEST_F(ControllerTest, SimulatedTimeFollowsCycles)
{
    const Seconds before = chip.now();
    mc.readRow(0, 1);
    const Seconds after = chip.now();
    // 2.5 ns per cycle.
    EXPECT_NEAR(after - before,
                static_cast<double>(mc.nowCycles()) * 2.5e-9, 1e-12);
}

TEST_F(ControllerTest, WaitSecondsAdvancesTime)
{
    mc.waitSeconds(12.5);
    EXPECT_DOUBLE_EQ(chip.now(), 12.5);
}

TEST_F(ControllerTest, RefreshAllPreservesData)
{
    const auto data = randomBits(128, 5);
    mc.writeRow(0, 2, data);
    mc.refreshAll();
    EXPECT_TRUE(mc.readRow(0, 2) == data);
}

TEST_F(ControllerTest, ReadRowCyclesScalesWithWidth)
{
    // 128 cols -> one burst.
    EXPECT_EQ(mc.readRowCycles(), mc.cyclesPerBurst());
    mc.setCyclesPerBurst(2);
    EXPECT_EQ(mc.readRowCycles(), 2u);
}

TEST(ControllerEnforced, HelpersAreJedecCompliant)
{
    DramChip chip(DramGroup::B, 1, tinyParams());
    MemoryController mc(chip, /*enforce_spec=*/true);
    const auto data = randomBits(128, 6);
    mc.writeRow(0, 3, data); // must not fatal
    EXPECT_TRUE(mc.readRow(0, 3) == data);
    mc.refreshAll();
}

TEST(ControllerEnforced, FracRefusedUnderEnforcement)
{
    DramChip chip(DramGroup::B, 1, tinyParams());
    MemoryController mc(chip, /*enforce_spec=*/true);
    EXPECT_DEATH(core::frac(mc, 0, 1, 1), "JEDEC");
}

TEST(ControllerEnforced, RawViolatingSequenceRefused)
{
    DramChip chip(DramGroup::B, 1, tinyParams());
    MemoryController mc(chip, /*enforce_spec=*/true);
    CommandSequence seq;
    seq.act(0, 1).pre(0); // violates tRAS
    EXPECT_DEATH(mc.execute(seq, "bad"), "violates JEDEC");
}

