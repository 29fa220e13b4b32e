/**
 * @file
 * Unit tests for the JEDEC timing checker: compliant flows pass, and
 * each FracDRAM primitive is flagged with the violation it relies on.
 */

#include <gtest/gtest.h>

#include "core/frac_op.hh"
#include "core/multi_row.hh"
#include "core/rowclone.hh"
#include "common/rng.hh"
#include "softmc/timing.hh"

using namespace fracdram;
using namespace fracdram::softmc;

namespace
{

bool
hasViolation(const std::vector<TimingViolation> &v, const char *what)
{
    for (const auto &x : v)
        if (x.what.find(what) != std::string::npos)
            return true;
    return false;
}

} // namespace

TEST(TimingSpec, CompliantReadFlowPasses)
{
    const TimingSpec spec = TimingSpec::ddr3();
    CommandSequence seq;
    seq.act(0, 3);
    seq.idle(spec.tRcd - 1);
    seq.read(0);
    seq.idle(spec.tRas); // generous
    seq.pre(0);
    seq.idle(spec.tRp);
    EXPECT_TRUE(spec.check(seq, 8).empty());
}

TEST(TimingSpec, FracSequenceViolatesTRas)
{
    const TimingSpec spec = TimingSpec::ddr3();
    const auto seq = core::buildFracSequence(0, 3, 1);
    const auto v = spec.check(seq, 8);
    EXPECT_FALSE(v.empty());
    EXPECT_TRUE(hasViolation(v, "tRAS"));
}

TEST(TimingSpec, MultiRowSequenceViolatesTRasAndTRp)
{
    const TimingSpec spec = TimingSpec::ddr3();
    const auto seq = core::buildMultiRowSequence(0, 1, 2, false);
    const auto v = spec.check(seq, 8);
    EXPECT_TRUE(hasViolation(v, "tRAS"));
    EXPECT_TRUE(hasViolation(v, "tRP"));
}

TEST(TimingSpec, RowCopySequenceViolatesTiming)
{
    const TimingSpec spec = TimingSpec::ddr3();
    const auto seq = core::buildRowCopySequence(0, 10, 11);
    EXPECT_FALSE(spec.check(seq, 8).empty());
}

TEST(TimingSpec, ActOnOpenBankFlagged)
{
    const TimingSpec spec = TimingSpec::ddr3();
    CommandSequence seq;
    seq.act(0, 1);
    seq.idle(30);
    seq.act(0, 2); // no PRE in between
    const auto v = spec.check(seq, 8);
    EXPECT_TRUE(hasViolation(v, "open bank"));
}

TEST(TimingSpec, ReadOnClosedBankFlagged)
{
    const TimingSpec spec = TimingSpec::ddr3();
    CommandSequence seq;
    seq.read(2);
    EXPECT_TRUE(hasViolation(spec.check(seq, 8), "closed bank"));
}

TEST(TimingSpec, EarlyReadViolatesTRcd)
{
    const TimingSpec spec = TimingSpec::ddr3();
    CommandSequence seq;
    seq.act(0, 1);
    seq.read(0); // one cycle after ACT
    EXPECT_TRUE(hasViolation(spec.check(seq, 8), "tRCD"));
}

TEST(TimingSpec, BadBankFlagged)
{
    const TimingSpec spec = TimingSpec::ddr3();
    CommandSequence seq;
    seq.act(9, 1);
    EXPECT_TRUE(hasViolation(spec.check(seq, 8), "bad bank"));
}

TEST(TimingSpec, RefreshWithOpenBankFlagged)
{
    const TimingSpec spec = TimingSpec::ddr3();
    CommandSequence seq;
    seq.act(0, 1);
    seq.idle(30);
    seq.refresh();
    EXPECT_TRUE(hasViolation(spec.check(seq, 8), "REFRESH"));
}

TEST(TimingSpec, BackToBackActsOnDifferentBanksViolateTRrd)
{
    const TimingSpec spec = TimingSpec::ddr3();
    CommandSequence seq;
    seq.act(0, 1);
    seq.act(1, 1);
    EXPECT_TRUE(hasViolation(spec.check(seq, 8), "tRRD"));
}

TEST(TimingSpec, CountMatchesCheck)
{
    // countViolations skips the messages but must count exactly the
    // violations check() lists, on random command soups.
    const TimingSpec spec = TimingSpec::ddr3();
    Rng rng(17);
    for (int trial = 0; trial < 500; ++trial) {
        CommandSequence seq;
        const int len = 1 + static_cast<int>(rng.below(12));
        for (int i = 0; i < len; ++i) {
            const auto bank = static_cast<BankAddr>(rng.below(10));
            switch (rng.below(6)) {
              case 0: seq.act(bank, 1); break;
              case 1: seq.pre(bank); break;
              case 2: seq.preAll(); break;
              case 3: seq.read(bank); break;
              case 4: seq.write(bank, BitVector(8)); break;
              default: seq.refresh(); break;
            }
            seq.idle(rng.below(30));
        }
        EXPECT_EQ(spec.countViolations(seq, 8), spec.check(seq, 8).size())
            << "trial " << trial;
    }
}
