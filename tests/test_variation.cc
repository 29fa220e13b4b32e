/**
 * @file
 * Unit tests for the deterministic process-variation map.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "sim/variation.hh"
#include "sim/vendor.hh"

using namespace fracdram;
using namespace fracdram::sim;

namespace
{

const VendorProfile &profileB()
{
    return vendorProfile(DramGroup::B);
}

} // namespace

TEST(VariationMap, Deterministic)
{
    VariationMap a(profileB(), 7), b(profileB(), 7);
    for (ColAddr c = 0; c < 50; ++c) {
        EXPECT_DOUBLE_EQ(a.cellAlpha(0, 3, c), b.cellAlpha(0, 3, c));
        EXPECT_DOUBLE_EQ(a.cellTau(0, 3, c), b.cellTau(0, 3, c));
        EXPECT_DOUBLE_EQ(a.saOffset(1, c), b.saOffset(1, c));
        EXPECT_EQ(a.startupBit(2, 5, c), b.startupBit(2, 5, c));
    }
}

TEST(VariationMap, MaterializeRowMatchesAccessors)
{
    // The row-wide fills and the per-cell accessors read the same
    // draws; an odd width covers the fills' scalar tails.
    VariationMap v(profileB(), 11);
    constexpr std::size_t kCols = 1001;
    std::vector<std::uint8_t> startup(kCols), vrt(kCols);
    std::vector<double> alpha(kCols), tau(kCols), coupling(kCols),
        frac_off(kCols);
    v.materializeRow(1, 6, kCols, startup.data(), alpha.data(),
                     tau.data(), coupling.data(), frac_off.data(),
                     vrt.data());
    for (ColAddr c = 0; c < kCols; ++c) {
        EXPECT_EQ(startup[c], v.startupBit(1, 6, c) ? 1 : 0) << c;
        EXPECT_EQ(alpha[c], v.cellAlpha(1, 6, c)) << c;
        EXPECT_EQ(tau[c], v.cellTau(1, 6, c)) << c;
        EXPECT_EQ(coupling[c], v.cellCoupling(1, 6, c)) << c;
        EXPECT_EQ(frac_off[c], v.cellFracOffset(1, 6, c)) << c;
        EXPECT_EQ(vrt[c], v.cellIsVrt(1, 6, c) ? 1 : 0) << c;
    }
}

TEST(VariationMap, DifferentSerialsDifferentSilicon)
{
    VariationMap a(profileB(), 1), b(profileB(), 2);
    int same = 0;
    const int n = 200;
    for (ColAddr c = 0; c < n; ++c)
        same += a.startupBit(0, 0, c) == b.startupBit(0, 0, c);
    // Independent fair bits agree about half the time.
    EXPECT_GT(same, n / 4);
    EXPECT_LT(same, 3 * n / 4);
}

TEST(VariationMap, AlphaInUnitInterval)
{
    VariationMap v(profileB(), 3);
    for (ColAddr c = 0; c < 500; ++c) {
        const double a = v.cellAlpha(0, 0, c);
        EXPECT_GT(a, 0.0);
        EXPECT_LT(a, 1.0);
    }
}

TEST(VariationMap, SlowCellFractionRoughlyMatchesProfile)
{
    VariationMap v(profileB(), 5);
    int slow = 0;
    const int n = 5000;
    for (ColAddr c = 0; c < n; ++c)
        slow += v.cellIsSlow(0, 0, c);
    EXPECT_NEAR(static_cast<double>(slow) / n,
                profileB().slowCellFraction, 0.03);
}

TEST(VariationMap, SlowCellsSettleSlowlyAndLeakSlowly)
{
    VariationMap v(profileB(), 11);
    OnlineStats slow_alpha, fast_alpha, slow_tau, fast_tau;
    for (ColAddr c = 0; c < 4000; ++c) {
        if (v.cellIsSlow(0, 0, c)) {
            slow_alpha.add(v.cellAlpha(0, 0, c));
            slow_tau.add(v.cellTau(0, 0, c));
        } else {
            fast_alpha.add(v.cellAlpha(0, 0, c));
            fast_tau.add(v.cellTau(0, 0, c));
        }
    }
    EXPECT_LT(slow_alpha.mean(), 0.1);
    EXPECT_GT(fast_alpha.mean(), 0.4);
    EXPECT_GT(slow_tau.mean(), fast_tau.mean());
}

TEST(VariationMap, SaOffsetMomentsMatchProfile)
{
    VariationMap v(profileB(), 13);
    OnlineStats s;
    for (ColAddr c = 0; c < 20000; ++c)
        s.add(v.saOffset(0, c));
    EXPECT_NEAR(s.mean(), profileB().saOffsetMean,
                3.0 * profileB().saOffsetSigma / std::sqrt(20000.0) +
                    1e-5);
    EXPECT_NEAR(s.stddev(), profileB().saOffsetSigma,
                0.1 * profileB().saOffsetSigma);
}

TEST(VariationMap, CouplingMedianNearOne)
{
    VariationMap v(profileB(), 17);
    int above = 0;
    const int n = 5000;
    for (ColAddr c = 0; c < n; ++c)
        above += v.cellCoupling(0, 1, c) > 1.0;
    EXPECT_NEAR(static_cast<double>(above) / n, 0.5, 0.03);
}

TEST(VariationMap, HalfCleanFraction)
{
    VariationMap v(profileB(), 19);
    int clean = 0;
    const int n = 10000;
    for (ColAddr c = 0; c < n; ++c)
        clean += v.halfMClean(0, c);
    EXPECT_NEAR(static_cast<double>(clean) / n,
                profileB().halfMCleanFraction, 0.02);
}

TEST(VariationMap, VrtRare)
{
    VariationMap v(profileB(), 23);
    int vrt = 0;
    const int n = 20000;
    for (ColAddr c = 0; c < n; ++c)
        vrt += v.cellIsVrt(0, 0, c);
    EXPECT_LT(static_cast<double>(vrt) / n,
              4.0 * profileB().vrtFraction + 1e-3);
}

TEST(VariationMap, TauMedianRoughlyMatchesProfile)
{
    VariationMap v(profileB(), 29);
    std::vector<double> taus;
    for (ColAddr c = 0; c < 4001; ++c) {
        if (!v.cellIsSlow(0, 0, c))
            taus.push_back(v.cellTau(0, 0, c));
    }
    std::nth_element(taus.begin(), taus.begin() + taus.size() / 2,
                     taus.end());
    const double median_h = taus[taus.size() / 2] / 3600.0;
    EXPECT_NEAR(median_h, profileB().tauMedianHours,
                0.2 * profileB().tauMedianHours);
}
