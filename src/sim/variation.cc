#include "sim/variation.hh"

#include <cmath>

namespace fracdram::sim
{

namespace
{

// Purpose tags keep the derived streams independent of each other.
enum Purpose : std::uint64_t
{
    kAlpha = 1,
    kSlow,
    kTau,
    kVrt,
    kLeaky,
    kCoupling,
    kFracOffset,
    kSaOffset,
    kHalfClean,
    kStartup,
};

} // namespace

VariationMap::VariationMap(const VendorProfile &profile,
                           std::uint64_t serial)
    : profile_(profile), serial_(serial),
      rootSeed_(mixSeed(0xf4acd4a3ULL,
                        mixSeed(static_cast<std::uint64_t>(profile.group),
                                serial)))
{
}

std::uint64_t
VariationMap::bankSeed(std::uint64_t purpose, BankAddr bank) const
{
    return mixSeed(mixSeed(rootSeed_, purpose), bank);
}

std::uint64_t
VariationMap::rowSeed(std::uint64_t purpose, BankAddr bank,
                      RowAddr row) const
{
    return mixSeed(bankSeed(purpose, bank), row);
}

bool
VariationMap::cellChance(std::uint64_t purpose, BankAddr bank,
                         RowAddr row, ColAddr col, double p) const
{
    Rng r(rowSeed(purpose, bank, row));
    r.skip(col);
    return r.chance(p);
}

double
VariationMap::cellGaussian(std::uint64_t purpose, BankAddr bank,
                           RowAddr row, ColAddr col, double sigma) const
{
    Rng r(rowSeed(purpose, bank, row));
    r.skipGaussians(col);
    return r.gaussian(0.0, sigma);
}

bool
VariationMap::cellIsSlow(BankAddr bank, RowAddr row, ColAddr col) const
{
    return cellChance(kSlow, bank, row, col, profile_.slowCellFraction);
}

double
VariationMap::cellAlpha(BankAddr bank, RowAddr row, ColAddr col) const
{
    // A stream of its own per cell: beta() draws a data-dependent
    // number of values.
    Rng r(mixSeed(rowSeed(kAlpha, bank, row), col));
    if (cellIsSlow(bank, row, col)) {
        // Slow access transistor: hardly connects within one cycle.
        return profile_.slowCellAlpha * (0.5 + r.uniform());
    }
    return r.beta(profile_.settleAlphaA, profile_.settleAlphaB);
}

Seconds
VariationMap::cellTau(BankAddr bank, RowAddr row, ColAddr col) const
{
    const double median_s = profile_.tauMedianHours * 3600.0;
    double tau = median_s * std::exp(cellGaussian(kTau, bank, row, col,
                                                  profile_.tauSigma));
    if (cellIsSlow(bank, row, col))
        tau *= profile_.slowCellTauBoost;
    if (cellIsLeaky(bank, row, col))
        tau *= profile_.leakyTauScale;
    return tau;
}

bool
VariationMap::cellIsLeaky(BankAddr bank, RowAddr row, ColAddr col) const
{
    return cellChance(kLeaky, bank, row, col,
                      profile_.leakyCellFraction);
}

bool
VariationMap::cellIsVrt(BankAddr bank, RowAddr row, ColAddr col) const
{
    return cellChance(kVrt, bank, row, col, profile_.vrtFraction);
}

double
VariationMap::cellCoupling(BankAddr bank, RowAddr row, ColAddr col) const
{
    // lognormal(0, sigma) = exp(0 + sigma * N(0, 1)).
    return std::exp(cellGaussian(kCoupling, bank, row, col,
                                 profile_.couplingSigma));
}

Volt
VariationMap::cellFracOffset(BankAddr bank, RowAddr row,
                             ColAddr col) const
{
    return cellGaussian(kFracOffset, bank, row, col,
                        profile_.cellFracOffsetSigma);
}

Volt
VariationMap::saOffset(BankAddr bank, ColAddr col) const
{
    Rng r(bankSeed(kSaOffset, bank));
    r.skipGaussians(col);
    return r.gaussian(profile_.saOffsetMean, profile_.saOffsetSigma);
}

bool
VariationMap::halfMClean(BankAddr bank, ColAddr col) const
{
    Rng r(bankSeed(kHalfClean, bank));
    r.skip(col);
    return r.chance(profile_.halfMCleanFraction);
}

bool
VariationMap::startupBit(BankAddr bank, RowAddr row, ColAddr col) const
{
    return cellChance(kStartup, bank, row, col, 0.5);
}

void
VariationMap::materializeRow(BankAddr bank, RowAddr row,
                             std::size_t cols, std::uint8_t *startup,
                             double *alpha, double *tau,
                             double *coupling, double *frac_off,
                             std::uint8_t *vrt) const
{
    // Each single-draw parameter is draw c of its row stream, so the
    // whole row is one fill per purpose.
    const auto coins = [&](std::uint64_t purpose, std::uint8_t *dst,
                           double p) {
        Rng(rowSeed(purpose, bank, row)).fillChance({dst, cols}, p);
    };
    const auto normals = [&](std::uint64_t purpose, double *dst,
                             double sigma) {
        Rng(rowSeed(purpose, bank, row))
            .fillGaussian({dst, cols}, 0.0, sigma);
    };
    if (startup)
        coins(kStartup, startup, 0.5);
    coins(kVrt, vrt, profile_.vrtFraction);
    std::vector<std::uint8_t> slow(cols), leaky(cols);
    coins(kSlow, slow.data(), profile_.slowCellFraction);
    coins(kLeaky, leaky.data(), profile_.leakyCellFraction);
    normals(kTau, tau, profile_.tauSigma);
    normals(kCoupling, coupling, profile_.couplingSigma);
    normals(kFracOffset, frac_off, profile_.cellFracOffsetSigma);

    const std::uint64_t p_alpha = rowSeed(kAlpha, bank, row);
    const double median_s = profile_.tauMedianHours * 3600.0;
    for (std::size_t c = 0; c < cols; ++c) {
        Rng r(mixSeed(p_alpha, c));
        alpha[c] = slow[c] ? profile_.slowCellAlpha * (0.5 + r.uniform())
                           : r.beta(profile_.settleAlphaA,
                                    profile_.settleAlphaB);
        double t = median_s * std::exp(tau[c]);
        if (slow[c])
            t *= profile_.slowCellTauBoost;
        if (leaky[c])
            t *= profile_.leakyTauScale;
        tau[c] = t;
        coupling[c] = std::exp(coupling[c]);
    }
}

} // namespace fracdram::sim
