/**
 * @file
 * Deterministic process-variation map.
 *
 * Every manufacturing-time parameter of a module (per-cell settling
 * speed, leakage time constant, coupling strength, per-column sense-amp
 * offset, ...) is a pure function of the module serial and the cell
 * coordinates: serial, purpose, bank and row hash into the key of a
 * counter-based stream, and the column indexes the draw. This keeps
 * memory usage independent of the array size and guarantees that
 * experiments touching cells in any order see identical silicon.
 */

#ifndef FRACDRAM_SIM_VARIATION_HH
#define FRACDRAM_SIM_VARIATION_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "sim/vendor.hh"

namespace fracdram::sim
{

/**
 * Per-module process variation, derived deterministically from the
 * module serial number.
 */
class VariationMap
{
  public:
    /**
     * @param profile vendor group the module belongs to
     * @param serial unique module serial (distinct silicon per value)
     */
    VariationMap(const VendorProfile &profile, std::uint64_t serial);

    /** Settling fraction toward equilibrium per interrupted cycle. */
    double cellAlpha(BankAddr bank, RowAddr row, ColAddr col) const;

    /** Whether the cell's access transistor is slow (high V_th). */
    bool cellIsSlow(BankAddr bank, RowAddr row, ColAddr col) const;

    /**
     * Leakage time constant in seconds at 20 C. Slow cells leak less
     * (same V_th controls both effects).
     */
    Seconds cellTau(BankAddr bank, RowAddr row, ColAddr col) const;

    /** Whether the cell exhibits variable retention time. */
    bool cellIsVrt(BankAddr bank, RowAddr row, ColAddr col) const;

    /** Whether the cell is pathologically leaky (seconds retention). */
    bool cellIsLeaky(BankAddr bank, RowAddr row, ColAddr col) const;

    /** Static coupling-strength multiplier of the cell (lognormal). */
    double cellCoupling(BankAddr bank, RowAddr row, ColAddr col) const;

    /**
     * Deviation of the cell's interrupted-settling equilibrium from
     * the bit-line midpoint, in volts.
     */
    Volt cellFracOffset(BankAddr bank, RowAddr row, ColAddr col) const;

    /** Sense-amplifier offset of a column, in volts (delta domain). */
    Volt saOffset(BankAddr bank, ColAddr col) const;

    /**
     * Whether the column's sense amplifier stays disengaged during an
     * interrupted multi-row activation (clean Half-m column).
     */
    bool halfMClean(BankAddr bank, ColAddr col) const;

    /** Manufacturing-time power-up content of a cell. */
    bool startupBit(BankAddr bank, RowAddr row, ColAddr col) const;

    /**
     * Materialize every per-cell parameter of one row in a single
     * pass. Produces exactly the values of the per-cell accessors
     * above: each single-draw parameter of cell c is draw c of a
     * per-(purpose, bank, row) stream, so the row is one fill per
     * purpose; alpha draws from a stream per cell. Every output array
     * must hold @p cols elements. @p startup may be null to skip the
     * power-up-content stream (legal because the streams are
     * independent; use when the row's initial voltages are known to
     * be overwritten before anything observes them).
     */
    void materializeRow(BankAddr bank, RowAddr row, std::size_t cols,
                        std::uint8_t *startup, double *alpha,
                        double *tau, double *coupling,
                        double *frac_off, std::uint8_t *vrt) const;

    /** The module serial this map was derived from. */
    std::uint64_t serial() const { return serial_; }

  private:
    /** Seed of one purpose's stream over a bank; column c draws at c. */
    std::uint64_t bankSeed(std::uint64_t purpose, BankAddr bank) const;
    /** Seed of one purpose's stream over a row; cell c draws at c. */
    std::uint64_t rowSeed(std::uint64_t purpose, BankAddr bank,
                          RowAddr row) const;
    /** Word @p col of a row stream, as chance(p). */
    bool cellChance(std::uint64_t purpose, BankAddr bank, RowAddr row,
                    ColAddr col, double p) const;
    /** Gaussian @p col of a row stream, as gaussian(0, sigma). */
    double cellGaussian(std::uint64_t purpose, BankAddr bank, RowAddr row,
                        ColAddr col, double sigma) const;

    const VendorProfile &profile_;
    std::uint64_t serial_;
    std::uint64_t rootSeed_;
};

} // namespace fracdram::sim

#endif // FRACDRAM_SIM_VARIATION_HH
