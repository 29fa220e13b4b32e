/**
 * @file
 * SoftMC-style software memory controller.
 *
 * The controller executes timed command sequences against a simulated
 * module, keeps a global cycle clock, converts elapsed cycles into
 * simulated wall-clock time (so leakage is honest), and sums the
 * cycles of every sequence for the paper's latency numbers (telemetry
 * splits them per labeled operation, as softmc.cycles.<label>).
 *
 * It also provides the JEDEC-compliant host helpers (read/write a
 * row) in both the logic and the voltage domain. The voltage-domain
 * helpers implement the paper's Sec. II-C convention: anti-cell rows
 * get complemented data so all cells physically hold the same voltage.
 */

#ifndef FRACDRAM_SOFTMC_CONTROLLER_HH
#define FRACDRAM_SOFTMC_CONTROLLER_HH

#include <string>
#include <vector>

#include "common/bitvec.hh"
#include "common/types.hh"
#include "sim/chip.hh"
#include "softmc/command.hh"
#include "softmc/timing.hh"
#include "telemetry/metrics.hh"

namespace fracdram::softmc
{

/**
 * The software memory controller driving one module.
 */
class MemoryController
{
  public:
    /**
     * @param chip module to drive
     * @param enforce_spec refuse sequences that violate JEDEC timing
     *        (host-helper mode); primitives need this off
     */
    explicit MemoryController(sim::DramChip &chip,
                              bool enforce_spec = false);

    /** Result of executing one sequence. */
    struct ExecResult
    {
        std::vector<BitVector> reads; //!< data of READ commands
        Cycles cycles = 0;            //!< sequence length
    };

    /**
     * Execute a sequence against the module.
     *
     * All pending activations/closes are resolved at the end of the
     * sequence (the bus goes quiet), and simulated time advances by
     * the sequence length.
     *
     * @param seq sequence to run
     * @param label operation class; names the sequence's
     *        softmc.cycles.<label> counter and trace event
     */
    ExecResult execute(const CommandSequence &seq,
                       const std::string &label = "sequence");

    /** @name JEDEC-compliant host helpers (logic domain) */
    /// @{
    /** Write a full row of logic data. */
    void writeRow(BankAddr bank, RowAddr row, const BitVector &bits);
    /** Read a full row of logic data (normal destructive-restore). */
    BitVector readRow(BankAddr bank, RowAddr row);
    /// @}

    /** @name Voltage-domain helpers (paper Sec. II-C convention) */
    /// @{
    /** Write so that bit=1 means the cell holds V_dd. */
    void writeRowVoltage(BankAddr bank, RowAddr row,
                         const BitVector &high_bits);
    /** Read where bit=1 means the cell held a high voltage. */
    BitVector readRowVoltage(BankAddr bank, RowAddr row);
    /** Fill a row with one physical level. */
    void fillRowVoltage(BankAddr bank, RowAddr row, bool high);
    /// @}

    /** Issue a REFRESH to the module (all banks). */
    void refreshAll();

    /**
     * JEDEC-compliant precharge-all. Useful after out-of-spec
     * sequences on timing-checker modules, which can leave a bank
     * open when they drop the sequence's (too-early) PRECHARGE.
     */
    void prechargeAllBanks();

    /** Let simulated wall-clock time pass (no commands issued). */
    void waitSeconds(Seconds s);

    /** Convert logic bits to/from the voltage domain for a row. */
    BitVector toVoltageDomain(BankAddr bank, RowAddr row,
                              const BitVector &logic) const;

    /** Cycles a full-row readout costs, including burst transfers. */
    Cycles readRowCycles() const;

    /** Cycles of one burst transfer (default 4; optimized MCs: 2). */
    void setCyclesPerBurst(Cycles c) { cyclesPerBurst_ = c; }
    Cycles cyclesPerBurst() const { return cyclesPerBurst_; }

    /** Whether JEDEC timing is being enforced on execute(). */
    bool enforcesSpec() const { return enforceSpec_; }
    void setEnforceSpec(bool enforce) { enforceSpec_ = enforce; }

    const TimingSpec &spec() const { return spec_; }
    sim::DramChip &chip() { return chip_; }

    /** Global cycle clock (monotone across sequences). */
    Cycles nowCycles() const { return clock_; }

    /**
     * Sum of the lengths of every executed sequence. Unlike
     * nowCycles() it leaves out the settle margin after each sequence
     * and the time passed by waitSeconds().
     */
    Cycles sequenceCycles() const { return sequenceCycles_; }

  private:
    /** Telemetry handles of one sequence label, looked up once. */
    struct LabelTelemetry
    {
        std::string label;
        telemetry::CounterId cycles; //!< softmc.cycles.<label>
        const char *traceName;       //!< interned label
    };

    const LabelTelemetry &labelTelemetry(const std::string &label);

    sim::DramChip &chip_;
    TimingSpec spec_;
    bool enforceSpec_;
    Cycles clock_ = 0;
    Cycles cyclesPerBurst_ = 4;
    Cycles sequenceCycles_ = 0;
    /** Telemetry lane on the DRAM-cycle trace timeline; controllers
     *  get distinct lanes so parallel trials don't interleave. */
    std::uint32_t telemetryLane_;
    /** Per-label handles; a controller sees a handful of labels. */
    std::vector<LabelTelemetry> labelTelemetry_;
};

} // namespace fracdram::softmc

#endif // FRACDRAM_SOFTMC_CONTROLLER_HH
