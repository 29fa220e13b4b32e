#include "softmc/timing.hh"

#include <optional>

#include "common/logging.hh"

namespace fracdram::softmc
{

TimingSpec
TimingSpec::ddr3()
{
    return TimingSpec{};
}

namespace
{

struct BankTrack
{
    std::optional<Cycles> lastAct;
    std::optional<Cycles> lastPre;
    std::optional<Cycles> lastRead;
    std::optional<Cycles> lastWrite;
    bool open = false;
};

} // namespace

std::vector<TimingViolation>
TimingSpec::check(const CommandSequence &seq,
                  std::uint32_t num_banks) const
{
    std::vector<TimingViolation> out;
    scan(seq, num_banks, &out);
    return out;
}

std::size_t
TimingSpec::countViolations(const CommandSequence &seq,
                            std::uint32_t num_banks) const
{
    return scan(seq, num_banks, nullptr);
}

std::size_t
TimingSpec::scan(const CommandSequence &seq, std::uint32_t num_banks,
                 std::vector<TimingViolation> *out) const
{
    std::size_t count = 0;
    std::vector<BankTrack> banks(num_banks);
    std::optional<Cycles> lastActAnyBank;
    std::optional<Cycles> lastRefresh;

    // @p describe builds the message, only when there is an @p out.
    auto violate = [&](Cycles cycle, auto &&describe) {
        ++count;
        if (out != nullptr)
            out->push_back({cycle, std::string(describe())});
    };

    auto require_gap = [&](Cycles cycle, std::optional<Cycles> since,
                           Cycles min, const char *what) {
        if (since && cycle < *since + min) {
            violate(cycle, [&] {
                return strprintf("%s: gap %llu < %llu cycles", what,
                                 static_cast<unsigned long long>(
                                     cycle - *since),
                                 static_cast<unsigned long long>(min));
            });
        }
    };

    for (const auto &tc : seq.commands()) {
        const Cycles cycle = tc.cycle;
        const auto &cmd = tc.cmd;

        if (cmd.kind != CommandKind::Refresh &&
            cmd.kind != CommandKind::Nop) {
            require_gap(cycle, lastRefresh, tRfc, "tRFC");
        }

        switch (cmd.kind) {
          case CommandKind::Act: {
            if (cmd.bank >= num_banks) {
                violate(cycle, [&] {
                    return strprintf("ACT: bad bank %u", cmd.bank);
                });
                break;
            }
            auto &bt = banks[cmd.bank];
            if (bt.open)
                violate(cycle, [] {
                    return "ACT on an open bank (missing PRE)";
                });
            require_gap(cycle, bt.lastAct, tRc, "tRC");
            require_gap(cycle, bt.lastPre, tRp, "tRP");
            if (lastActAnyBank && (!bt.lastAct ||
                                   *lastActAnyBank != *bt.lastAct)) {
                require_gap(cycle, lastActAnyBank, tRrd, "tRRD");
            }
            bt.lastAct = cycle;
            bt.open = true;
            lastActAnyBank = cycle;
            break;
          }
          case CommandKind::Pre:
          case CommandKind::PreAll: {
            const BankAddr lo =
                cmd.kind == CommandKind::Pre ? cmd.bank : 0;
            const BankAddr hi = cmd.kind == CommandKind::Pre
                                    ? cmd.bank + 1
                                    : num_banks;
            if (lo >= num_banks) {
                violate(cycle, [&] {
                    return strprintf("PRE: bad bank %u", cmd.bank);
                });
                break;
            }
            for (BankAddr b = lo; b < hi; ++b) {
                auto &bt = banks[b];
                if (!bt.open)
                    continue;
                require_gap(cycle, bt.lastAct, tRas, "tRAS");
                require_gap(cycle, bt.lastRead, tRtp, "tRTP");
                require_gap(cycle, bt.lastWrite, tWr, "tWR");
                bt.lastPre = cycle;
                bt.open = false;
            }
            break;
          }
          case CommandKind::Read: {
            if (cmd.bank >= num_banks) {
                violate(cycle, [&] {
                    return strprintf("RD: bad bank %u", cmd.bank);
                });
                break;
            }
            auto &bt = banks[cmd.bank];
            if (!bt.open)
                violate(cycle, [] { return "RD on a closed bank"; });
            require_gap(cycle, bt.lastAct, tRcd, "tRCD");
            bt.lastRead = cycle;
            break;
          }
          case CommandKind::Write: {
            if (cmd.bank >= num_banks) {
                violate(cycle, [&] {
                    return strprintf("WR: bad bank %u", cmd.bank);
                });
                break;
            }
            auto &bt = banks[cmd.bank];
            if (!bt.open)
                violate(cycle, [] { return "WR on a closed bank"; });
            require_gap(cycle, bt.lastAct, tRcd, "tRCD");
            bt.lastWrite = cycle;
            break;
          }
          case CommandKind::Refresh: {
            for (BankAddr b = 0; b < num_banks; ++b) {
                if (banks[b].open) {
                    violate(cycle, [&] {
                        return strprintf("REFRESH with bank %u open", b);
                    });
                }
            }
            lastRefresh = cycle;
            break;
          }
          case CommandKind::Nop:
            break;
        }
    }
    return count;
}

} // namespace fracdram::softmc
