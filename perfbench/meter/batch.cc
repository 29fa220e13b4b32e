/**
 * @file
 * The batch workloads (trng_quac, puf_study) and the in-process layer
 * probes of the traced run. Every subcommand prints one JSON object
 * of raw measurements on stdout; perfbench/run.py reduces them.
 */

#include "batch.hh"

#include <algorithm>
#include <ctime>
#include <iterator>
#include <memory>
#include <thread>

#include "analysis/puf_study.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/sha256.hh"
#include "core/multi_row.hh"
#include "puf/hamming.hh"
#include "puf/nist.hh"
#include "puf/puf.hh"
#include "service/proto.hh"
#include "sim/chip.hh"
#include "softmc/controller.hh"
#include "telemetry/metrics.hh"
#include "telemetry/procstats.hh"
#include "trng/quac_trng.hh"
#include "util.hh"

namespace perfbench
{

using namespace fracdram;

namespace
{

/** Bits per generate() call: one SHA-256 conditioning block. */
constexpr std::size_t kBlockBits = 256;
/** Blocks per module in one trng_quac work unit (1 KiB each). */
constexpr int kBlocksPerUnit = 32;
/** The two modules of trng_quac: DDR3 group B, DDR4 group M. */
constexpr sim::DramGroup kTrngGroups[] = {sim::DramGroup::B,
                                          sim::DramGroup::M};
/** Set-ups before the measured phase (per trng_quac lane); one more
 *  follows every unit, so setup_s, their median, samples the whole run. */
constexpr int kSetupReps = 3;
/** NIST stream per module (a 20 s run makes about 2.5x this). */
constexpr std::size_t kCheckBits = 65536;
/** Consecutive raw samples per module for the noise-stream check. */
constexpr int kFlipSamples = 64;
/** puf_study scale: the paper's 120 challenges, 2 modules per group. */
constexpr int kPufModules = 2;
constexpr int kPufChallenges = 120;
/** Traced-run passes: trng blocks per module, reduced puf study. */
constexpr int kProbeBlocks = 16;
constexpr int kProbeModules = 2;
constexpr int kProbeChallenges = 24;

/** User + system CPU seconds of this process so far (ms resolution). */
double
cpuSeconds()
{
    const auto st = telemetry::sampleProcessGauges();
    return static_cast<double>(st.cpuUserMs + st.cpuSysMs) * 1e-3;
}

double
peakRssMib()
{
    return static_cast<double>(telemetry::sampleProcessGauges()
                                   .peakRssBytes) /
           (1024.0 * 1024.0);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One QUAC-TRNG module as bench_trng builds it, serial from seed. */
struct TrngModule
{
    std::unique_ptr<sim::DramChip> chip;
    std::unique_ptr<softmc::MemoryController> mc;
    std::unique_ptr<trng::QuacTrng> gen;

    TrngModule(sim::DramGroup group, std::uint64_t seed)
    {
        sim::DramParams params = sim::isDdr4(group)
                                     ? sim::DramParams::ddr4()
                                     : sim::DramParams{};
        params.colsPerRow = 2048;
        const std::uint64_t serial =
            mixSeed(seed, 0x7472 + static_cast<std::uint64_t>(group));
        chip = std::make_unique<sim::DramChip>(group, serial, params);
        mc = std::make_unique<softmc::MemoryController>(*chip, false);
        gen = std::make_unique<trng::QuacTrng>(*mc);
    }
};

std::vector<std::unique_ptr<TrngModule>>
buildTrngModules(std::uint64_t seed, bool warm_up)
{
    std::vector<std::unique_ptr<TrngModule>> mods;
    for (const auto g : kTrngGroups) {
        mods.push_back(std::make_unique<TrngModule>(g, seed));
        if (warm_up)
            mods.back()->gen->generate(kBlockBits);
    }
    return mods;
}

using NistTest = puf::nist::TestResult (*)(const BitVector &);

/** The SP 800-22 subset bench_trng runs on the extracted stream. */
const std::vector<std::pair<std::string, NistTest>> &
nistSubset()
{
    using namespace puf::nist;
    static const std::vector<std::pair<std::string, NistTest>> tests = {
        {"frequency", [](const BitVector &s) { return frequency(s); }},
        {"block_frequency",
         [](const BitVector &s) { return blockFrequency(s); }},
        {"runs", [](const BitVector &s) { return runs(s); }},
        {"longest_run",
         [](const BitVector &s) { return longestRunOfOnes(s); }},
        {"cumulative_sums",
         [](const BitVector &s) { return cumulativeSums(s); }},
        {"approximate_entropy",
         [](const BitVector &s) { return approximateEntropy(s); }},
        {"serial", [](const BitVector &s) { return serial(s, 12); }},
    };
    return tests;
}

/**
 * Significance level of the trng_quac NIST check, the low end of the
 * range SP 800-22 recommends. A run checks about 70 p-values (9 per
 * module); at 0.01 an ideal generator fails one of them twice, first
 * test and retest, in about 1% of runs, and at 0.001 in about 1 in
 * 10^4. A broken generator still fails with p-values near 0.
 */
constexpr double kNistAlpha = 0.001;

/**
 * NIST subset on @p stream; a failed test is retried once on a fresh
 * stream from @p gen (SP 800-22 practice). @return the names of tests
 * that failed twice.
 */
std::vector<std::string>
nistCheck(const BitVector &stream, trng::QuacTrng &gen,
          std::size_t retest_bits)
{
    std::vector<std::string> failed;
    BitVector retest;
    for (const auto &[name, test] : nistSubset()) {
        if (test(stream).passed(kNistAlpha))
            continue;
        if (retest.empty())
            retest = gen.generate(retest_bits);
        if (!test(retest).passed(kNistAlpha))
            failed.push_back(name);
    }
    return failed;
}

analysis::PufStudyParams
pufParams(std::uint64_t seed, std::uint64_t index, int modules,
          int challenges)
{
    analysis::PufStudyParams p;
    p.modulesPerGroup = modules;
    p.challenges = challenges;
    p.numFracs = 10;
    p.seedBase = mixSeed(seed, 0x50554600 + index) >> 8;
    return p;
}

/** PUF responses a pufStudy call evaluates (two sets per module). */
std::uint64_t
pufEvaluations(const analysis::PufStudyParams &p)
{
    std::uint64_t modules = 0;
    for (const auto g : sim::fracCapableGroups())
        modules += static_cast<std::uint64_t>(std::min(
            p.modulesPerGroup, sim::vendorProfile(g).numModules));
    return modules * 2 * static_cast<std::uint64_t>(p.challenges);
}

bool
sameStudy(const analysis::PufStudyResult &a,
          const analysis::PufStudyResult &b)
{
    if (a.groups.size() != b.groups.size() ||
        a.crossGroupInterHd != b.crossGroupInterHd)
        return false;
    for (std::size_t i = 0; i < a.groups.size(); ++i) {
        if (a.groups[i].intraHd != b.groups[i].intraHd ||
            a.groups[i].interHd != b.groups[i].interHd ||
            a.groups[i].hammingWeight != b.groups[i].hammingWeight)
            return false;
    }
    return true;
}

/** Sum of the counters whose name starts with @p prefix. */
std::uint64_t
sumCounters(const telemetry::MetricsSnapshot &snap,
            const std::string &prefix, const std::string &suffix = "")
{
    std::uint64_t total = 0;
    for (const auto &[name, v] : snap.counters) {
        if (name.rfind(prefix, 0) == 0 &&
            (suffix.empty() ||
             (name.size() >= suffix.size() &&
              name.compare(name.size() - suffix.size(), suffix.size(),
                           suffix) == 0)))
            total += v;
    }
    return total;
}

/** Switch telemetry recording on (fresh registry) or off. */
void
setTracing(bool on)
{
    telemetry::setEnabled(false);
    if (on) {
        telemetry::Metrics::instance().reset();
        telemetry::setEnabled(true);
    }
}

/**
 * Median per-call time of @p fn in ns: @p samples samples of @p batch
 * back-to-back calls each.
 */
template <typename Fn>
double
probeNs(int samples, int batch, Fn &&fn)
{
    std::vector<double> per_call;
    for (int s = 0; s < samples; ++s) {
        const std::uint64_t t0 = nowNs();
        for (int i = 0; i < batch; ++i)
            fn(i);
        per_call.push_back(static_cast<double>(nowNs() - t0) / batch);
    }
    return median(per_call);
}

/** One trng_quac lane: a serial generator pair and its samples. */
struct TrngLane
{
    std::vector<std::unique_ptr<TrngModule>> mods;
    std::vector<double> setup_s, unit_wall, unit_cpu, block_us[2];
    BitVector streams[2];
    std::uint64_t bits = 0, raw_samples = 0, blocks = 0;
    std::vector<std::string> nist_failed;
    std::vector<double> flip_share;
};

/** CPU seconds of the calling thread so far (ns resolution). */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Time one trng_quac set-up: both modules built plus a warm-up call. */
double
trngSetup(std::uint64_t seed,
          std::vector<std::unique_ptr<TrngModule>> *keep = nullptr)
{
    const std::uint64_t t0 = nowNs();
    auto mods = buildTrngModules(seed, true);
    const double s = secondsBetween(t0, nowNs());
    if (keep)
        *keep = std::move(mods);
    return s;
}

/**
 * Share of raw-sample bits that change from one raw sample to the
 * next, over @p samples consecutive samples of @p gen: how much of
 * the QUAC array is metastable noise.
 */
double
rawFlipShare(trng::QuacTrng &gen, int samples)
{
    BitVector prev = gen.rawSample();
    double flips = 0.0;
    for (int i = 1; i < samples; ++i) {
        BitVector cur = gen.rawSample();
        flips += puf::normalizedHammingDistance(prev, cur);
        prev = std::move(cur);
    }
    return flips / (samples - 1);
}

/** Time one puf_study set-up: one module per Frac-capable group
 *  (chip, controller, PUF) plus its first evaluation. */
double
pufSetup(const analysis::PufStudyParams &shape)
{
    const std::uint64_t t0 = nowNs();
    for (const auto g : sim::fracCapableGroups()) {
        sim::DramChip chip(g, shape.seedBase, shape.dram);
        softmc::MemoryController mc(chip, false);
        puf::FracPuf frac_puf(mc, shape.numFracs);
        frac_puf.evaluate(frac_puf.makeChallenges(1).front());
    }
    return secondsBetween(t0, nowNs());
}

} // namespace

int
runTrng(const BatchOptions &o)
{
    // One lane per engine thread, each a serial generator pair with its
    // own serials. Every phase runs on all lanes at once and pools their
    // samples, so a slow spell on one vCPU moves the figures by a share,
    // not whole.
    std::vector<TrngLane> lanes(parallel::threads());
    const auto on_lanes = [&](auto &&fn) {
        std::vector<std::thread> threads;
        for (std::size_t l = 0; l < lanes.size(); ++l)
            threads.emplace_back([&, l] { fn(lanes[l], l); });
        for (auto &t : threads)
            t.join();
    };

    on_lanes([&](TrngLane &lane, std::size_t l) {
        const std::uint64_t seed = mixSeed(o.seed, 0x4c414e45 + l);
        for (int r = 0; r < kSetupReps; ++r)
            lane.setup_s.push_back(trngSetup(seed, &lane.mods));
    });

    const std::uint64_t start = nowNs();
    on_lanes([&](TrngLane &lane, std::size_t l) {
        const std::uint64_t seed = mixSeed(o.seed, 0x4c414e45 + l);
        auto &mods = lane.mods;
        do {
            const double cpu0 = threadCpuSeconds();
            const std::uint64_t t0 = nowNs();
            for (std::size_t m = 0; m < mods.size(); ++m) {
                for (int b = 0; b < kBlocksPerUnit; ++b) {
                    const std::uint64_t tb = nowNs();
                    const BitVector out_bits =
                        mods[m]->gen->generate(kBlockBits);
                    lane.block_us[m].push_back(
                        static_cast<double>(nowNs() - tb) * 1e-3);
                    ++lane.blocks;
                    lane.bits += out_bits.size();
                    lane.raw_samples += mods[m]->gen->rawSamplesUsed();
                    if (lane.streams[m].size() < kCheckBits)
                        lane.streams[m].append(out_bits);
                }
            }
            lane.unit_wall.push_back(secondsBetween(t0, nowNs()));
            lane.unit_cpu.push_back(threadCpuSeconds() - cpu0);
            lane.setup_s.push_back(trngSetup(seed));
        } while (secondsBetween(start, nowNs()) < o.seconds);
    });

    // Correctness, untimed: the NIST subset on each module's stream
    // (topped up for short runs), and the raw noise the conditioning
    // relies on.
    on_lanes([&](TrngLane &lane, std::size_t) {
        for (std::size_t m = 0; m < lane.mods.size(); ++m) {
            auto &gen = *lane.mods[m]->gen;
            auto &stream = lane.streams[m];
            if (stream.size() < kCheckBits)
                stream.append(gen.generate(kCheckBits - stream.size()));
            for (const auto &name : nistCheck(stream, gen, kCheckBits))
                lane.nist_failed.push_back(
                    sim::groupName(kTrngGroups[m]) + ":" + name);
            lane.flip_share.push_back(rawFlipShare(gen, kFlipSamples));
        }
    });

    std::vector<double> setup_s, unit_wall, unit_cpu, block_us[2];
    std::vector<double> flip_share;
    std::uint64_t bits = 0, raw_samples = 0, blocks = 0;
    std::string failed_json = "[";
    for (const auto &lane : lanes) {
        const auto add = [](std::vector<double> &to,
                            const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        add(setup_s, lane.setup_s);
        add(unit_wall, lane.unit_wall);
        add(unit_cpu, lane.unit_cpu);
        add(block_us[0], lane.block_us[0]);
        add(block_us[1], lane.block_us[1]);
        add(flip_share, lane.flip_share);
        bits += lane.bits;
        raw_samples += lane.raw_samples;
        blocks += lane.blocks;
        for (const auto &name : lane.nist_failed)
            failed_json +=
                (failed_json.size() > 1 ? ", " : "") + jsonString(name);
    }
    failed_json += "]";

    JsonObject out;
    out.nums("setup_s", setup_s)
        .nums("unit_wall_s", unit_wall)
        .nums("unit_cpu_s", unit_cpu)
        .count("unit_bits", static_cast<std::uint64_t>(kBlocksPerUnit) *
                                kBlockBits * std::size(kTrngGroups))
        .count("lanes", lanes.size())
        .nums("block_us_B", block_us[0])
        .nums("block_us_M", block_us[1])
        .count("blocks", blocks)
        .count("bits", bits)
        .count("raw_samples", raw_samples)
        .nums("raw_flip_share", flip_share)
        .count("check_bits", kCheckBits)
        .raw("nist_failed", failed_json)
        .num("peak_rss_mib", peakRssMib());
    std::printf("%s\n", out.render().c_str());
    return 0;
}

int
runPuf(const BatchOptions &o)
{
    JsonObject out;
    const analysis::PufStudyParams shape =
        pufParams(o.seed, 0, kPufModules, kPufChallenges);

    // The engine's threads start with the first study, inside the
    // measured phase.
    std::vector<double> setup_s;
    for (int r = 0; r < kSetupReps; ++r)
        setup_s.push_back(pufSetup(shape));

    std::vector<double> study_wall, study_cpu;
    double max_intra = 0.0, min_inter = 1.0;
    bool separated = true;
    std::uint64_t evaluations = 0;
    const std::uint64_t start = nowNs();
    std::uint64_t index = 0;
    do {
        const auto params =
            pufParams(o.seed, index++, kPufModules, kPufChallenges);
        const double cpu0 = cpuSeconds();
        const std::uint64_t t0 = nowNs();
        const auto result = analysis::pufStudy(params);
        study_wall.push_back(secondsBetween(t0, nowNs()));
        study_cpu.push_back(cpuSeconds() - cpu0);
        evaluations += pufEvaluations(params);
        separated &= result.maxIntraHd < result.minInterHd;
        max_intra = std::max(max_intra, result.maxIntraHd);
        min_inter = std::min(min_inter, result.minInterHd);
        setup_s.push_back(pufSetup(shape));
    } while (secondsBetween(start, nowNs()) < o.seconds);

    out.nums("setup_s", setup_s)
        .nums("unit_wall_s", study_wall)
        .nums("unit_cpu_s", study_cpu)
        .count("unit_bits", pufEvaluations(shape) *
                                shape.dram.colsPerRow)
        .count("studies", index)
        .count("evaluations", evaluations)
        .num("max_intra_hd", max_intra)
        .num("min_inter_hd", min_inter)
        .count("threads", parallel::threads())
        .flag("separated", separated)
        .num("peak_rss_mib", peakRssMib());
    std::printf("%s\n", out.render().c_str());
    return 0;
}

int
runProbes(const BatchOptions &o)
{
    SpanRecorder spans;
    JsonObject metrics;
    JsonObject checks;
    std::vector<double> overhead_off, overhead_on;

    // --- trng: a fixed pass on fresh modules, untraced / traced,
    // alternating. The two traced passes must count identically.
    std::vector<telemetry::MetricsSnapshot> trng_snaps;
    std::vector<double> trng_off_ns, trng_on_ns;
    std::uint64_t cycles = 0, pass_bits = 0, pass_samples = 0;
    for (int rep = 0; rep < 4; ++rep) {
        const bool traced = rep % 2 == 1;
        auto mods = buildTrngModules(o.seed, false);
        setTracing(traced);
        std::uint64_t c0 = 0, c1 = 0, bits = 0, samples = 0;
        const std::uint64_t t0 = nowNs();
        {
            SpanRecorder::Scope pass(spans, "trng.pass");
            for (auto &mod : mods) {
                SpanRecorder::Scope module(
                    spans, "trng.module." +
                               sim::groupName(mod->chip->group()));
                c0 += mod->mc->nowCycles();
                for (int b = 0; b < kProbeBlocks; ++b) {
                    SpanRecorder::Scope call(spans, "trng.generate");
                    bits += mod->gen->generate(kBlockBits).size();
                    samples += mod->gen->rawSamplesUsed();
                }
                c1 += mod->mc->nowCycles();
            }
        }
        const double ns = static_cast<double>(nowNs() - t0);
        if (traced) {
            trng_snaps.push_back(telemetry::Metrics::instance().snapshot());
            trng_on_ns.push_back(ns);
        } else {
            trng_off_ns.push_back(ns);
        }
        setTracing(false);
        cycles = c1 - c0;
        pass_bits = bits;
        pass_samples = samples;
    }
    const auto &snap = trng_snaps.back();
    const std::uint64_t cmds = sumCounters(snap, "softmc.cmd.");
    const double trng_ns = median(trng_off_ns);
    metrics.count("trng.raw_samples", pass_samples)
        .count("sim.sense_flips",
               snap.counters.count("sim.kernel.sense.flips")
                   ? snap.counters.at("sim.kernel.sense.flips")
                   : 0)
        .num("trng.sim_cycles_per_bit",
             static_cast<double>(cycles) / static_cast<double>(pass_bits))
        .num("softmc.host_ns_per_cycle",
             trng_ns / static_cast<double>(cycles))
        .num("softmc.host_ns_per_cmd",
             trng_ns / static_cast<double>(cmds))
        .count("softmc.cmds", cmds);
    checks.flag("trng_counts_repeat",
                trng_snaps[0].counters == trng_snaps[1].counters);
    if (o.workload == "trng_quac") {
        overhead_off = trng_off_ns;
        overhead_on = trng_on_ns;
    }

    // --- puf + parallel: a reduced Fig. 11 study at 1 thread, then
    // untraced / traced at the engine's thread count. All results
    // must be identical.
    {
        const auto params =
            pufParams(o.seed, 0, kProbeModules, kProbeChallenges);
        analysis::PufStudyResult serial_result;
        {
            SpanRecorder::Scope s(spans, "puf.study.1thread");
            parallel::setThreads(1);
            serial_result = analysis::pufStudy(params);
            parallel::setThreads(0);
        }
        const unsigned threads = parallel::threads();
        parallel::parallelFor(threads, [](std::size_t) {}); // warm pool
        bool identical = true;
        std::vector<double> off_ns, on_ns;
        double efficiency = 0.0, queue_wait_ms = 0.0;
        std::uint64_t evaluations = 0;
        for (int rep = 0; rep < 4; ++rep) {
            const bool traced = rep % 2 == 1;
            setTracing(traced);
            const std::uint64_t t0 = nowNs();
            analysis::PufStudyResult result;
            {
                SpanRecorder::Scope s(spans, traced ? "puf.study.traced"
                                                    : "puf.study");
                result = analysis::pufStudy(params);
            }
            const double ns = static_cast<double>(nowNs() - t0);
            identical &= sameStudy(serial_result, result);
            if (traced) {
                on_ns.push_back(ns);
                const auto ps = telemetry::Metrics::instance().snapshot();
                const double busy = static_cast<double>(
                    sumCounters(ps, "parallel.worker.", ".busy_ns"));
                efficiency = busy / (threads * ns);
                const auto it =
                    ps.histograms.find("parallel.task.queue_wait_ns");
                queue_wait_ms = it == ps.histograms.end()
                                    ? 0.0
                                    : it->second.mean() * 1e-6;
                evaluations = ps.counters.count("puf.evaluations")
                                  ? ps.counters.at("puf.evaluations")
                                  : 0;
            } else {
                off_ns.push_back(ns);
            }
            setTracing(false);
        }
        metrics.num("parallel.efficiency", efficiency)
            .num("parallel.queue_wait_ms", queue_wait_ms)
            .count("puf.evaluations", evaluations);
        checks.flag("puf_threads_identical", identical)
            .flag("puf_evaluations_expected",
                  evaluations == pufEvaluations(params));
        if (o.workload == "puf_study") {
            overhead_off = off_ns;
            overhead_on = on_ns;
        }
    }

    // --- per-call layer probes at row width (2048 columns).
    TrngModule mod(sim::DramGroup::B, o.seed);
    Rng rng(mixSeed(o.seed, 0x524e47));
    std::vector<double> row(mod.chip->dramParams().colsPerRow);
    {
        SpanRecorder::Scope s(spans, "probe.rng");
        metrics.num("common.rng.skip_ns_per_draw",
                    probeNs(15, 64, [&](int) {
                        rng.skipGaussians(row.size());
                    }) / static_cast<double>(row.size()));
        metrics.num("common.rng.fill_ns_per_draw",
                    probeNs(15, 64, [&](int) {
                        rng.fillGaussian(row, 0.0, 1.0);
                    }) / static_cast<double>(row.size()));
    }
    {
        SpanRecorder::Scope s(spans, "probe.softmc_core_trng");
        metrics.num("softmc.fill_row_us",
                    probeNs(15, 32, [&](int i) {
                        mod.mc->fillRowVoltage(0, 16 + i % 32, i & 1);
                    }) * 1e-3);
        metrics.num("core.multi_row_activate_us",
                    probeNs(15, 16, [&](int) {
                        core::multiRowActivate(*mod.mc, 0, 8, 1);
                    }) * 1e-3);
        metrics.num("trng.raw_sample_us",
                    probeNs(15, 32, [&](int) { mod.gen->rawSample(); }) *
                        1e-3);
        const BitVector sample = mod.gen->rawSample();
        Sha256 hasher;
        metrics.num("common.sha256_update_us",
                    probeNs(15, 128, [&](int) {
                        hasher.updateBits(sample);
                    }) * 1e-3);
    }
    {
        SpanRecorder::Scope s(spans, "probe.sim_puf");
        const auto dram = analysis::PufStudyParams::defaultDram();
        std::uint64_t serial = mixSeed(o.seed, 0x434850);
        metrics.num("sim.chip_setup_ms", probeNs(5, 2, [&](int) {
                        sim::DramChip chip(sim::DramGroup::B, serial++,
                                           dram);
                        softmc::MemoryController mc(chip, false);
                    }) * 1e-6);
        sim::DramChip chip(sim::DramGroup::B, serial, dram);
        softmc::MemoryController mc(chip, false);
        puf::FracPuf frac_puf(mc, 10);
        const auto challenges = frac_puf.makeChallenges(16);
        metrics.num("puf.evaluate_us", probeNs(7, 16, [&](int i) {
                        frac_puf.evaluate(challenges[i]);
                    }) * 1e-3);
        const BitVector a = frac_puf.evaluate(challenges[0]);
        const BitVector b = frac_puf.evaluate(challenges[1]);
        volatile double sink = 0.0; // keeps the calls
        metrics.num("puf.hamming_us", probeNs(15, 256, [&](int) {
                        sink = puf::normalizedHammingDistance(a, b);
                    }) * 1e-3);
    }
    {
        SpanRecorder::Scope s(spans, "probe.nist");
        BitVector stream;
        for (std::size_t i = 0; i < kCheckBits; ++i)
            stream.pushBack(rng.next() & 1);
        for (const auto &[name, test] : nistSubset()) {
            SpanRecorder::Scope t(spans, "puf.nist." + name);
            metrics.num("puf.nist." + name + "_ms",
                        probeNs(3, 1, [&](int) { test(stream); }) * 1e-6);
        }
    }
    {
        SpanRecorder::Scope s(spans, "probe.proto");
        service::Response resp;
        resp.type = service::MsgType::GetEntropy;
        resp.status = service::Status::Ok;
        resp.data.assign(1024, 0x5a);
        std::vector<std::uint8_t> wire;
        metrics.num("service.proto.encode_ns", probeNs(15, 1000, [&](int) {
                        wire = service::encodeResponse(resp);
                    }));
        service::Response decoded;
        metrics.num("service.proto.decode_ns", probeNs(15, 1000, [&](int) {
                        service::decodeResponse(wire.data(), wire.size(),
                                                decoded);
                    }));
        checks.flag("proto_roundtrip", decoded.data == resp.data);
    }

    JsonObject out;
    out.raw("metrics", metrics.render())
        .raw("checks", checks.render())
        .nums("overhead_off_ns", overhead_off)
        .nums("overhead_on_ns", overhead_on)
        .raw("spans", spans.toJson());
    std::printf("%s\n", out.render().c_str());
    return 0;
}

} // namespace perfbench
