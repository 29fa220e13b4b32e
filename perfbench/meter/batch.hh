/**
 * @file
 * Batch workloads (trng_quac, puf_study) and the traced run's
 * in-process layer probes.
 */

#ifndef PERFBENCH_METER_BATCH_HH
#define PERFBENCH_METER_BATCH_HH

#include <cstdint>
#include <string>

namespace perfbench
{

struct BatchOptions
{
    std::string workload; //!< probes: whose tracing overhead to report
    std::uint64_t seed = 1;
    double seconds = 10.0; //!< measured phase length
};

/** Print trng_quac's raw measurements as one JSON object. */
int runTrng(const BatchOptions &o);

/** Print puf_study's raw measurements as one JSON object. */
int runPuf(const BatchOptions &o);

/** Print the per-layer probe metrics, checks and spans. */
int runProbes(const BatchOptions &o);

} // namespace perfbench

#endif // PERFBENCH_METER_BATCH_HH
