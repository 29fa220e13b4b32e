/**
 * @file
 * serve_mix load generation against a running fracdram_serve and
 * fracdram_router.
 */

#ifndef PERFBENCH_METER_LOADGEN_HH
#define PERFBENCH_METER_LOADGEN_HH

#include <cstdint>
#include <string>

namespace perfbench
{

struct ServeOptions
{
    std::string phase; //!< serve: open | closed | overhead
    std::uint64_t seed = 1;
    std::uint16_t daemonPort = 0;
    std::uint16_t routerPort = 0;
    bool traced = false;  //!< open: tag requests with request ids
    double seconds = 6.0; //!< length of the phase
};

/** Enroll the seed's PUF keys through the router; print JSON. */
int runEnroll(const ServeOptions &o);

/** Run one serve_mix load phase; print raw JSON. */
int runServe(const ServeOptions &o);

} // namespace perfbench

#endif // PERFBENCH_METER_LOADGEN_HH
