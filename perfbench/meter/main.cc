/**
 * @file
 * perfbench_meter - the measuring half of the repository benchmark.
 * perfbench/run.py builds it and calls one subcommand per phase:
 *
 *   stamp                 host/build configuration of this binary
 *   trng   --seed --seconds        trng_quac measured phase
 *   puf    --seed --seconds        puf_study measured phase
 *   probes --seed --workload       traced run: per-layer probes
 *   enroll --seed --router-port    serve_mix set-up: PUF enrollment
 *   serve  --phase open|closed|overhead --daemon-port --router-port
 *                                  serve_mix load phases
 *
 * Each prints one JSON object on stdout. Options are `--name value`;
 * the workload shapes are constants in batch.cc and loadgen.cc.
 */

#include <cstdio>
#include <stdexcept>
#include <exception>
#include <map>
#include <string>

#include "batch.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd/simd.hh"
#include "loadgen.hh"
#include "util.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace
{

class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i + 1 < argc; i += 2) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                throw std::invalid_argument("expected --option, got " +
                                            key);
            values_[key.substr(2)] = argv[i + 1];
        }
        if (argc > 2 && argc % 2 != 0)
            throw std::invalid_argument("option without a value");
    }

    double num(const std::string &k, double dflt) const
    {
        const auto it = values_.find(k);
        return it == values_.end() ? dflt : std::stod(it->second);
    }
    std::string str(const std::string &k, const std::string &dflt) const
    {
        const auto it = values_.find(k);
        return it == values_.end() ? dflt : it->second;
    }
    std::uint64_t seed() const
    {
        return std::stoull(str("seed", "1"));
    }

  private:
    std::map<std::string, std::string> values_;
};

BatchOptions
batchOptions(const Args &a)
{
    BatchOptions o;
    o.workload = a.str("workload", "");
    o.seed = a.seed();
    o.seconds = a.num("seconds", o.seconds);
    return o;
}

ServeOptions
serveOptions(const Args &a)
{
    ServeOptions o;
    o.phase = a.str("phase", "");
    o.seed = a.seed();
    o.daemonPort = static_cast<std::uint16_t>(a.num("daemon-port", 0));
    o.routerPort = static_cast<std::uint16_t>(a.num("router-port", 0));
    o.traced = a.num("traced", 0) != 0;
    o.seconds = a.num("seconds", o.seconds);
    return o;
}

int
printStamp()
{
    JsonObject o;
    o.count("nproc", static_cast<std::uint64_t>(nproc()))
        .count("fracdram_threads", fracdram::parallel::threads())
        .str("simd_tier",
             fracdram::simd::isaName(fracdram::simd::activeIsa()))
        .flag("sha_ni", fracdram::simd::shaNiActive())
        .str("build_type", PERFBENCH_BUILD_TYPE);
    std::printf("%s\n", o.render().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s stamp|trng|puf|probes|enroll|"
                             "serve [--option value ...]\n",
                     argv[0]);
        return 2;
    }
    fracdram::setVerbose(false);
    const std::string cmd = argv[1];
    try {
        const Args args(argc, argv);
        if (cmd == "stamp")
            return printStamp();
        if (cmd == "trng")
            return runTrng(batchOptions(args));
        if (cmd == "puf")
            return runPuf(batchOptions(args));
        if (cmd == "probes")
            return runProbes(batchOptions(args));
        if (cmd == "enroll")
            return runEnroll(serveOptions(args));
        if (cmd == "serve")
            return runServe(serveOptions(args));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_meter %s: %s\n", cmd.c_str(),
                     e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
    return 2;
}
