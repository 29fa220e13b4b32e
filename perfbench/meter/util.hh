/**
 * @file
 * Small helpers shared by the benchmark meter's subcommands: clocks,
 * a flat JSON writer, and the in-memory span recorder the traced runs
 * use.
 *
 * The measured phases print raw samples; perfbench/stats.py turns them
 * into medians, percentiles, latencies and self times, where that
 * arithmetic is unit-tested. Only the per-call layer probes reduce to a
 * median here.
 */

#ifndef PERFBENCH_METER_UTIL_HH
#define PERFBENCH_METER_UTIL_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds (steady_clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Seconds between two nowNs() stamps. */
inline double
secondsBetween(std::uint64_t start, std::uint64_t end)
{
    return static_cast<double>(end - start) * 1e-9;
}

/** CPUs this process may run on (what `nproc` prints). */
int nproc();

/**
 * Flat JSON object writer. Keys are emitted in insertion order;
 * values are numbers (all digits), strings, booleans, number arrays,
 * or pre-rendered JSON (nested objects).
 */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double value);
    JsonObject &count(const std::string &key, std::uint64_t value);
    JsonObject &str(const std::string &key, const std::string &value);
    JsonObject &flag(const std::string &key, bool value);
    JsonObject &nums(const std::string &key,
                     const std::vector<double> &values);
    JsonObject &raw(const std::string &key, const std::string &json);
    std::string render() const { return "{" + body_ + "}"; }

  private:
    void key(const std::string &k);
    std::string body_;
};

/** Escape @p s as a JSON string literal (quotes included). */
std::string jsonString(const std::string &s);

/**
 * In-memory span recorder for traced runs. A span names a call into
 * one layer; its parent is the span that was open on this recorder
 * when it began. Spans stay in memory until write() at the end of the
 * run, so recording costs two clock reads and a vector append.
 * Single-threaded: the meter opens spans only on its main thread.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        int id = 0;
        int parent = -1; //!< -1: root
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
    };

    /** RAII span; records on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, std::string name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        std::size_t index_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** JSON array of every span (ids, parents, ns stamps). */
    std::string toJson() const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_; //!< ids of the currently open spans
};

} // namespace perfbench

#endif // PERFBENCH_METER_UTIL_HH
