/**
 * @file
 * One event-loop thread of the serving daemon (see server.hh for the
 * threading model, DESIGN.md §5g for the loop). A reactor owns an
 * EventLoop and the connections assigned to it; reactor 0 also
 * accepts. Each connection keeps an OrderedWindow of pending
 * responses: frame k occupies slot k, shard completions are routed
 * back by their 64-bit token (connection id | absolute frame index),
 * and only the ready prefix is encoded and flushed, so pipelined
 * responses leave in request order. A shard worker posts completions
 * to the reactor's inbox and writes the eventfd only on the
 * empty -> non-empty transition. Nothing is shared between reactors
 * except the accept handoff.
 */

#ifndef FRACDRAM_SERVICE_REACTOR_HH
#define FRACDRAM_SERVICE_REACTOR_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "service/event_loop.hh"
#include "service/proto.hh"
#include "service/shard.hh"
#include "telemetry/metrics.hh"

namespace fracdram::service
{

class Server;

/**
 * Loop phases a reactor publishes while it works (gauge
 * `service.reactorN.phase`). The watchdog's stall detector reads the
 * phase of a reactor whose heartbeat froze, so a postmortem can say
 * *where* the loop is stuck, not just that it is.
 */
enum class ReactorPhase : int
{
    Idle = 0, //!< blocked waiting for events
    Accept,   //!< accepting / handing off new connections
    Read,     //!< draining a readable socket
    Dispatch, //!< decoding frames / submitting shard jobs
    Write,    //!< encoding responses / writev flush
    Control,  //!< eventfd drain (completions, adoptions)
    Tick,     //!< housekeeping scan (idle/stall timeouts)
};

constexpr int kNumReactorPhases = 7;

/** Stable lowercase name of a published phase value ("?" if bogus). */
const char *reactorPhaseName(int phase);

class Reactor final : public ResponseSink
{
  public:
    /**
     * @param server  owning daemon (config, shards, trace ring)
     * @param index   reactor number (0 accepts)
     * @param pin_cpu CPU to pin the loop thread to, -1 = no pinning
     * @param listen_fd the listen socket (reactor 0), else -1
     */
    Reactor(Server &server, int index, int pin_cpu, int listen_fd);
    ~Reactor() { join(); }

    void start() { loop_.start(pinCpu_); }
    void join();

    /**
     * Begin the graceful drain: stop accepting, shut the read side of
     * every connection, answer everything in flight, then exit the
     * loop. Callable from any thread; idempotent.
     */
    void requestDrain() { loop_.requestDrain(); }

    /**
     * Take ownership of an accepted, non-blocking socket. Called by
     * the accepting reactor's loop thread (round-robin handoff).
     */
    void adopt(int fd);

    /** ResponseSink: called by shard workers, routes by token. */
    void onResponse(std::uint64_t token, Response &&resp) override;

    /** Live connections owned by this reactor (loop-published). */
    std::size_t connCount() const
    {
        return connCount_.load(std::memory_order_relaxed);
    }

    int index() const { return index_; }

    /** Loop turns completed so far (any-thread read; stall probe). */
    std::uint64_t heartbeat() const
    {
        return heartbeat_.load(std::memory_order_relaxed);
    }

    /** Phase the loop is currently in (any-thread read). */
    int phaseNow() const
    {
        return phase_.load(std::memory_order_relaxed);
    }

  private:
    struct Conn;
    struct Completion
    {
        std::uint64_t token;
        Response resp;
    };

    void handleWake();
    void handleAccept(int fd);
    void adoptLocal(int fd);
    void handleReadable(Conn *conn);
    void dispatchFrame(Conn *conn, const std::vector<std::uint8_t> &payload);
    bool serveEntropyFromPool(Conn *conn, const Request &req,
                              std::uint64_t recv_ns);
    void maybeRefillPool();
    void onPoolRefill(std::uint64_t token, Response &&resp);
    void pumpConn(Conn *conn);
    void connClosed(Conn *conn);
    void endTurn(int n_events);
    void publishConnCount();
    void setPhase(ReactorPhase p);

    Server &server_;
    const int index_;
    const int pinCpu_;

    /** @name Cross-thread inboxes (guarded by mutex_) */
    /// @{
    std::mutex mutex_;
    std::vector<Completion> completions_;
    std::vector<int> adopted_;
    /// @}

    /** @name Loop-thread-only state */
    /// @{
    std::unordered_map<std::uint32_t, Conn *> connsById_;
    std::uint32_t nextConnId_ = 1;
    std::uint64_t acceptRr_ = 0; //!< handoff round-robin (reactor 0)
    std::vector<std::uint8_t> rdpayload_; //!< frame scratch (reused)
    std::size_t readShard_ = 0; //!< entropy shard for this read batch

    /**
     * @name Reactor-local conditioned-entropy pool
     * Conditioned GET_ENTROPY is DRBG output; the shards own the
     * DRBGs, but a request does not need a cross-thread round trip
     * per 32 bytes. The reactor keeps a slice of DRBG stream fetched
     * from the shards in bulk (one refill job per kPoolChunk bytes,
     * round-robin over shards so every DRBG keeps reseeding from its
     * QUAC device) and answers pool hits inline. Raw mode and pool
     * misses still take the shard path.
     */
    /// @{
    std::vector<std::uint8_t> pool_;
    std::size_t poolPos_ = 0;
    int poolShard_ = 0; //!< shard whose DRBG filled the current pool
    bool refillInFlight_ = false;
    /// @}
    /// @}

    std::atomic<std::size_t> connCount_{0};
    telemetry::GaugeId connsGauge_;

    /**
     * @name Loop forensics (see DESIGN.md §5i)
     * heartbeat_ bumps once per loop turn (the loop turns at least
     * every 100ms even idle, so a frozen heartbeat means a stuck
     * loop, not an idle one); phase_ names what the loop is doing
     * right now. Both are mirrored into gauges so the watchdog and
     * the flight recorder read them from ordinary snapshots.
     */
    /// @{
    std::atomic<std::uint64_t> heartbeat_{0};
    std::atomic<int> phase_{0};
    telemetry::GaugeId heartbeatGauge_;
    telemetry::GaugeId phaseGauge_;
    telemetry::HistogramId turnHist_; //!< busy-turn duration, ns
    telemetry::HistogramId lagHist_;  //!< tick lateness beyond 100ms
    int freezeMs_ = 0; //!< FRACDRAM_TEST_FREEZE_REACTOR test hook
    bool freezeArmed_ = false;
    /// @}

    EventLoop loop_; //!< last: its thread uses everything above
};

} // namespace fracdram::service

#endif // FRACDRAM_SERVICE_REACTOR_HH
