/**
 * @file
 * fracdram_router core: the fleet's level-2 tier (DESIGN.md §5j). One
 * service::EventLoop - the same loop core as the daemon's reactors,
 * with the same front-end limits (connection cap answered BUSY,
 * oversized frames answered ERROR, write-stalled clients dropped) -
 * terminates client connections speaking the daemon wire protocol
 * and fans the frames out over N daemon processes:
 *
 *  - placement: device-addressed work (PUF frames, GET_ENTROPY with
 *    kFlagDeviceId) routes by consistent hashing on the device id
 *    (fleet::HashRing, virtual nodes); anonymous entropy
 *    round-robins over the healthy daemons,
 *  - replication: PUF_ENROLL is additionally written to the key's
 *    first distinct ring successor, so the reference survives the
 *    primary owner's death (the replica's response is discarded -
 *    same-serial daemons materialize bit-identical devices, so both
 *    references verify). A PUF_RESPONSE answered with the
 *    no-reference sentinel (an owner restarted blank) is retried
 *    once at the key's other owner before the client sees it,
 *  - capability: work addressed to a vendor group that drops
 *    out-of-spec timing (J/K/L/N) is steered to a Frac-capable
 *    device (entropy - deterministic rewrite, invisible to the
 *    client) or answered with a typed CAPABILITY status (PUF, whose
 *    identity is the device) - never forwarded to time out,
 *  - health: a prober thread walks the daemons' /healthz endpoints
 *    (watchdog 503s count as failures); ejectAfter consecutive
 *    failures ejects a daemon from the ring walk, readmitAfter
 *    consecutive successes re-admits it (hysteresis, so a flapping
 *    daemon cannot thrash placement). A dead data connection ejects
 *    immediately, and its in-flight requests are re-routed once via
 *    the ring before the client would see an error,
 *  - observability: /metrics serves the router's own families plus
 *    the per-family sum of every healthy daemon's scrape, /fleet the
 *    topology JSON; client HEALTH/STATS frames are answered inline.
 *
 * Per-backend ordering does the response matching: each daemon
 * answers its one upstream connection in request order, so a FIFO of
 * in-flight descriptors per backend maps responses back to client
 * window slots without any id rewriting - the client's frame bytes
 * are forwarded verbatim (seq echo included) unless steering had to
 * rewrite the device id.
 */

#ifndef FRACDRAM_SERVICE_ROUTER_HH
#define FRACDRAM_SERVICE_ROUTER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/event_loop.hh"
#include "service/fleet.hh"
#include "service/http.hh"
#include "service/proto.hh"
#include "telemetry/metrics.hh"

namespace fracdram::fleet
{

using service::Request;
using service::Status;

/** One daemon the router fronts. */
struct BackendAddr
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;        //!< data (frame protocol) port
    std::uint16_t metricsPort = 0; //!< /healthz + /metrics; 0 = none
};

struct RouterConfig
{
    std::uint16_t port = 0; //!< client listen port; 0 = ephemeral
    int metricsPort = -1;   //!< router HTTP; -1 = off, 0 = ephemeral
    std::vector<BackendAddr> backends;
    int vnodes = 64;             //!< ring points per backend
    bool replicateEnroll = true; //!< PUF_ENROLL to ring successor
    bool steerIncapable = true;  //!< rewrite J/K/L/N entropy ids
    int probeIntervalMs = 250;
    int ejectAfter = 3;   //!< consecutive probe failures to eject
    int readmitAfter = 2; //!< consecutive successes to re-admit
    int upstreamTimeoutMs = 5000; //!< per-request backend deadline
    std::size_t maxConnections = 256;
};

class Router
{
  public:
    explicit Router(const RouterConfig &cfg);
    ~Router();

    /** @return false with @p err when nothing can be started. */
    bool start(std::string *err);

    /** Graceful drain: stop accepting, answer the in-flight window,
     *  then stop the loop, prober and HTTP tier. Idempotent. */
    void stop();

    std::uint16_t port() const { return port_; }
    std::uint16_t metricsPort() const
    {
        return http_ ? http_->port() : 0;
    }
    bool running() const { return running_; }

    /** @name Introspection (any thread; tests, /fleet) */
    /// @{
    std::size_t numBackends() const { return backends_.size(); }
    bool backendUp(std::size_t i) const;
    std::uint64_t ejections() const
    {
        return ejections_.load(std::memory_order_relaxed);
    }
    std::uint64_t readmissions() const
    {
        return readmissions_.load(std::memory_order_relaxed);
    }
    std::size_t activeConnections() const
    {
        return liveConns_.load(std::memory_order_relaxed);
    }
    std::uint64_t rejectedConnections() const
    {
        return rejected_.load(std::memory_order_relaxed);
    }
    std::string fleetJson() const;
    /** /metrics body: own families + healthy-backend aggregate. */
    std::string aggregateMetrics() const;
    /// @}

  private:
    /**
     * One queued-for-backend request awaiting its response. The
     * frame bytes are not retained: the protocol's encoding is
     * canonical (encode(decode(x)) == x), so a re-route after a
     * backend death regenerates the identical frame from the decoded
     * request. That keeps the forward hot path allocation-free.
     */
    struct Pending
    {
        std::uint32_t connId = 0; //!< 0 = replica write (discard)
        std::uint32_t absIdx = 0; //!< client window slot
        bool hasKey = false;
        std::uint32_t key = 0;
        int retriesLeft = 1; //!< ring re-routes on backend death
        Request req;         //!< decoded request, for resend
        std::uint64_t deadlineNs = 0;
    };

    struct BackendConn;
    struct RConn;

    /** Loop + prober state of one backend. */
    struct Backend
    {
        BackendAddr addr;
        // Loop-thread-only:
        BackendConn *conn = nullptr; //!< data link (owned by loop_)
        std::deque<Pending> inflight;
        bool dirty = false; //!< queued in dirtyBackends_
        //! Forwards not yet published to `forwarded`/telemetry;
        //! flushed per loop turn so the hot path touches no atomics.
        std::uint32_t fwdPending = 0;
        // Shared:
        std::atomic<bool> up{false};
        std::atomic<bool> wantEject{false};
        std::atomic<bool> wantReadmit{false};
        std::atomic<int> probeFails{0};
        std::atomic<int> probeOks{0};
        std::atomic<std::uint64_t> forwarded{0};
        std::atomic<std::uint64_t> replicated{0};
        std::atomic<std::uint64_t> failedOver{0};
        telemetry::GaugeId upGauge;
    };

    /** One ordered response slot of a client connection. */
    struct Slot
    {
        std::vector<std::uint8_t> payload; //!< response frame payload
        bool ready = false;
    };

    void handleAccept(int fd);
    void handleClientReadable(RConn *conn);
    void handleBackendReadable(std::size_t bi);
    void dispatchFrame(RConn *conn,
                       const std::vector<std::uint8_t> &payload);
    void inlineResponse(RConn *conn, const service::Response &resp);
    void completeSlot(std::uint32_t conn_id, std::uint32_t abs_idx,
                      std::vector<std::uint8_t> &&payload);
    void sendToBackend(std::size_t bi, Pending &&p,
                       const std::vector<std::uint8_t> &frame);
    bool connectBackend(std::size_t bi, std::string *err);
    void failBackend(std::size_t bi, const char *why);
    void applyBackendCommands();
    int pickRoundRobin();
    bool backendAlive(int bi) const;
    void pumpConn(RConn *conn);
    void markConnDirty(RConn *conn);
    void flushPending();
    void connClosed(RConn *conn);
    void publishConnCount();
    void expireUpstream(std::uint64_t now_ns);
    void proberLoop();
    bool probeBackend(std::size_t bi);

    const RouterConfig cfg_;
    HashRing ring_;
    std::vector<std::unique_ptr<Backend>> backends_;
    std::unique_ptr<service::HttpServer> http_;
    std::thread proberThread_;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> running_{false}; //!< read by the loop and HTTP threads
    std::uint64_t startNs_ = 0;

    /** @name Prober stop signal */
    /// @{
    std::mutex proberMutex_;
    std::condition_variable proberCv_;
    bool stopProber_ = false; //!< guarded by proberMutex_
    /// @}

    /** @name Loop-thread-only state */
    /// @{
    std::unordered_map<std::uint32_t, RConn *> connsById_;
    std::uint32_t nextConnId_ = 1;
    std::uint64_t rr_ = 0; //!< anonymous-entropy round-robin
    // Deferred-flush queues: forwarding and completion only append
    // to write queues and mark the owner dirty; flushPending() does
    // one write pass per loop turn, so a burst of frames costs one
    // syscall per peer instead of one per frame. A conn closed
    // during the turn stays allocated until the turn ends.
    std::vector<std::size_t> dirtyBackends_;
    std::vector<RConn *> dirtyConns_;
    /// @}

    /** @name Any-thread counters (mirrored into telemetry) */
    /// @{
    std::atomic<std::uint64_t> ejections_{0};
    std::atomic<std::uint64_t> readmissions_{0};
    std::atomic<std::uint64_t> steered_{0};
    std::atomic<std::uint64_t> capability_{0};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::size_t> liveConns_{0};
    /// @}

    /** @name Telemetry ids (interned at construction) */
    /// @{
    telemetry::CounterId forwardedCtr_, replicatedCtr_,
        failedOverCtr_, steeredCtr_, capabilityCtr_, ejectionsCtr_,
        readmissionsCtr_, acceptedCtr_, rejectedCtr_, badFramesCtr_,
        readThroughCtr_;
    telemetry::GaugeId connsGauge_;
    /// @}

    service::EventLoop loop_; //!< last: its thread uses everything above
};

} // namespace fracdram::fleet

#endif // FRACDRAM_SERVICE_ROUTER_HH
