#include "service/reactor.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "common/logging.hh"
#include "service/net.hh"
#include "service/server.hh"
#include "telemetry/trace.hh"

namespace fracdram::service
{

namespace
{

struct ConnCounters
{
    telemetry::CounterId accepted, rejected, rateLimited, badFrames;
    telemetry::CounterId jobs, entropyBytes, poolHits, poolRefills;
    telemetry::CounterId logSuppressed;
    telemetry::HistogramId writeBatch, requestNs;

    ConnCounters()
    {
        auto &m = telemetry::Metrics::instance();
        accepted = m.counter("service.conn_accepted");
        rejected = m.counter("service.conn_rejected");
        rateLimited = m.counter("service.rate_limited");
        badFrames = m.counter("service.bad_frames");
        // WARNs swallowed by warnTick(); renders as
        // fracdram_log_suppressed_total so flood suppression is
        // itself visible in /metrics.
        logSuppressed = m.counter("log.suppressed");
        // Same interned names the shards use: a request answered
        // from the reactor pool is still a served job.
        jobs = m.counter("service.jobs");
        entropyBytes = m.counter("service.entropy_bytes");
        poolHits = m.counter("service.pool_hits");
        poolRefills = m.counter("service.pool_refills");
        writeBatch = m.histogram("service.write_batch_frames");
        requestNs = m.histogram("service.request_ns");
    }
};

/**
 * Bulk size of one reactor-pool refill job. Clamped to the shard's
 * per-request entropy cap (a refill is an ordinary GET_ENTROPY job).
 */
constexpr std::size_t kPoolChunk = 256 * 1024;

const ConnCounters &
connCounters()
{
    static const ConnCounters c;
    return c;
}

/**
 * Gate for rate-limited WARNs: true at most once per @p period_ns
 * per @p gate, no matter how many threads hit it. Flood conditions
 * (connection cap, garbage frames) log one line with totals, not one
 * line per event.
 */
bool
warnTick(std::atomic<std::uint64_t> &gate,
         std::uint64_t period_ns = 5'000'000'000ull)
{
    const std::uint64_t now = monoNs();
    std::uint64_t last = gate.load(std::memory_order_relaxed);
    return (last == 0 || now - last >= period_ns) &&
           gate.compare_exchange_strong(last, now);
}

/**
 * Per-connection request rate limiter. Refills continuously, holds
 * up to one second of burst. Single-threaded (owned by one reactor).
 */
class TokenBucket
{
  public:
    explicit TokenBucket(double rate_per_sec)
        : rate_(rate_per_sec), tokens_(rate_per_sec),
          last_(std::chrono::steady_clock::now())
    {
    }

    bool active() const { return rate_ > 0.0; }

    bool allow()
    {
        const auto now = std::chrono::steady_clock::now();
        const double dt =
            std::chrono::duration<double>(now - last_).count();
        last_ = now;
        tokens_ = std::min(rate_, tokens_ + dt * rate_);
        if (tokens_ < 1.0)
            return false;
        tokens_ -= 1.0;
        return true;
    }

  private:
    double rate_;
    double tokens_;
    std::chrono::steady_clock::time_point last_;
};

/** Turn a completed timeline into pid-3 Chrome trace lanes. */
void
emitRequestSpans(const RequestTimeline &t)
{
    const auto span = [&t](const char *stage, std::uint64_t a,
                           std::uint64_t b) {
        if (b > a && a > 0)
            telemetry::traceRequestSpan(stage, t.requestId, a, b - a);
    };
    if (t.shard >= 0) {
        span("parse", t.recvNs, t.enqueueNs);
        span("queue_wait", t.enqueueNs, t.dequeueNs);
        span("batch", t.dequeueNs, t.genStartNs);
        span("generate", t.genStartNs, t.genEndNs);
        span("write", t.genEndNs, t.writeNs);
    } else {
        span("parse", t.recvNs, t.writeNs);
    }
}

} // namespace

const char *
reactorPhaseName(int phase)
{
    switch (static_cast<ReactorPhase>(phase)) {
    case ReactorPhase::Idle:
        return "idle";
    case ReactorPhase::Accept:
        return "accept";
    case ReactorPhase::Read:
        return "read";
    case ReactorPhase::Dispatch:
        return "shard-dispatch";
    case ReactorPhase::Write:
        return "writev";
    case ReactorPhase::Control:
        return "control";
    case ReactorPhase::Tick:
        return "tick";
    }
    return "?";
}

/**
 * One connection, touched only by its owning reactor thread. The
 * pending window holds one Slot per decoded frame in arrival order;
 * only its ready prefix is encoded into the write queue.
 */
struct Reactor::Conn final : BufferedConn
{
    struct Slot
    {
        Response resp;
        std::uint64_t recvNs = 0; //!< frame decoded (traced requests)
        int shard = -1;           //!< -1: answered inline
        bool ready = false;
    };

    Conn(Reactor &owner, int fd, std::uint32_t conn_id,
         double rate_per_sec)
        : BufferedConn(owner.loop_, fd), reactor(owner), id(conn_id),
          bucket(rate_per_sec)
    {
    }

    void onReadable() override
    {
        reactor.setPhase(ReactorPhase::Read);
        reactor.handleReadable(this);
    }

    void onWritable() override
    {
        reactor.setPhase(ReactorPhase::Write);
        pump();
    }

    void pump() override { reactor.pumpConn(this); }

    bool busy() const override { return !pending.empty() || hasOutput(); }

    void onClose() override { reactor.connClosed(this); }

    Reactor &reactor;
    const std::uint32_t id;
    FrameReader reader;
    TokenBucket bucket;
    OrderedWindow<Slot> pending;
    std::vector<RequestTimeline> traced; //!< encoded, not yet stamped
    std::size_t framesSinceFlush = 0;
};

Reactor::Reactor(Server &server, int index, int pin_cpu,
                 int listen_fd)
    : server_(server), index_(index), pinCpu_(pin_cpu),
      loop_(
          {[this] {
               setPhase(ReactorPhase::Control);
               handleWake();
           },
           [this](std::uint64_t, std::uint64_t late_ns) {
               // Lateness beyond the 100ms cadence is loop lag: time
               // the loop spent working (or stuck) instead of ticking.
               telemetry::observe(lagHist_, late_ns);
               setPhase(ReactorPhase::Tick);
           },
           [this](int n_events) { endTurn(n_events); }},
          server.cfg_.writeTimeoutMs, server.cfg_.idleTimeoutMs)
{
    if (listen_fd >= 0)
        loop_.listen(listen_fd, [this](int fd) { handleAccept(fd); });
    auto &m = telemetry::Metrics::instance();
    connsGauge_ = m.gauge(strprintf("service.reactor%d.conns", index));
    heartbeatGauge_ =
        m.gauge(strprintf("service.reactor%d.heartbeat", index));
    phaseGauge_ = m.gauge(strprintf("service.reactor%d.phase", index));
    turnHist_ =
        m.histogram(strprintf("service.reactor%d.turn_ns", index));
    lagHist_ =
        m.histogram(strprintf("service.reactor%d.loop_lag_ns", index));

    // Test hook for the stall detector: "<index>:<ms>" freezes that
    // reactor's loop for ms milliseconds when it adopts its first
    // connection (see adoptLocal). Never set outside tests/CI.
    if (const char *spec = std::getenv("FRACDRAM_TEST_FREEZE_REACTOR")) {
        int idx = -1, ms = 0;
        if (std::sscanf(spec, "%d:%d", &idx, &ms) == 2 &&
            idx == index_ && ms > 0) {
            freezeMs_ = ms;
            freezeArmed_ = true;
            warn("component=reactor%d TEST freeze hook armed: first "
                 "adopted connection stalls the loop for %dms",
                 index_, ms);
        }
    }
}

void
Reactor::setPhase(ReactorPhase p)
{
    // Two relaxed stores; the watchdog and flight recorder read the
    // gauge (snapshot path) or phase_ (direct accessor) from their
    // own threads. Exactness across the race is not required - a
    // *stuck* loop stops changing phase, which is the case we built
    // this for.
    phase_.store(static_cast<int>(p), std::memory_order_relaxed);
    telemetry::setGauge(phaseGauge_, static_cast<int>(p));
}

void
Reactor::join()
{
    loop_.join();
    setPhase(ReactorPhase::Idle);
    telemetry::setGauge(connsGauge_, 0);
}

void
Reactor::adopt(int fd)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        adopted_.push_back(fd);
    }
    loop_.wake(); // adopts are rare; always waking keeps them prompt
}

void
Reactor::onResponse(std::uint64_t token, Response &&resp)
{
    bool was_empty;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        was_empty = completions_.empty();
        completions_.push_back({token, std::move(resp)});
    }
    // One eventfd write per empty -> non-empty transition: a shard
    // finishing a 64-job batch wakes the reactor once, not 64 times.
    if (was_empty)
        loop_.wake();
}

void
Reactor::endTurn(int n_events)
{
    // The loop ends a turn at least every 100ms even idle, so a
    // frozen heartbeat always means a stuck loop.
    const std::uint64_t beats =
        heartbeat_.fetch_add(1, std::memory_order_relaxed) + 1;
    telemetry::setGauge(heartbeatGauge_,
                        static_cast<std::int64_t>(beats));
    // Busy turns only: at 10Hz an idle loop would drown the
    // histogram in near-zero samples.
    if (n_events > 0)
        telemetry::observe(turnHist_, monoNs() - loop_.nowNs());
    setPhase(ReactorPhase::Idle);
}

void
Reactor::handleWake()
{
    std::vector<Completion> done;
    std::vector<int> fds;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        done.swap(completions_);
        fds.swap(adopted_);
    }
    for (const int fd : fds)
        adoptLocal(fd);
    // Route everything first, then pump each touched connection once:
    // one writev flushes the whole completion batch per connection.
    std::vector<Conn *> touched;
    for (Completion &c : done) {
        if (static_cast<std::uint32_t>(c.token >> 32) == 0) {
            onPoolRefill(c.token, std::move(c.resp));
            continue;
        }
        const auto it = connsById_.find(
            static_cast<std::uint32_t>(c.token >> 32));
        if (it == connsById_.end())
            continue; // connection died with jobs in flight
        Conn *conn = it->second;
        Conn::Slot *slot =
            conn->pending.at(static_cast<std::uint32_t>(c.token));
        if (slot == nullptr)
            continue; // stale token
        slot->resp = std::move(c.resp);
        slot->ready = true;
        if (std::find(touched.begin(), touched.end(), conn) ==
            touched.end())
            touched.push_back(conn);
    }
    for (Conn *conn : touched)
        pumpConn(conn);
}

void
Reactor::handleAccept(int fd)
{
    setPhase(ReactorPhase::Accept);
    const auto &cfg = server_.cfg_;
    // Count live connections against the cap at accept time so a
    // storm cannot overshoot while handoffs are in flight.
    if (server_.liveConns_.load(std::memory_order_relaxed) >=
        cfg.maxConnections) {
        // Counted before the BUSY frame leaves, so a client that
        // reads it also sees the count.
        ++server_.rejected_;
        telemetry::count(connCounters().rejected);
        refuseConnection(fd);
        static std::atomic<std::uint64_t> gate{0};
        if (warnTick(gate)) {
            warn("component=server connection limit (%zu) reached; "
                 "rejecting with BUSY (%llu rejected so far)",
                 static_cast<std::size_t>(cfg.maxConnections),
                 static_cast<unsigned long long>(
                     server_.rejected_.load()));
        } else {
            telemetry::count(connCounters().logSuppressed);
        }
        return;
    }
    server_.liveConns_.fetch_add(1, std::memory_order_relaxed);
    ++server_.accepted_;
    telemetry::count(connCounters().accepted);
    Reactor *target =
        server_.reactors_[acceptRr_++ % server_.reactors_.size()].get();
    if (target == this)
        adoptLocal(fd);
    else
        target->adopt(fd);
    debug_log("service: accepted connection fd=%d -> reactor %d", fd,
              target->index());
}

void
Reactor::adoptLocal(int fd)
{
    if (loop_.draining()) {
        closeFd(fd);
        server_.liveConns_.fetch_sub(1, std::memory_order_relaxed);
        return;
    }
    if (freezeArmed_) {
        // Test hook: stall the loop mid-phase so CI can prove the
        // watchdog's stall detector fires and names this reactor.
        freezeArmed_ = false;
        warn("component=reactor%d TEST freeze hook firing: sleeping "
             "%dms on the loop thread",
             index_, freezeMs_);
        const timespec ts = {freezeMs_ / 1000,
                             (freezeMs_ % 1000) * 1'000'000L};
        ::nanosleep(&ts, nullptr);
    }
    auto conn = std::make_unique<Conn>(*this, fd, nextConnId_++,
                                       server_.cfg_.rateLimitPerConn);
    connsById_[conn->id] = conn.get();
    loop_.add(std::move(conn));
    publishConnCount();
}

void
Reactor::connClosed(Conn *conn)
{
    debug_log("service: closing connection fd=%d", conn->fd());
    connsById_.erase(conn->id);
    server_.liveConns_.fetch_sub(1, std::memory_order_relaxed);
    publishConnCount();
}

void
Reactor::publishConnCount()
{
    connCount_.store(loop_.clients(), std::memory_order_relaxed);
    telemetry::setGauge(connsGauge_,
                        static_cast<std::int64_t>(loop_.clients()));
}

void
Reactor::handleReadable(Conn *conn)
{
    const std::uint8_t *data = nullptr;
    const std::size_t n = conn->receive(data);
    if (n == 0)
        return;
    conn->touch();
    conn->reader.feed(data, n);
    // One entropy shard per read batch, not per frame: a pipelined
    // window dispatched whole lands as one big shard batch (one
    // worker wakeup, one coalesced generate()) instead of scattering
    // single jobs across every shard.
    readShard_ = server_.rr_.fetch_add(1, std::memory_order_relaxed) %
                 server_.shards_.size();
    setPhase(ReactorPhase::Dispatch);
    while (!conn->readClosed() && conn->reader.next(rdpayload_))
        dispatchFrame(conn, rdpayload_);
    if (!conn->reader.error().empty() && !conn->readClosed()) {
        // Oversized frame poisoned the reader: answer, then hang up.
        telemetry::count(connCounters().badFrames);
        Conn::Slot &slot = conn->pending.push();
        slot.resp = badFrameReply(nullptr, conn->reader.error());
        slot.ready = true;
        conn->stopReading();
    }
    setPhase(ReactorPhase::Write);
    pumpConn(conn);
}

void
Reactor::dispatchFrame(Conn *conn,
                       const std::vector<std::uint8_t> &payload)
{
    const auto &cc = connCounters();
    const std::uint64_t recv_ns =
        telemetry::enabled() ? telemetry::nowNs() : 0;
    Request req;
    std::string err;
    const auto push_inline = [&](Response &&resp) {
        Conn::Slot &slot = conn->pending.push();
        slot.resp = std::move(resp);
        slot.recvNs = recv_ns;
        slot.ready = true;
    };
    if (!decodeRequest(payload.data(), payload.size(), req, &err)) {
        telemetry::count(cc.badFrames);
        static std::atomic<std::uint64_t> gate{0};
        if (warnTick(gate)) {
            warn("component=server undecodable frame on fd=%d (%s); "
                 "closing connection",
                 conn->fd(), err.c_str());
        } else {
            telemetry::count(cc.logSuppressed);
        }
        push_inline(badFrameReply(&payload, err));
        conn->stopReading();
        return;
    }
    if (req.type == MsgType::Health) {
        push_inline(replyTo(req, Status::Ok, server_.healthJson()));
        return;
    }
    if (req.type == MsgType::Stats) {
        push_inline(replyTo(req, Status::Ok, server_.statsJson()));
        return;
    }
    if (conn->bucket.active() && !conn->bucket.allow()) {
        telemetry::count(cc.rateLimited);
        push_inline(replyTo(req, Status::RateLimited,
                            "per-connection rate limit"));
        return;
    }
    if (req.type == MsgType::GetEntropy &&
        serveEntropyFromPool(conn, req, recv_ns))
        return;
    // Device-addressed entropy routes like PUF (device affinity, so
    // one device's state lives on exactly one shard); anonymous
    // entropy round-robins over the shards' default devices.
    const std::size_t shard_idx =
        req.type == MsgType::GetEntropy &&
                (req.flags & kFlagDeviceId) == 0
            ? readShard_
            : req.device % server_.shards_.size();
    const std::uint32_t idx = conn->pending.next();
    Conn::Slot &slot = conn->pending.push();
    slot.recvNs = recv_ns;
    slot.shard = static_cast<int>(shard_idx);
    Job job;
    job.req = req;
    job.sink = this;
    job.token = (static_cast<std::uint64_t>(conn->id) << 32) | idx;
    if (!server_.shards_[shard_idx]->submit(std::move(job))) {
        slot.resp = replyTo(req, Status::Busy, "shard queue full");
        slot.shard = -1;
        slot.ready = true;
    }
}

bool
Reactor::serveEntropyFromPool(Conn *conn, const Request &req,
                              std::uint64_t recv_ns)
{
    if ((req.flags & kFlagRawEntropy) != 0)
        return false; // raw mode is device-rate-limited by design
    if ((req.flags & kFlagDeviceId) != 0)
        return false; // the pool is default-device DRBG stream only
    const std::size_t n = req.nBytes;
    if (n > server_.cfg_.shard.maxEntropyBytes)
        return false; // let the shard own the too-large error
    if (pool_.size() - poolPos_ < n) {
        maybeRefillPool(); // miss: shard answers this one, pool warms
        return false;
    }
    const auto &cc = connCounters();
    telemetry::count(cc.jobs);
    telemetry::count(cc.poolHits);
    telemetry::count(cc.entropyBytes, n);
    const std::uint8_t *bytes = pool_.data() + poolPos_;
    poolPos_ += n;
    // A pool hit never queues and never generates; its stage stamps
    // collapse to one instant, which keeps the timeline monotonic and
    // makes the fast path self-identifying in /varz (queue_wait ==
    // generate == 0).
    const bool traced =
        telemetry::enabled() && (req.flags & kFlagRequestId) != 0;
    const std::uint64_t now = traced ? telemetry::nowNs() : 0;
    if (conn->pending.empty()) {
        // Empty window: this response leaves in order by
        // construction, so encode straight into the write queue - no
        // Slot, no Response, one copy of the entropy bytes. In a
        // pool-warm pipelined burst every frame takes this branch
        // (the window drains as fast as it would fill).
        appendEntropyOkFrame(conn->outChunk(), req, bytes, n);
        ++conn->framesSinceFlush;
        conn->pending.skip();
        if (traced) {
            RequestTimeline t;
            t.requestId = req.requestId;
            t.type = static_cast<std::uint8_t>(MsgType::GetEntropy);
            t.status = static_cast<std::uint8_t>(Status::Ok);
            t.shard = poolShard_;
            t.recvNs = recv_ns;
            t.enqueueNs = t.dequeueNs = t.genStartNs = t.genEndNs = now;
            conn->traced.push_back(t);
        }
    } else {
        Conn::Slot &slot = conn->pending.push();
        Response &resp = slot.resp;
        resp.type = MsgType::GetEntropy;
        resp.seq = req.seq;
        resp.status = Status::Ok;
        resp.data.assign(bytes, bytes + n);
        echoRequestId(resp, req);
        resp.stamps.enqueueNs = resp.stamps.dequeueNs = now;
        resp.stamps.genStartNs = resp.stamps.genEndNs = now;
        slot.recvNs = recv_ns;
        slot.shard = poolShard_; //!< DRBG owner: a real stage attribution
        slot.ready = true;
    }
    maybeRefillPool();
    return true;
}

void
Reactor::maybeRefillPool()
{
    const std::size_t chunk = std::min(
        kPoolChunk,
        static_cast<std::size_t>(server_.cfg_.shard.maxEntropyBytes));
    if (refillInFlight_ || chunk == 0 ||
        pool_.size() - poolPos_ >= chunk)
        return;
    const std::size_t shard_idx =
        server_.rr_.fetch_add(1, std::memory_order_relaxed) %
        server_.shards_.size();
    Job job;
    job.req.type = MsgType::GetEntropy;
    job.req.nBytes = static_cast<std::uint32_t>(chunk);
    job.sink = this;
    // Connection ids start at 1, so the id-0 namespace addresses the
    // pool; the low bits carry the producing shard for attribution.
    job.token = shard_idx;
    if (server_.shards_[shard_idx]->submit(std::move(job)))
        refillInFlight_ = true;
    // A full queue just means the refill waits for the next hit.
}

void
Reactor::onPoolRefill(std::uint64_t token, Response &&resp)
{
    refillInFlight_ = false;
    if (resp.status != Status::Ok)
        return; // saturated shard: the pool refills on a later hit
    telemetry::count(connCounters().poolRefills);
    poolShard_ = static_cast<int>(token);
    if (poolPos_ > 0) {
        pool_.erase(pool_.begin(),
                    pool_.begin() + static_cast<long>(poolPos_));
        poolPos_ = 0;
    }
    pool_.insert(pool_.end(), resp.data.begin(), resp.data.end());
}

void
Reactor::pumpConn(Conn *conn)
{
    const auto encode = [conn](Conn::Slot &slot) {
        appendResponseFrame(conn->outChunk(), slot.resp);
        if (telemetry::enabled() &&
            (slot.resp.flags & kFlagRequestId) != 0) {
            RequestTimeline t;
            t.requestId = slot.resp.requestId;
            t.type = static_cast<std::uint8_t>(slot.resp.type);
            t.status = static_cast<std::uint8_t>(slot.resp.status);
            t.shard = slot.shard;
            t.recvNs = slot.recvNs;
            t.enqueueNs = slot.resp.stamps.enqueueNs;
            t.dequeueNs = slot.resp.stamps.dequeueNs;
            t.genStartNs = slot.resp.stamps.genStartNs;
            t.genEndNs = slot.resp.stamps.genEndNs;
            conn->traced.push_back(t);
        }
    };
    conn->framesSinceFlush += conn->pending.popReady(encode);
    if (conn->framesSinceFlush > 0) {
        telemetry::observe(connCounters().writeBatch,
                           conn->framesSinceFlush);
        conn->framesSinceFlush = 0;
    }
    if (!conn->flush())
        return; // connection died (its traced batch dies with it)
    if (!conn->traced.empty()) {
        // One stamp for the whole batch: the requests left the
        // daemon together in one writev call.
        const std::uint64_t write_ns = telemetry::nowNs();
        const auto &cc = connCounters();
        for (RequestTimeline &t : conn->traced) {
            t.writeNs = write_ns;
            telemetry::observe(cc.requestNs, write_ns > t.recvNs
                                                 ? write_ns - t.recvNs
                                                 : 0);
            server_.traceRing_.push(t);
            emitRequestSpans(t);
        }
        conn->traced.clear();
    }
    if (conn->readClosed() && !conn->busy())
        conn->close();
}

} // namespace fracdram::service
