#include "service/router.hh"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/logging.hh"
#include "service/net.hh"
#include "telemetry/prom.hh"

namespace fracdram::fleet
{

using service::appendFrame;
using service::badFrameReply;
using service::decodeRequest;
using service::encodeRequest;
using service::encodeResponse;
using service::FrameReader;
using service::kFlagDeviceId;
using service::monoNs;
using service::MsgType;
using service::replyTo;
using service::Request;
using service::Response;
using service::Status;

namespace
{

/**
 * True when @p payload is an OK PUF_RESPONSE carrying the
 * no-reference hamming sentinel - the answer of a device that
 * evaluated the challenge but holds no enrolled reference (e.g. a
 * re-admitted daemon restarted blank). Cheap sentinel pre-filter
 * first; full decode only to rule out error-text false positives.
 */
bool
lacksReference(const std::vector<std::uint8_t> &payload)
{
    const std::size_t n = payload.size();
    if (n < 4 || payload[n - 4] != 0xff || payload[n - 3] != 0xff ||
        payload[n - 2] != 0xff || payload[n - 1] != 0xff)
        return false;
    service::Response resp;
    if (!service::decodeResponse(payload.data(), n, resp, nullptr))
        return false;
    return resp.type == MsgType::PufResponse &&
           resp.status == Status::Ok &&
           resp.hamming == service::kNoHamming;
}

} // namespace

/** A client connection: frames in, the ordered window out. */
struct Router::RConn final : service::BufferedConn
{
    RConn(Router &owner, int fd, std::uint32_t conn_id)
        : BufferedConn(owner.loop_, fd), router(owner), id(conn_id)
    {
    }

    void onReadable() override { router.handleClientReadable(this); }
    void pump() override { router.pumpConn(this); }
    bool busy() const override { return !window.empty() || hasOutput(); }
    void onClose() override { router.connClosed(this); }

    Router &router;
    const std::uint32_t id;
    FrameReader reader;
    service::OrderedWindow<Slot> window;
    bool dirty = false; //!< queued in dirtyConns_
};

/** The data link to one daemon; a loss ejects the daemon. */
struct Router::BackendConn final : service::BufferedConn
{
    BackendConn(Router &owner, int fd, std::size_t backend)
        : BufferedConn(owner.loop_, fd, /*upstream=*/true),
          router(owner), index(backend)
    {
    }

    void onReadable() override { router.handleBackendReadable(index); }
    void onClose() override
    {
        if (router.backends_[index]->conn == this)
            router.failBackend(index, "connection lost");
    }

    Router &router;
    const std::size_t index;
    FrameReader reader;
};

Router::Router(const RouterConfig &cfg)
    : cfg_(cfg), ring_(cfg.vnodes),
      loop_({[this] { applyBackendCommands(); },
             [this](std::uint64_t now_ns, std::uint64_t) {
                 expireUpstream(now_ns);
             },
             [this](int) { flushPending(); }},
            cfg.upstreamTimeoutMs, 0)
{
    auto &m = telemetry::Metrics::instance();
    forwardedCtr_ = m.counter("router.forwarded");
    replicatedCtr_ = m.counter("router.replicated");
    failedOverCtr_ = m.counter("router.failed_over");
    steeredCtr_ = m.counter("router.steered");
    capabilityCtr_ = m.counter("router.capability");
    ejectionsCtr_ = m.counter("router.ejections");
    readmissionsCtr_ = m.counter("router.readmissions");
    acceptedCtr_ = m.counter("router.conn_accepted");
    rejectedCtr_ = m.counter("router.conn_rejected");
    badFramesCtr_ = m.counter("router.bad_frames");
    readThroughCtr_ = m.counter("router.verify_read_through");
    connsGauge_ = m.gauge("router.connections");
    for (std::size_t i = 0; i < cfg.backends.size(); ++i) {
        auto b = std::make_unique<Backend>();
        b->addr = cfg.backends[i];
        b->upGauge = m.gauge(strprintf("router.backend%zu.up", i));
        backends_.push_back(std::move(b));
        ring_.addNode(static_cast<int>(i));
    }
}

Router::~Router()
{
    stop();
    service::closeFd(listenFd_);
}

bool
Router::start(std::string *err)
{
    if (backends_.empty()) {
        if (err != nullptr)
            *err = "router needs at least one backend";
        return false;
    }
    listenFd_ = service::listenTcp(cfg_.port, err);
    if (listenFd_ < 0)
        return false;
    port_ = service::boundPort(listenFd_);
    loop_.listen(listenFd_, [this](int fd) { handleAccept(fd); });
    startNs_ = monoNs();

    // Connect what answers now; the prober re-admits the rest when
    // they come up, so a router may start before its daemons.
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        std::string cerr;
        if (!connectBackend(i, &cerr))
            warn("component=router backend %zu (%s:%u) not connected "
                 "at startup: %s",
                 i, backends_[i]->addr.host.c_str(),
                 backends_[i]->addr.port, cerr.c_str());
    }

    if (cfg_.metricsPort >= 0) {
        http_ = std::make_unique<service::HttpServer>();
        http_->route("/metrics", [this](const service::HttpRequest &) {
            service::HttpResponse resp;
            resp.contentType =
                "text/plain; version=0.0.4; charset=utf-8";
            resp.body = aggregateMetrics();
            return resp;
        });
        http_->route("/fleet", [this](const service::HttpRequest &) {
            service::HttpResponse resp;
            resp.contentType = "application/json";
            resp.body = fleetJson();
            return resp;
        });
        http_->route("/healthz", [this](const service::HttpRequest &) {
            service::HttpResponse resp;
            std::size_t up = 0;
            for (const auto &b : backends_)
                up += b->up.load(std::memory_order_relaxed) ? 1 : 0;
            if (up == 0) {
                resp.status = 503;
                resp.body = "unhealthy: no live backend\n";
            } else {
                resp.body = "ok\n";
            }
            return resp;
        });
        if (!http_->start(
                static_cast<std::uint16_t>(cfg_.metricsPort), err))
            return false;
    }

    loop_.start();
    proberThread_ = std::thread(&Router::proberLoop, this);
    running_ = true;
    return true;
}

void
Router::stop()
{
    if (!running_)
        return;
    loop_.requestDrain();
    loop_.join();
    // The loop closed the backend links on its way out.
    for (auto &b : backends_)
        b->conn = nullptr;
    service::closeFd(listenFd_);
    listenFd_ = -1;
    {
        std::lock_guard<std::mutex> lock(proberMutex_);
        stopProber_ = true;
    }
    proberCv_.notify_all();
    proberThread_.join();
    if (http_)
        http_->stop();
    running_ = false;
}

bool
Router::backendUp(std::size_t i) const
{
    return i < backends_.size() &&
           backends_[i]->up.load(std::memory_order_relaxed);
}

bool
Router::backendAlive(int bi) const
{
    const Backend &b = *backends_[static_cast<std::size_t>(bi)];
    return b.conn != nullptr && b.up.load(std::memory_order_relaxed);
}

bool
Router::connectBackend(std::size_t bi, std::string *err)
{
    Backend &b = *backends_[bi];
    const int fd = service::connectTcp(b.addr.host, b.addr.port, err);
    if (fd < 0)
        return false;
    service::setNonBlocking(fd);
    auto conn = std::make_unique<BackendConn>(*this, fd, bi);
    b.conn = conn.get();
    loop_.add(std::move(conn));
    b.up.store(true, std::memory_order_relaxed);
    telemetry::setGauge(b.upGauge, 1);
    return true;
}

void
Router::failBackend(std::size_t bi, const char *why)
{
    Backend &b = *backends_[bi];
    if (b.conn != nullptr) {
        BackendConn *conn = b.conn;
        b.conn = nullptr;
        conn->close();
    }
    const bool was_up = b.up.exchange(false, std::memory_order_relaxed);
    telemetry::setGauge(b.upGauge, 0);
    b.probeOks.store(0, std::memory_order_relaxed);
    if (was_up) {
        ejections_.fetch_add(1, std::memory_order_relaxed);
        telemetry::count(ejectionsCtr_);
        warn("component=router backend %zu (%s:%u) ejected: %s "
             "(inflight=%zu re-routed)",
             bi, b.addr.host.c_str(), b.addr.port, why,
             b.inflight.size());
    }

    // Re-route the lost window through the ring (excluding the dead
    // node via the aliveness filter) before any client sees an error.
    std::deque<Pending> orphans;
    orphans.swap(b.inflight);
    for (Pending &p : orphans) {
        if (p.connId == 0)
            continue; // replica write; the primary still answers
        int np = -1;
        if (p.retriesLeft > 0) {
            np = p.hasKey
                     ? ring_.owner(p.key,
                                   [this](int n) {
                                       return backendAlive(n);
                                   })
                     : pickRoundRobin();
        }
        if (np >= 0) {
            --p.retriesLeft;
            backends_[static_cast<std::size_t>(np)]
                ->failedOver.fetch_add(1, std::memory_order_relaxed);
            telemetry::count(failedOverCtr_);
            // Canonical encoding regenerates the original frame
            // byte for byte from the decoded request.
            const auto frame = encodeRequest(p.req);
            sendToBackend(static_cast<std::size_t>(np), std::move(p),
                          frame);
            continue;
        }
        completeSlot(p.connId, p.absIdx,
                     encodeResponse(replyTo(p.req, Status::Error,
                                            "backend lost mid-request")));
    }
}

int
Router::pickRoundRobin()
{
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        const std::size_t n = (rr_++) % backends_.size();
        if (backendAlive(static_cast<int>(n)))
            return static_cast<int>(n);
    }
    return -1;
}

void
Router::sendToBackend(std::size_t bi, Pending &&p,
                      const std::vector<std::uint8_t> &frame)
{
    Backend &b = *backends_[bi];
    appendFrame(b.conn->outChunk(), frame);
    b.inflight.push_back(std::move(p));
    // Published (atomic + telemetry) in one batch by flushPending();
    // two shared-counter updates per frame would be the single
    // largest per-request cost left on this path.
    ++b.fwdPending;
    if (!b.dirty) {
        b.dirty = true;
        dirtyBackends_.push_back(bi);
    }
}

void
Router::handleBackendReadable(std::size_t bi)
{
    Backend &b = *backends_[bi];
    BackendConn *conn = b.conn;
    const std::uint8_t *data = nullptr;
    const std::size_t n = conn->receive(data);
    if (n == 0)
        return; // EOF or error: the link closes and onClose ejects
    conn->reader.feed(data, n);
    std::vector<std::uint8_t> payload;
    while (conn->reader.next(payload)) {
        if (b.inflight.empty()) {
            failBackend(bi, "unsolicited response");
            return;
        }
        Pending p = std::move(b.inflight.front());
        b.inflight.pop_front();
        if (p.connId == 0)
            continue; // replica enrollment ack
        if (p.retriesLeft > 0 && p.hasKey &&
            p.req.type == MsgType::PufResponse &&
            lacksReference(payload)) {
            // Verify read-through: this owner evaluated the
            // challenge but holds no enrolled reference (typically a
            // re-admitted daemon that restarted blank). The key's
            // other owner may still hold it - replication wrote the
            // enrollment to both - so retry there once instead of
            // surfacing the blank answer.
            const auto owners = ring_.owners(
                p.key, [this](int n) { return backendAlive(n); });
            int alt = -1;
            if (owners.first >= 0 &&
                static_cast<std::size_t>(owners.first) != bi)
                alt = owners.first;
            else if (owners.second >= 0 &&
                     static_cast<std::size_t>(owners.second) != bi)
                alt = owners.second;
            if (alt >= 0) {
                --p.retriesLeft;
                telemetry::count(readThroughCtr_);
                const auto frame = encodeRequest(p.req);
                sendToBackend(static_cast<std::size_t>(alt),
                              std::move(p), frame);
                payload.clear();
                continue;
            }
        }
        completeSlot(p.connId, p.absIdx, std::move(payload));
        // In-order completions never move the buffer out, so its
        // capacity is reused across the whole burst.
        payload.clear();
    }
    if (!conn->reader.error().empty())
        failBackend(bi, "oversized response frame");
}

void
Router::completeSlot(std::uint32_t conn_id, std::uint32_t abs_idx,
                     std::vector<std::uint8_t> &&payload)
{
    const auto it = connsById_.find(conn_id);
    if (it == connsById_.end())
        return; // client went away while the request was upstream
    RConn *conn = it->second;
    Slot *slot = conn->window.at(abs_idx);
    if (slot == nullptr)
        return;
    if (abs_idx == conn->window.base()) {
        // In-order completion (the only case with a single live
        // backend): skip the slot copy and append straight to the
        // write queue; the flush drains any successors it unblocks.
        appendFrame(conn->outChunk(), payload);
        conn->window.pop();
    } else {
        slot->payload = std::move(payload);
        slot->ready = true;
    }
    markConnDirty(conn);
}

void
Router::markConnDirty(RConn *conn)
{
    if (conn->dirty)
        return;
    conn->dirty = true;
    dirtyConns_.push_back(conn);
}

void
Router::flushPending()
{
    // Backends first: flushing one can fail it, which re-routes its
    // inflight work (growing dirtyBackends_) and completes slots
    // (growing dirtyConns_); index loops absorb both.
    for (std::size_t i = 0; i < dirtyBackends_.size(); ++i) {
        Backend &b = *backends_[dirtyBackends_[i]];
        b.dirty = false;
        if (b.fwdPending != 0) {
            b.forwarded.fetch_add(b.fwdPending,
                                  std::memory_order_relaxed);
            telemetry::count(forwardedCtr_, b.fwdPending);
            b.fwdPending = 0;
        }
        if (b.conn != nullptr)
            b.conn->flush();
    }
    dirtyBackends_.clear();
    for (std::size_t i = 0; i < dirtyConns_.size(); ++i) {
        RConn *conn = dirtyConns_[i];
        conn->dirty = false;
        if (!conn->closed())
            pumpConn(conn);
    }
    dirtyConns_.clear();
}

void
Router::handleAccept(int fd)
{
    if (loop_.clients() >= cfg_.maxConnections) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        telemetry::count(rejectedCtr_);
        service::refuseConnection(fd);
        return;
    }
    auto conn = std::make_unique<RConn>(*this, fd, nextConnId_++);
    connsById_[conn->id] = conn.get();
    loop_.add(std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count(acceptedCtr_);
    publishConnCount();
}

void
Router::handleClientReadable(RConn *conn)
{
    const std::uint8_t *data = nullptr;
    const std::size_t n = conn->receive(data);
    if (n == 0)
        return;
    conn->reader.feed(data, n);
    // next() assigns into the same vector, so a whole burst of
    // frames reuses one buffer; dispatchFrame never takes the bytes.
    std::vector<std::uint8_t> payload;
    while (!conn->readClosed() && conn->reader.next(payload))
        dispatchFrame(conn, payload);
    if (!conn->reader.error().empty() && !conn->readClosed()) {
        // Oversized frame poisoned the reader: answer, then hang up.
        telemetry::count(badFramesCtr_);
        inlineResponse(conn, badFrameReply(nullptr, conn->reader.error()));
        conn->stopReading();
    }
    pumpConn(conn);
}

void
Router::inlineResponse(RConn *conn, const Response &resp)
{
    Slot &slot = conn->window.push();
    slot.payload = encodeResponse(resp);
    slot.ready = true;
}

void
Router::dispatchFrame(RConn *conn,
                      const std::vector<std::uint8_t> &payload)
{
    Request req;
    std::string err;
    if (!decodeRequest(payload.data(), payload.size(), req, &err)) {
        telemetry::count(badFramesCtr_);
        inlineResponse(conn, badFrameReply(&payload, err));
        conn->stopReading();
        return;
    }
    if (req.type == MsgType::Health || req.type == MsgType::Stats) {
        inlineResponse(conn, replyTo(req, Status::Ok, fleetJson()));
        return;
    }

    bool has_key = false;
    std::uint32_t key = 0;
    bool rewritten = false;
    if (req.type == MsgType::GetEntropy) {
        if ((req.flags & kFlagDeviceId) != 0) {
            if (!deviceSupportsQuac(req.device)) {
                if (cfg_.steerIncapable) {
                    // Steer the work to a capable device: entropy has
                    // no device identity the client can observe, so
                    // the rewrite is invisible (and deterministic, so
                    // the stream still comes from one device).
                    req.device = steerToCapable(req.device);
                    rewritten = true;
                    steered_.fetch_add(1, std::memory_order_relaxed);
                    telemetry::count(steeredCtr_);
                } else {
                    capability_.fetch_add(1,
                                          std::memory_order_relaxed);
                    telemetry::count(capabilityCtr_);
                    inlineResponse(
                        conn,
                        replyTo(req, Status::Capability,
                                strprintf("device %u is in a vendor "
                                          "group that cannot do the "
                                          "four-row activation "
                                          "QUAC-TRNG needs",
                                          req.device)));
                    return;
                }
            }
            has_key = true;
            key = req.device;
        }
    } else {
        // PUF work: the device *is* the identity, so incapable
        // groups get a typed CAPABILITY answer instead of steering.
        if (!deviceSupportsFrac(req.device)) {
            capability_.fetch_add(1, std::memory_order_relaxed);
            telemetry::count(capabilityCtr_);
            inlineResponse(
                conn, replyTo(req, Status::Capability,
                              strprintf("device %u is in a vendor "
                                        "group whose timing checkers "
                                        "drop the out-of-spec Frac "
                                        "sequence",
                                        req.device)));
            return;
        }
        has_key = true;
        key = req.device;
    }

    int primary = -1, secondary = -1;
    if (has_key) {
        const auto owners = ring_.owners(
            key, [this](int n) { return backendAlive(n); });
        primary = owners.first;
        secondary = owners.second;
    } else {
        primary = pickRoundRobin();
    }
    if (primary < 0) {
        inlineResponse(conn, replyTo(req, Status::Error,
                                     "no healthy backend"));
        return;
    }

    Pending p;
    p.connId = conn->id;
    p.absIdx = conn->window.next();
    conn->window.push();
    p.hasKey = has_key;
    p.key = key;
    p.req = req;
    p.deadlineNs =
        loop_.nowNs() +
        static_cast<std::uint64_t>(cfg_.upstreamTimeoutMs) * 1'000'000;
    // A steered request needs a rewritten frame; everything else
    // forwards the client's bytes untouched (the length prefix is
    // written by sendToBackend).
    std::vector<std::uint8_t> steered_frame;
    if (rewritten)
        steered_frame = encodeRequest(req);
    const std::vector<std::uint8_t> &frame =
        rewritten ? steered_frame : payload;

    // Replicate enrollment to the ring successor before the primary
    // write so a primary that dies mid-batch cannot leave the key
    // un-replicated; the replica's response is discarded.
    if (req.type == MsgType::PufEnroll && cfg_.replicateEnroll &&
        secondary >= 0) {
        Pending rep;
        rep.connId = 0;
        rep.hasKey = true;
        rep.key = key;
        rep.retriesLeft = 0;
        rep.req = req;
        rep.deadlineNs = p.deadlineNs;
        backends_[static_cast<std::size_t>(secondary)]
            ->replicated.fetch_add(1, std::memory_order_relaxed);
        telemetry::count(replicatedCtr_);
        sendToBackend(static_cast<std::size_t>(secondary),
                      std::move(rep), frame);
    }
    sendToBackend(static_cast<std::size_t>(primary), std::move(p),
                  frame);
}

void
Router::pumpConn(RConn *conn)
{
    conn->window.popReady([conn](Slot &slot) {
        appendFrame(conn->outChunk(), slot.payload);
    });
    conn->BufferedConn::pump();
}

void
Router::connClosed(RConn *conn)
{
    connsById_.erase(conn->id);
    publishConnCount();
}

void
Router::publishConnCount()
{
    liveConns_.store(loop_.clients(), std::memory_order_relaxed);
    telemetry::setGauge(connsGauge_,
                        static_cast<std::int64_t>(loop_.clients()));
}

void
Router::applyBackendCommands()
{
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        Backend &b = *backends_[i];
        if (b.wantEject.exchange(false, std::memory_order_relaxed)) {
            if (b.up.load(std::memory_order_relaxed))
                failBackend(i, "health probes failing");
        }
        if (b.wantReadmit.exchange(false,
                                   std::memory_order_relaxed)) {
            if (!b.up.load(std::memory_order_relaxed)) {
                std::string err;
                if (connectBackend(i, &err)) {
                    readmissions_.fetch_add(
                        1, std::memory_order_relaxed);
                    telemetry::count(readmissionsCtr_);
                    warn("component=router backend %zu (%s:%u) "
                         "re-admitted after %d healthy probes",
                         i, b.addr.host.c_str(), b.addr.port,
                         cfg_.readmitAfter);
                } else {
                    b.probeOks.store(0, std::memory_order_relaxed);
                }
            }
        }
    }
}

void
Router::expireUpstream(std::uint64_t now_ns)
{
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        Backend &b = *backends_[i];
        if (b.conn != nullptr && !b.inflight.empty() &&
            now_ns > b.inflight.front().deadlineNs)
            failBackend(i, "upstream response timeout");
    }
}

bool
Router::probeBackend(std::size_t bi)
{
    Backend &b = *backends_[bi];
    if (b.addr.metricsPort != 0) {
        service::HttpResult res;
        std::string err;
        if (!service::httpGet(b.addr.host, b.addr.metricsPort,
                              "/healthz", res, &err))
            return false;
        // A watchdog-unhealthy daemon answers 503: treat it exactly
        // like a dead one so SLO breaches also eject.
        return res.status == 200;
    }
    // No metrics port: fall back to a TCP liveness probe.
    std::string err;
    const int fd = service::connectTcp(b.addr.host, b.addr.port, &err);
    if (fd < 0)
        return false;
    service::closeFd(fd);
    return true;
}

void
Router::proberLoop()
{
    std::unique_lock<std::mutex> lock(proberMutex_);
    while (!stopProber_) {
        lock.unlock();
        for (std::size_t i = 0; i < backends_.size(); ++i) {
            Backend &b = *backends_[i];
            const bool ok = probeBackend(i);
            if (ok) {
                b.probeFails.store(0, std::memory_order_relaxed);
                const int oks =
                    b.probeOks.fetch_add(1,
                                         std::memory_order_relaxed) +
                    1;
                if (!b.up.load(std::memory_order_relaxed) &&
                    oks >= cfg_.readmitAfter) {
                    b.wantReadmit.store(true,
                                        std::memory_order_relaxed);
                    loop_.wake();
                }
            } else {
                b.probeOks.store(0, std::memory_order_relaxed);
                const int fails =
                    b.probeFails.fetch_add(
                        1, std::memory_order_relaxed) +
                    1;
                if (b.up.load(std::memory_order_relaxed) &&
                    fails >= cfg_.ejectAfter) {
                    b.wantEject.store(true,
                                      std::memory_order_relaxed);
                    loop_.wake();
                }
            }
        }
        lock.lock();
        proberCv_.wait_for(lock,
                           std::chrono::milliseconds(cfg_.probeIntervalMs),
                           [this] { return stopProber_; });
    }
}

std::string
Router::fleetJson() const
{
    std::ostringstream os;
    os << "{\"status\": \"" << (running_ ? "ok" : "stopped")
       << "\", \"role\": \"router\", \"vnodes_per_backend\": "
       << cfg_.vnodes << ", \"replication\": "
       << (cfg_.replicateEnroll ? "true" : "false")
       << ", \"uptime_s\": " << (monoNs() - startNs_) / 1'000'000'000
       << ", \"connections\": "
       << liveConns_.load(std::memory_order_relaxed)
       << ", \"accepted\": "
       << accepted_.load(std::memory_order_relaxed)
       << ", \"rejected\": "
       << rejected_.load(std::memory_order_relaxed)
       << ", \"steered\": "
       << steered_.load(std::memory_order_relaxed)
       << ", \"capability_rejected\": "
       << capability_.load(std::memory_order_relaxed)
       << ", \"ejections\": "
       << ejections_.load(std::memory_order_relaxed)
       << ", \"readmissions\": "
       << readmissions_.load(std::memory_order_relaxed)
       << ", \"backends\": [";
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        const Backend &b = *backends_[i];
        if (i > 0)
            os << ", ";
        os << "{\"host\": \"" << b.addr.host
           << "\", \"port\": " << b.addr.port
           << ", \"metrics_port\": " << b.addr.metricsPort
           << ", \"state\": \""
           << (b.up.load(std::memory_order_relaxed) ? "up"
                                                    : "ejected")
           << "\", \"forwarded\": "
           << b.forwarded.load(std::memory_order_relaxed)
           << ", \"replicated\": "
           << b.replicated.load(std::memory_order_relaxed)
           << ", \"failed_over\": "
           << b.failedOver.load(std::memory_order_relaxed) << "}";
    }
    os << "]}";
    return os.str();
}

std::string
Router::aggregateMetrics() const
{
    std::string out = telemetry::renderProm(
        telemetry::Metrics::instance().snapshot());

    // Scrape every live backend and sum series by full
    // `name{labels}` key. Counters add; cumulative histogram buckets
    // add bucket-wise; gauges come out as fleet sums (documented in
    // DESIGN.md §5j). The first scrape's comment lines carry the
    // HELP/TYPE metadata.
    std::vector<std::string> bodies;
    std::size_t scraped = 0;
    for (const auto &b : backends_) {
        if (b->addr.metricsPort == 0 ||
            !b->up.load(std::memory_order_relaxed))
            continue;
        service::HttpResult res;
        std::string err;
        if (!service::httpGet(b->addr.host, b->addr.metricsPort,
                              "/metrics", res, &err) ||
            res.status != 200)
            continue;
        bodies.push_back(std::move(res.body));
        ++scraped;
    }
    out += strprintf("# fleet aggregate over %zu backend scrape(s)\n",
                     scraped);
    if (bodies.empty())
        return out;

    std::unordered_map<std::string, double> sums;
    std::vector<std::string> order; //!< first-seen series order
    for (const std::string &body : bodies) {
        std::size_t pos = 0;
        while (pos < body.size()) {
            std::size_t eol = body.find('\n', pos);
            if (eol == std::string::npos)
                eol = body.size();
            const std::string line = body.substr(pos, eol - pos);
            pos = eol + 1;
            if (line.empty() || line[0] == '#')
                continue;
            const std::size_t sp = line.rfind(' ');
            if (sp == std::string::npos)
                continue;
            const std::string key = line.substr(0, sp);
            const double val = std::strtod(line.c_str() + sp + 1,
                                           nullptr);
            const auto it = sums.find(key);
            if (it == sums.end()) {
                sums.emplace(key, val);
                order.push_back(key);
            } else {
                it->second += val;
            }
        }
    }
    // Emit the first body's comments in place so the aggregate keeps
    // its HELP/TYPE structure, then the summed series in first-seen
    // order.
    std::size_t pos = 0;
    const std::string &tmpl = bodies.front();
    std::vector<std::string> comments;
    while (pos < tmpl.size()) {
        std::size_t eol = tmpl.find('\n', pos);
        if (eol == std::string::npos)
            eol = tmpl.size();
        const std::string line = tmpl.substr(pos, eol - pos);
        pos = eol + 1;
        if (!line.empty() && line[0] == '#')
            comments.push_back(line);
    }
    for (const std::string &c : comments)
        out += c + "\n";
    for (const std::string &key : order) {
        const double v = sums[key];
        if (v == std::floor(v) && std::fabs(v) < 9e15)
            out += key + " " +
                   strprintf("%lld", static_cast<long long>(v)) + "\n";
        else
            out += key + " " + strprintf("%.17g", v) + "\n";
    }
    return out;
}

} // namespace fracdram::fleet
