/**
 * @file
 * serve_mix load: PUF enrollment (part of set-up), the seeded
 * open-loop mix over four connections, and the closed-loop capacity
 * phase. Every connection has its own thread, so a slow class never
 * blocks another class's requests behind it on a pipeline.
 *
 * The open loop reports every request's due, send and OK-reply stamps
 * (no buckets); perfbench/stats.py derives latency from the due time,
 * so a generator stall is charged to the requests it delayed, and the
 * generator's own lateness from send minus due.
 */

#include "loadgen.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <poll.h>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "common/rng.hh"
#include "service/client.hh"
#include "service/fleet.hh"
#include "service/net.hh"
#include "service/proto.hh"
#include "sim/vendor.hh"
#include "util.hh"

namespace perfbench
{

using namespace fracdram;

namespace
{

constexpr std::uint32_t kEntropyBytes = 1024;
/** PUF keys enrolled during set-up. Verified at 10/s, each key waits
 *  about 5 s between verifies, long enough for the device stream and
 *  the other keys to push it out of the registry. */
constexpr int kPufKeys = 48;
/** Resident devices in the daemon's one shard (its registry default). */
constexpr std::size_t kResidentSlots = 64;
/** Closed loop: connections x window, and alternating slices per side
 *  (closed phase / overhead phase). */
constexpr int kClosedConns = 2;
constexpr int kClosedWindow = 8;
constexpr int kClosedSlices = 8;
constexpr int kOverheadSlices = 3;
/** How long the open loop waits for stragglers after the last send. */
constexpr double kDrainSeconds = 5.0;

/** A PUF key enrolled during set-up. */
struct PufKey
{
    std::uint32_t device;
    std::uint32_t bank;
    std::uint32_t row;
};

/** The seed's PUF keys: Frac-capable devices, distinct per key. */
std::vector<PufKey>
pufKeys(std::uint64_t seed, int count)
{
    const auto groups = sim::fracCapableGroups();
    Rng rng(mixSeed(seed, 0x4b455953));
    std::vector<PufKey> keys;
    for (int k = 0; k < count; ++k) {
        const auto g = groups[static_cast<std::size_t>(k) % groups.size()];
        // Keys of one group differ in k / groups, which stays below 64.
        const std::uint64_t slot = static_cast<std::uint64_t>(k) /
                                   groups.size();
        const auto chip =
            static_cast<std::uint32_t>(64 * rng.below(64) + slot);
        keys.push_back({fleet::makeDeviceId(g, chip), 0,
                        static_cast<std::uint32_t>(1 + rng.below(8))});
    }
    return keys;
}

/**
 * The paper's 582 DDR3 chips (groups A-L with their Table I counts) as
 * fleet device ids. Device requests draw from them uniformly, with
 * replacement, so each group comes up in proportion to its size and a
 * device can recur after the registry evicted it.
 */
std::vector<std::uint32_t>
vendorMixDevices()
{
    std::vector<std::uint32_t> ids;
    for (int g = 0; g <= static_cast<int>(sim::DramGroup::L); ++g) {
        const auto group = static_cast<sim::DramGroup>(g);
        const int chips = sim::vendorProfile(group).numChips;
        for (int chip = 0; chip < chips; ++chip)
            ids.push_back(fleet::makeDeviceId(
                group, static_cast<std::uint32_t>(chip)));
    }
    return ids;
}

enum class Kind
{
    Anonymous, //!< 1 KiB GET_ENTROPY
    Device,    //!< 1 KiB device-addressed GET_ENTROPY
    PufVerify, //!< PUF_RESPONSE of an enrolled key
};

/** One open-loop class: its connection, schedule and tallies. */
struct OpenClass
{
    std::string name;
    Kind kind = Kind::Anonymous;
    std::uint16_t port = 0;
    double rate = 0.0;
    std::uint64_t classId = 0; //!< top byte of traced request ids

    std::vector<std::uint64_t> dueNs; //!< offsets from the shared start
    std::vector<service::Request> requests;

    /** Per request, ns after the start instant; -1: never happened.
     *  A reply that is not OK leaves its receive stamp at -1. */
    std::vector<double> sentNs, okNs;
    std::uint64_t sent = 0, ok = 0, failed = 0, capability = 0;
    std::uint32_t worstHamming = 0;
    std::string firstError;

    void fail(const std::string &why)
    {
        ++failed;
        if (firstError.empty())
            firstError = why;
    }
};

/**
 * Fill @p c's seeded schedule and request bodies: exactly rate x seconds
 * requests at uniformly random times (a Poisson process conditioned on
 * its count, so every seed offers the same work).
 */
void
planClass(OpenClass &c, std::uint64_t seed, double seconds, bool traced,
          const std::vector<PufKey> &keys)
{
    Rng rng(mixSeed(seed, 0x4f50454e + c.classId));
    const auto n = static_cast<std::size_t>(
        std::max(1.0, std::round(c.rate * seconds)));
    for (std::size_t i = 0; i < n; ++i)
        c.dueNs.push_back(
            static_cast<std::uint64_t>(rng.uniform() * seconds * 1e9));
    std::sort(c.dueNs.begin(), c.dueNs.end());
    const auto devices = c.kind == Kind::Device
                             ? vendorMixDevices()
                             : std::vector<std::uint32_t>{};
    for (std::size_t i = 0; i < n; ++i) {
        service::Request req;
        req.seq = static_cast<std::uint16_t>(i);
        if (traced) {
            req.flags |= service::kFlagRequestId;
            req.requestId = (c.classId << 56) | (i + 1);
        }
        switch (c.kind) {
        case Kind::Anonymous:
            req.type = service::MsgType::GetEntropy;
            req.nBytes = kEntropyBytes;
            break;
        case Kind::Device:
            req.type = service::MsgType::GetEntropy;
            req.flags |= service::kFlagDeviceId;
            req.device = devices[rng.below(devices.size())];
            req.nBytes = kEntropyBytes;
            break;
        case Kind::PufVerify: {
            const PufKey &k = keys[rng.below(keys.size())];
            req.type = service::MsgType::PufResponse;
            req.device = k.device;
            req.bank = k.bank;
            req.row = k.row;
            break;
        }
        }
        c.requests.push_back(req);
    }
    c.sentNs.assign(n, -1.0);
    c.okNs.assign(n, -1.0);
}

/** Check one reply against its request; true when it counts as OK. */
bool
judge(OpenClass &c, const service::Request &req,
      const service::Response &resp)
{
    if (resp.seq != req.seq || resp.type != req.type) {
        c.fail("reply out of order");
        return false;
    }
    if (resp.status == service::Status::Capability &&
        c.kind == Kind::Device &&
        !fleet::deviceSupportsQuac(req.device)) {
        ++c.capability; // typed refusal: correct, but misses the SLO
        return false;
    }
    if (resp.status != service::Status::Ok) {
        c.fail(std::string("status ") + service::statusName(resp.status));
        return false;
    }
    if (c.kind == Kind::PufVerify) {
        if (resp.hamming == service::kNoHamming ||
            resp.hamming * 4 > resp.bits.size()) {
            c.fail("PUF key did not verify");
            return false;
        }
        c.worstHamming = std::max(c.worstHamming, resp.hamming);
        return true;
    }
    if (resp.data.size() != kEntropyBytes) {
        c.fail("short entropy reply");
        return false;
    }
    return true;
}

/** Drive one open-loop class on its own connection. */
void
runOpenClass(OpenClass &c, std::uint64_t start_ns)
{
    std::string err;
    const int fd = service::connectTcp("127.0.0.1", c.port, &err);
    if (fd < 0) {
        c.firstError = "connect: " + err;
        c.failed = c.requests.size();
        return;
    }
    service::setNoDelay(fd);
    service::setNonBlocking(fd);
    service::FrameReader reader;
    std::vector<std::uint8_t> outbuf, payload;
    std::size_t outpos = 0;
    std::deque<std::size_t> inflight;
    std::size_t next = 0;
    const std::size_t n = c.requests.size();
    const std::uint64_t last_due = n ? start_ns + c.dueNs.back() : start_ns;
    const auto drain_end =
        last_due + static_cast<std::uint64_t>(kDrainSeconds * 1e9);
    std::uint8_t buf[64 * 1024];
    bool dead = false;

    while (!dead && (next < n || !inflight.empty())) {
        std::uint64_t now = nowNs();
        if (now > drain_end)
            break;
        while (next < n && start_ns + c.dueNs[next] <= now) {
            const auto f =
                service::frame(service::encodeRequest(c.requests[next]));
            outbuf.insert(outbuf.end(), f.begin(), f.end());
            c.sentNs[next] = static_cast<double>(now - start_ns);
            inflight.push_back(next++);
            ++c.sent;
        }
        if (outpos < outbuf.size()) {
            const long w = service::writeSome(fd, outbuf.data() + outpos,
                                          outbuf.size() - outpos);
            if (w < 0) {
                dead = true;
                break;
            }
            outpos += static_cast<std::size_t>(w);
            if (outpos == outbuf.size()) {
                outbuf.clear();
                outpos = 0;
            }
        }
        now = nowNs();
        const std::uint64_t wake =
            next < n ? start_ns + c.dueNs[next] : drain_end;
        const std::uint64_t wait = wake > now ? wake - now : 0;
        pollfd pfd{fd, static_cast<short>(
                           POLLIN | (outpos < outbuf.size() ? POLLOUT : 0)),
                   0};
        timespec ts{static_cast<time_t>(wait / 1000000000ull),
                    static_cast<long>(wait % 1000000000ull)};
        if (ppoll(&pfd, 1, &ts, nullptr) <= 0 || !(pfd.revents & POLLIN))
            continue;
        for (;;) {
            const long r = service::readSome(fd, buf, sizeof(buf));
            if (r == 0 || (r < 0 && errno != EAGAIN &&
                           errno != EWOULDBLOCK)) {
                dead = true;
                break;
            }
            if (r < 0)
                break;
            reader.feed(buf, static_cast<std::size_t>(r));
        }
        const std::uint64_t recv_ns = nowNs();
        while (reader.next(payload)) {
            service::Response resp;
            if (inflight.empty() ||
                !service::decodeResponse(payload.data(), payload.size(),
                                         resp)) {
                c.fail("bad reply frame");
                continue;
            }
            const std::size_t idx = inflight.front();
            inflight.pop_front();
            if (judge(c, c.requests[idx], resp)) {
                ++c.ok;
                c.okNs[idx] = static_cast<double>(recv_ns - start_ns);
            }
        }
    }
    // Never sent or never answered: a failure, never silently dropped.
    const std::size_t unanswered = (n - next) + inflight.size();
    if (unanswered) {
        if (c.firstError.empty())
            c.firstError = dead ? "connection lost" : "timeout";
        c.failed += unanswered;
    }
    service::closeFd(fd);
}

/**
 * Closed loop: @p conns connections, one thread each, keep @p window
 * 1 KiB entropy requests outstanding for @p seconds.
 * @return completed OK requests; non-OK replies add to @p failed
 */
std::uint64_t
closedLoop(std::uint16_t port, int conns, int window, double seconds,
           bool traced, std::uint64_t &failed)
{
    std::vector<std::uint64_t> done(conns, 0), bad(conns, 0);
    std::vector<std::thread> threads;
    const std::uint64_t end =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    for (int t = 0; t < conns; ++t) {
        threads.emplace_back([&, t] {
            service::Client client;
            std::string err;
            if (!client.connect("127.0.0.1", port, &err)) {
                bad[t] = 1;
                return;
            }
            service::Request req;
            req.type = service::MsgType::GetEntropy;
            req.nBytes = kEntropyBytes;
            if (traced)
                req.flags |= service::kFlagRequestId;
            std::uint64_t id = (0xCCull << 56) |
                               (static_cast<std::uint64_t>(t) << 40);
            int outstanding = 0;
            auto send_one = [&] {
                req.seq = static_cast<std::uint16_t>(req.seq + 1);
                req.requestId = ++id;
                if (!client.send(req, &err))
                    return false;
                ++outstanding;
                return true;
            };
            for (int w = 0; w < window; ++w)
                if (!send_one())
                    return void(++bad[t]);
            while (outstanding > 0) {
                service::Response resp;
                if (!client.recv(resp, &err, 5000))
                    return void(bad[t] += outstanding);
                --outstanding;
                if (resp.status == service::Status::Ok &&
                    resp.data.size() == kEntropyBytes)
                    ++done[t];
                else
                    ++bad[t];
                if (nowNs() < end && !send_one())
                    return void(bad[t] += outstanding);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    std::uint64_t total = 0;
    for (int t = 0; t < conns; ++t) {
        total += done[t];
        failed += bad[t];
    }
    return total;
}

/** What the open loop's device-addressed schedule does to the registry. */
struct RegistryReplay
{
    std::uint64_t firstTouches = 0; //!< devices new to the daemon
    std::uint64_t pufAfterEviction = 0; //!< verifies of an evicted key
};

/**
 * Replay the fleet and PUF schedules in due order through an LRU of
 * kResidentSlots devices that starts holding the enrolled keys, with
 * fleet ids steered as the router steers them. First touches are
 * exact; the daemon's faults beyond them are refaults. The eviction
 * count is the plan's (arrivals may reorder slightly).
 */
RegistryReplay
replayRegistry(const OpenClass &fleet_c, const OpenClass &puf_c,
               const std::vector<PufKey> &keys)
{
    RegistryReplay out;
    std::vector<std::uint32_t> lru; // back: most recently used
    std::vector<std::uint32_t> seen;
    auto touch = [&](std::uint32_t id) {
        const auto it = std::find(lru.begin(), lru.end(), id);
        const bool resident = it != lru.end();
        if (resident)
            lru.erase(it);
        else if (lru.size() == kResidentSlots)
            lru.erase(lru.begin());
        lru.push_back(id);
        if (std::find(seen.begin(), seen.end(), id) == seen.end()) {
            seen.push_back(id);
            return std::pair{resident, true};
        }
        return std::pair{resident, false};
    };
    for (const auto &k : keys)
        touch(k.device);
    std::size_t f = 0, p = 0;
    const std::size_t nf = fleet_c.requests.size();
    const std::size_t np = puf_c.requests.size();
    while (f < nf || p < np) {
        if (p == np || (f < nf && fleet_c.dueNs[f] <= puf_c.dueNs[p])) {
            const auto id =
                fleet::steerToCapable(fleet_c.requests[f++].device);
            out.firstTouches += touch(id).second;
        } else if (!touch(puf_c.requests[p++].device).first) {
            ++out.pufAfterEviction;
        }
    }
    return out;
}

std::string
classJson(const OpenClass &c)
{
    JsonObject o;
    o.count("sent", c.sent)
        .count("planned", c.requests.size())
        .count("ok", c.ok)
        .count("failed", c.failed)
        .count("capability", c.capability)
        .count("worst_hamming", c.worstHamming)
        .str("first_error", c.firstError)
        .nums("due_ns", std::vector<double>(c.dueNs.begin(),
                                            c.dueNs.end()))
        .nums("sent_ns", c.sentNs)
        .nums("ok_ns", c.okNs);
    return o.render();
}

} // namespace

int
runEnroll(const ServeOptions &o)
{
    // Pipelined on one connection: set-up time is the enrollment work,
    // not sixteen round trips of wake-ups.
    const auto keys = pufKeys(o.seed, kPufKeys);
    service::Client client;
    std::string err;
    std::uint64_t ok = 0;
    const std::uint64_t t0 = nowNs();
    if (client.connect("127.0.0.1", o.routerPort, &err)) {
        std::size_t sent = 0;
        for (const auto &k : keys) {
            service::Request req;
            req.type = service::MsgType::PufEnroll;
            req.seq = static_cast<std::uint16_t>(sent);
            req.device = k.device;
            req.bank = k.bank;
            req.row = k.row;
            if (!client.send(req, &err))
                break;
            ++sent;
        }
        for (std::size_t i = 0; i < sent; ++i) {
            service::Response resp;
            if (!client.recv(resp, &err, 30000))
                break;
            ok += resp.status == service::Status::Ok && resp.seq == i &&
                  !resp.bits.empty();
        }
    }
    JsonObject out;
    out.num("enroll_s", secondsBetween(t0, nowNs()))
        .count("keys", keys.size())
        .count("enrolled", ok)
        .str("error", err);
    std::printf("%s\n", out.render().c_str());
    return 0; // run.py checks enrolled == keys
}

int
runServe(const ServeOptions &o)
{
    JsonObject out;
    if (o.phase == "open") {
        // All four schedules share one start instant.
        const auto keys = pufKeys(o.seed, kPufKeys);
        std::vector<OpenClass> classes(4);
        // Requests/s per class. Anonymous entropy sits well below the
        // daemon's and the router's knee. Device and PUF requests share
        // the router's one ordered upstream connection with routed
        // entropy; at 10/s each they block it for a small share of
        // the time, so the routed median still measures the hop.
        const std::tuple<const char *, Kind, std::uint16_t, double>
            spec[] = {
                {"direct", Kind::Anonymous, o.daemonPort, 2000.0},
                {"routed", Kind::Anonymous, o.routerPort, 2000.0},
                {"fleet", Kind::Device, o.routerPort, 10.0},
                {"puf", Kind::PufVerify, o.routerPort, 10.0},
            };
        for (std::size_t i = 0; i < classes.size(); ++i) {
            OpenClass &c = classes[i];
            std::tie(c.name, c.kind, c.port, c.rate) = spec[i];
            c.classId = i + 1;
            planClass(c, o.seed, o.seconds, o.traced, keys);
        }
        const std::uint64_t start = nowNs() + 20'000'000;
        std::vector<std::thread> threads;
        for (auto &c : classes)
            threads.emplace_back(runOpenClass, std::ref(c), start);
        for (auto &t : threads)
            t.join();
        const double wall_s = secondsBetween(start, nowNs());
        const RegistryReplay replay =
            replayRegistry(classes[2], classes[3], keys);
        JsonObject cls;
        for (const auto &c : classes)
            cls.raw(c.name, classJson(c));
        out.raw("classes", cls.render())
            .num("wall_s", wall_s)
            .count("first_touch_devices", replay.firstTouches)
            .count("puf_after_eviction_planned", replay.pufAfterEviction);
    } else if (o.phase == "closed") {
        // Alternating direct / routed slices at a fixed
        // connections x window; one rate per slice.
        std::vector<double> direct_rps, routed_rps;
        std::uint64_t failed = 0, ok = 0;
        const double slice = o.seconds / (2.0 * kClosedSlices);
        const std::uint64_t t0 = nowNs();
        for (int s = 0; s < kClosedSlices; ++s) {
            for (auto *rps : {&direct_rps, &routed_rps}) {
                const auto port =
                    rps == &direct_rps ? o.daemonPort : o.routerPort;
                const std::uint64_t done = closedLoop(
                    port, kClosedConns, kClosedWindow, slice, false, failed);
                ok += done;
                rps->push_back(static_cast<double>(done) / slice);
            }
        }
        out.nums("direct_rps", direct_rps)
            .nums("routed_rps", routed_rps)
            .count("ok", ok)
            .num("wall_s", secondsBetween(t0, nowNs()))
            .num("slice_s", slice)
            .count("conns", kClosedConns)
            .count("window", kClosedWindow)
            .count("failed", failed);
    } else if (o.phase == "overhead") {
        // Direct closed-loop throughput without / with request ids,
        // alternating, for the tracing overhead.
        std::vector<double> untraced, traced;
        std::uint64_t failed = 0;
        const double slice = o.seconds / (2.0 * kOverheadSlices);
        for (int s = 0; s < kOverheadSlices; ++s) {
            for (const bool with_ids : {false, true}) {
                const double ok = static_cast<double>(closedLoop(
                    o.daemonPort, kClosedConns, kClosedWindow, slice, with_ids,
                    failed));
                (with_ids ? traced : untraced).push_back(ok / slice);
            }
        }
        out.nums("untraced_rps", untraced)
            .nums("traced_rps", traced)
            .count("failed", failed);
    } else {
        throw std::invalid_argument("unknown --phase " + o.phase);
    }
    std::printf("%s\n", out.render().c_str());
    return 0;
}

} // namespace perfbench
