#include "service/event_loop.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/logging.hh"
#include "service/net.hh"

namespace fracdram::service
{

namespace
{

/** Write-queue chunk size (frames never split across chunks). */
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::size_t kChunkReserve = kChunkBytes + 512;

/** Spare chunks a loop keeps for reuse. */
constexpr std::size_t kMaxSpareChunks = 8;

/** iovecs per writev - deep queues drain over a few calls. */
constexpr int kMaxIov = 8;

/** Housekeeping cadence (connection timers, tick hook). */
constexpr std::uint64_t kTickNs = 100'000'000ull;

constexpr int kMaxEvents = 64;

} // namespace

std::uint64_t
monoNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

BufferedConn::~BufferedConn()
{
    if (!closed_)
        closeFd(fd_);
}

void
BufferedConn::pump()
{
    if (flush() && readClosed_ && !busy())
        close();
}

std::size_t
BufferedConn::receive(const std::uint8_t *&data)
{
    std::vector<std::uint8_t> &buf = loop_.rdbuf_;
    const long n = readSome(fd_, buf.data(), buf.size());
    if (n > 0) {
        data = buf.data();
        return static_cast<std::size_t>(n);
    }
    if (n == 0) {
        // A level-triggered EOF fires forever: stop reading, finish
        // writing what is owed.
        stopReading();
        pump();
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
        close();
    }
    return 0;
}

std::vector<std::uint8_t> &
BufferedConn::outChunk()
{
    if (!outq_.empty() && outq_.back().size() < kChunkBytes)
        return outq_.back();
    auto &spare = loop_.spareChunks_;
    if (spare.empty()) {
        outq_.emplace_back().reserve(kChunkReserve);
    } else {
        outq_.push_back(std::move(spare.back()));
        spare.pop_back();
    }
    return outq_.back();
}

bool
BufferedConn::flush()
{
    if (closed_)
        return false;
    while (!outq_.empty()) {
        iovec iov[kMaxIov];
        int niov = 0;
        std::size_t pos = outPos_;
        for (const auto &chunk : outq_) {
            iov[niov].iov_base =
                const_cast<std::uint8_t *>(chunk.data()) + pos;
            iov[niov].iov_len = chunk.size() - pos;
            pos = 0;
            if (++niov == kMaxIov)
                break;
        }
        const long w = writevSome(fd_, iov, niov);
        if (w < 0) {
            close();
            return false;
        }
        if (w == 0) {
            // Kernel buffer full: the stall timer starts here and
            // EPOLLOUT resumes the flush.
            if (stallSinceNs_ == 0)
                stallSinceNs_ = loop_.nowNs();
            updateInterest();
            return true;
        }
        stallSinceNs_ = 0;
        std::size_t left = static_cast<std::size_t>(w);
        while (left > 0) {
            const std::size_t avail = outq_.front().size() - outPos_;
            if (left < avail) {
                outPos_ += left;
                break;
            }
            left -= avail;
            // Keep a few flushed chunks for reuse; one grown past
            // the reserve by a huge frame goes back to the allocator.
            auto &spare = loop_.spareChunks_;
            if (spare.size() < kMaxSpareChunks &&
                outq_.front().capacity() <= kChunkReserve) {
                outq_.front().clear();
                spare.push_back(std::move(outq_.front()));
            }
            outq_.pop_front();
            outPos_ = 0;
        }
    }
    stallSinceNs_ = 0;
    updateInterest();
    return true;
}

void
BufferedConn::stopReading()
{
    if (readClosed_)
        return;
    readClosed_ = true;
    updateInterest();
}

void
BufferedConn::touch()
{
    lastActiveNs_ = loop_.nowNs();
}

void
BufferedConn::close()
{
    if (closed_)
        return;
    closed_ = true;
    loop_.retire(this);
    onClose();
}

void
BufferedConn::updateInterest()
{
    if (closed_)
        return;
    const std::uint32_t want =
        (readClosed_ ? 0u : unsigned{EPOLLIN}) |
        (outq_.empty() ? 0u : unsigned{EPOLLOUT});
    if (want == armed_)
        return;
    armed_ = want;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = fd_;
    ::epoll_ctl(loop_.epollFd_, EPOLL_CTL_MOD, fd_, &ev);
}

bool
BufferedConn::expired(std::uint64_t now_ns) const
{
    // A peer that stopped reading with output owed is dropped - the
    // non-blocking replacement for SO_SNDTIMEO.
    if (loop_.stallNs_ > 0 && stallSinceNs_ != 0 &&
        now_ns - stallSinceNs_ >= loop_.stallNs_)
        return true;
    return loop_.idleNs_ > 0 && !busy() &&
           now_ns - lastActiveNs_ >= loop_.idleNs_;
}

EventLoop::EventLoop(Hooks hooks, int stall_ms, int idle_ms)
    : hooks_(std::move(hooks)),
      stallNs_(static_cast<std::uint64_t>(stall_ms) * 1'000'000ull),
      idleNs_(static_cast<std::uint64_t>(idle_ms) * 1'000'000ull),
      rdbuf_(64 * 1024)
{
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    fatal_if(epollFd_ < 0, "epoll_create1: %s", std::strerror(errno));
    eventFd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    fatal_if(eventFd_ < 0, "eventfd: %s", std::strerror(errno));
    watch(eventFd_);
    nowNs_ = monoNs();
}

EventLoop::~EventLoop()
{
    join();
    closeFd(eventFd_);
    closeFd(epollFd_);
}

void
EventLoop::listen(int fd, std::function<void(int fd)> on_accept)
{
    listenFd_ = fd;
    onAccept_ = std::move(on_accept);
    setNonBlocking(fd);
    watch(fd);
}

BufferedConn *
EventLoop::add(std::unique_ptr<BufferedConn> conn)
{
    BufferedConn *c = conn.get();
    c->armed_ = EPOLLIN;
    c->lastActiveNs_ = nowNs_;
    watch(c->fd_);
    if (!c->upstream_)
        ++clients_;
    conns_[c->fd_] = std::move(conn);
    return c;
}

void
EventLoop::watch(int fd)
{
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
}

void
EventLoop::start(int pin_cpu)
{
    thread_ = std::thread([this, pin_cpu] {
        if (pin_cpu >= 0)
            pinThisThreadToCpu(pin_cpu);
        run();
    });
}

void
EventLoop::requestDrain()
{
    drainRequested_.store(true, std::memory_order_release);
    wake();
}

void
EventLoop::wake()
{
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(eventFd_, &one, sizeof(one));
}

void
EventLoop::run()
{
    epoll_event evs[kMaxEvents];
    nowNs_ = lastTickNs_ = monoNs();
    while (true) {
        if (!draining_ &&
            drainRequested_.load(std::memory_order_acquire))
            beginDrain();
        if (draining_ && clients_ == 0)
            break;
        const int n = ::epoll_wait(epollFd_, evs, kMaxEvents,
                                   draining_ ? 50 : 100);
        nowNs_ = monoNs();
        // Connection events first, control fds second: a close during
        // this batch must not let a just-accepted connection reuse
        // the fd and alias a stale event.
        for (int i = 0; i < n; ++i) {
            const auto it = conns_.find(evs[i].data.fd);
            if (it == conns_.end())
                continue; // a control fd, or closed earlier this turn
            BufferedConn *conn = it->second.get();
            const std::uint32_t events = evs[i].events;
            if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
                conn->close();
                continue;
            }
            if ((events & EPOLLIN) != 0 && !conn->readClosed_)
                conn->onReadable();
            if ((events & EPOLLOUT) != 0 && !conn->closed_)
                conn->onWritable();
        }
        for (int i = 0; i < n; ++i) {
            const int fd = evs[i].data.fd;
            if (fd == eventFd_) {
                std::uint64_t v;
                [[maybe_unused]] const auto r =
                    ::read(eventFd_, &v, sizeof(v));
                if (hooks_.wake)
                    hooks_.wake();
            } else if (fd == listenFd_ && !draining_) {
                int conn_fd;
                while ((conn_fd = ::accept4(listenFd_, nullptr, nullptr,
                                            SOCK_NONBLOCK)) >= 0) {
                    setNoDelay(conn_fd);
                    onAccept_(conn_fd);
                }
            }
        }
        if (nowNs_ - lastTickNs_ >= kTickNs) {
            const std::uint64_t late = nowNs_ - lastTickNs_ - kTickNs;
            lastTickNs_ = nowNs_;
            if (hooks_.tick)
                hooks_.tick(nowNs_, late);
            expireConns();
        }
        if (hooks_.turn)
            hooks_.turn(n);
        graveyard_.clear();
    }
    // Upstream connections are all that can be left; teardown on the
    // loop thread closes their fds exactly once.
    conns_.clear();
    graveyard_.clear();
}

void
EventLoop::beginDrain()
{
    draining_ = true;
    if (listenFd_ >= 0)
        ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
    // Read-side shutdown only: the peer sees EOF, but responses
    // already owed still go out, bounded by the stall timer.
    std::vector<BufferedConn *> all;
    all.reserve(conns_.size());
    for (auto &kv : conns_)
        if (!kv.second->upstream_)
            all.push_back(kv.second.get());
    for (BufferedConn *conn : all) {
        shutdownRead(conn->fd_);
        conn->stopReading();
        conn->pump(); // closes at once when nothing is owed
    }
}

void
EventLoop::expireConns()
{
    std::vector<BufferedConn *> doomed;
    for (auto &kv : conns_)
        if (kv.second->expired(nowNs_))
            doomed.push_back(kv.second.get());
    for (BufferedConn *conn : doomed)
        conn->close();
}

void
EventLoop::retire(BufferedConn *conn)
{
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn->fd_, nullptr);
    closeFd(conn->fd_);
    const auto it = conns_.find(conn->fd_);
    if (it == conns_.end())
        return;
    if (!conn->upstream_)
        --clients_;
    graveyard_.push_back(std::move(it->second));
    conns_.erase(it);
}

} // namespace fracdram::service
