/**
 * @file
 * The one event-loop core under every socket front end of the serving
 * stack - the daemon's reactors, the fleet router and the HTTP
 * responder (DESIGN.md §5g): EventLoop (thread, epoll, eventfd, tick,
 * drain), BufferedConn (a socket with a batched write queue, half-close
 * and timers) and OrderedWindow (in-order responses). Everything runs
 * on the loop thread except wake() and requestDrain().
 */

#ifndef FRACDRAM_SERVICE_EVENT_LOOP_HH
#define FRACDRAM_SERVICE_EVENT_LOOP_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

namespace fracdram::service
{

/** Monotonic clock in ns: the time base of every loop timer. */
std::uint64_t monoNs();

class EventLoop;

/**
 * One connection owned by an EventLoop. Closing is deferred-safe: a
 * closed connection leaves epoll and its fd is closed at once, but
 * the object lives until the end of the loop turn, so pointers
 * collected during a turn stay valid through the turn hook.
 */
class BufferedConn
{
  public:
    /**
     * Take ownership of the non-blocking socket @p fd. An @p upstream
     * connection (the router's link to a daemon) is not shut down by
     * the drain and does not keep the loop alive.
     */
    BufferedConn(EventLoop &loop, int fd, bool upstream = false)
        : loop_(loop), fd_(fd), upstream_(upstream)
    {
    }
    virtual ~BufferedConn();
    BufferedConn(const BufferedConn &) = delete;
    BufferedConn &operator=(const BufferedConn &) = delete;

    /** EPOLLIN while reading: read and handle what arrived. */
    virtual void onReadable() = 0;

    /** EPOLLOUT: resume the flush. */
    virtual void onWritable() { pump(); }

    /**
     * Queue whatever output is ready, flush, and close once the read
     * side is shut and nothing is owed. Also run by the drain.
     */
    virtual void pump();

    /**
     * True while the peer is still owed something. The idle timer
     * spares a busy connection; pump() closes a read-closed one only
     * once it is no longer busy.
     */
    virtual bool busy() const { return hasOutput(); }

    /** Runs once when the connection closes (not at loop teardown). */
    virtual void onClose() {}

    int fd() const { return fd_; }
    bool closed() const { return closed_; }
    bool readClosed() const { return readClosed_; }
    bool hasOutput() const { return !outq_.empty(); }

    /**
     * One read into the loop's shared scratch (one per turn: epoll is
     * level-triggered, so a firehose peer cannot starve the loop).
     * EOF stops reading and pump()s what is still owed; an error
     * closes the connection. @return the bytes now at @p data, 0 when
     * there is nothing to handle.
     */
    std::size_t receive(const std::uint8_t *&data);

    /** Write-queue chunk to append whole frames to. */
    std::vector<std::uint8_t> &outChunk();

    /**
     * Write the queue out (one writev per call, looping until the
     * kernel buffer fills). EAGAIN arms EPOLLOUT and starts the
     * stall timer. @return false when the peer died: the connection
     * is closed.
     */
    bool flush();

    /** Half-close: stop reading, keep writing what is owed. */
    void stopReading();

    /** Record activity for the idle timer. */
    void touch();

    /** Close now; idempotent, safe from inside any handler. */
    void close();

  private:
    friend class EventLoop;

    void updateInterest();
    bool expired(std::uint64_t now_ns) const;

    EventLoop &loop_;
    int fd_;
    const bool upstream_;
    bool closed_ = false;
    bool readClosed_ = false;
    std::uint32_t armed_ = 0; //!< epoll interest currently set
    std::deque<std::vector<std::uint8_t>> outq_;
    std::size_t outPos_ = 0;        //!< consumed bytes of outq_.front()
    std::uint64_t stallSinceNs_ = 0; //!< first EAGAIN, 0 = no stall
    std::uint64_t lastActiveNs_ = 0;
};

class EventLoop
{
  public:
    struct Hooks
    {
        /** The eventfd fired: drain the cross-thread inboxes. */
        std::function<void()> wake;
        /** Every 100ms, before the connection timers; @p late_ns is
         *  how far past the cadence the tick ran (loop lag). */
        std::function<void(std::uint64_t now_ns, std::uint64_t late_ns)>
            tick;
        /** End of every turn (@p n_events fired; 0 on a timeout). */
        std::function<void(int n_events)> turn;
    };

    /**
     * Connection timers, 0 = off: drop a conn whose writes stall for
     * @p stall_ms, and a non-busy one silent for @p idle_ms.
     */
    EventLoop(Hooks hooks, int stall_ms, int idle_ms);
    ~EventLoop();
    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /**
     * Watch the listen socket @p fd (before start()) and hand every
     * accepted socket, non-blocking and with Nagle off, to
     * @p on_accept. The drain stops accepting.
     */
    void listen(int fd, std::function<void(int fd)> on_accept);

    /** Register @p conn (loop thread, or before start()). */
    BufferedConn *add(std::unique_ptr<BufferedConn> conn);

    /** Start the loop thread, pinned to @p pin_cpu unless -1. */
    void start(int pin_cpu = -1);

    /** Wait for the loop thread to exit; idempotent. */
    void join()
    {
        if (thread_.joinable())
            thread_.join();
    }

    /** Begin the drain; any thread, idempotent. */
    void requestDrain();

    /** Write the eventfd; any thread. */
    void wake();

    /** @name Loop-thread accessors */
    /// @{
    bool draining() const { return draining_; }
    /** Clock read once per turn, right after the wait returns. */
    std::uint64_t nowNs() const { return nowNs_; }
    /** Registered connections that are not upstream. */
    std::size_t clients() const { return clients_; }
    /// @}

  private:
    friend class BufferedConn;

    void watch(int fd);
    void run();
    void beginDrain();
    void expireConns();
    void retire(BufferedConn *conn);

    const Hooks hooks_;
    const std::uint64_t stallNs_;
    const std::uint64_t idleNs_;
    int epollFd_ = -1;
    int eventFd_ = -1;
    int listenFd_ = -1;
    std::function<void(int)> onAccept_;
    std::atomic<bool> drainRequested_{false};

    /** @name Loop-thread-only state */
    /// @{
    bool draining_ = false;
    std::uint64_t nowNs_ = 0;
    std::uint64_t lastTickNs_ = 0;
    std::unordered_map<int, std::unique_ptr<BufferedConn>> conns_;
    std::vector<std::unique_ptr<BufferedConn>> graveyard_;
    std::size_t clients_ = 0;
    std::vector<std::uint8_t> rdbuf_; //!< read scratch of all conns
    /** Flushed chunks kept for reuse, so a busy connection does not
     *  allocate a fresh 64 KiB chunk every turn. */
    std::vector<std::vector<std::uint8_t>> spareChunks_;
    /// @}

    std::thread thread_; //!< last: joins before the state it uses dies
};

/**
 * Per-connection response window. Frame k of a connection occupies
 * slot k; completions land by absolute frame index, and only the
 * ready prefix leaves, so responses go out in request order however
 * the work behind them finishes. base/next are u32 absolute indices
 * and every lookup uses rel = idx - base, so the window stays correct
 * when the index wraps. Slot needs a `bool ready`.
 */
template <class Slot>
class OrderedWindow
{
  public:
    explicit OrderedWindow(std::uint32_t base = 0) : base_(base) {}

    bool empty() const { return slots_.empty(); }
    std::uint32_t base() const { return base_; }
    /** Absolute index the next push() gets. */
    std::uint32_t next() const
    {
        return base_ + static_cast<std::uint32_t>(slots_.size());
    }

    /** Open the slot of the next frame. */
    Slot &push() { return slots_.emplace_back(); }

    /** Slot of absolute index @p idx; nullptr when stale. */
    Slot *at(std::uint32_t idx)
    {
        const std::uint32_t rel = idx - base_;
        return rel < slots_.size() ? &slots_[rel] : nullptr;
    }

    /** Retire the front slot, ready or not (its answer went out). */
    void pop()
    {
        slots_.pop_front();
        ++base_;
    }

    /** Account a frame answered while the window was empty: it
     *  leaves in order by construction and never takes a slot. */
    void skip() { ++base_; }

    /** Hand every ready front slot to @p emit in order and retire it.
     *  @return how many left. */
    template <class F>
    std::size_t popReady(F &&emit)
    {
        std::size_t n = 0;
        while (!slots_.empty() && slots_.front().ready) {
            emit(slots_.front());
            pop();
            ++n;
        }
        return n;
    }

  private:
    std::deque<Slot> slots_;
    std::uint32_t base_; //!< absolute index of slots_.front()
};

} // namespace fracdram::service

#endif // FRACDRAM_SERVICE_EVENT_LOOP_HH
