/**
 * @file
 * Thin POSIX socket helpers shared by the server, the client library
 * and the load generator: loopback listen/connect, partial-write-safe
 * writeAll, EINTR-safe reads, and a poll-based readiness wait. All
 * functions report errors through an out-parameter string instead of
 * errno so call sites can log one coherent line.
 */

#ifndef FRACDRAM_SERVICE_NET_HH
#define FRACDRAM_SERVICE_NET_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <sys/uio.h>

namespace fracdram::service
{

/**
 * Bind and listen on 127.0.0.1:@p port (port 0 picks an ephemeral
 * port; read it back with boundPort()).
 * @return the listening fd, or -1 with @p err set
 */
int listenTcp(std::uint16_t port, std::string *err);

/** Port a bound socket ended up on (0 on failure). */
std::uint16_t boundPort(int fd);

/**
 * Blocking connect to @p host:@p port.
 * @return the connected fd, or -1 with @p err set
 */
int connectTcp(const std::string &host, std::uint16_t port,
               std::string *err);

/** Disable Nagle (small request/response frames). */
void setNoDelay(int fd);

/**
 * SO_SNDTIMEO: bound every send(2) on @p fd to @p timeout_ms so a
 * peer that stops reading cannot park a writer thread forever.
 * writeAll() treats the resulting EAGAIN as a dead peer.
 */
void setSendTimeout(int fd, int timeout_ms);

/**
 * shutdown(2) the read side only: the loop's next read sees EOF while
 * the write side stays open, so responses already owed to the peer
 * can still be delivered; a stalled send is bounded by the event
 * loop's write-stall timer.
 */
void shutdownRead(int fd);

/** O_NONBLOCK: reads/writes return EAGAIN instead of blocking. */
void setNonBlocking(int fd);

/**
 * Wait until @p fd is readable.
 * @return 1 readable, 0 timeout, -1 error/hangup
 */
int waitReadable(int fd, int timeout_ms);

/** Write all @p len bytes (loops over partial writes and EINTR). */
bool writeAll(int fd, const void *data, std::size_t len,
              std::string *err);

/**
 * One read(2), retrying EINTR.
 * @return bytes read, 0 on EOF, -1 on error
 */
long readSome(int fd, void *buf, std::size_t len);

/**
 * One non-blocking send(2) with MSG_NOSIGNAL, retrying EINTR.
 * @return bytes written, 0 when the socket buffer is full (EAGAIN),
 *         -1 on a dead peer or hard error
 */
long writeSome(int fd, const void *data, std::size_t len);

/**
 * One gathering write (sendmsg + MSG_NOSIGNAL, retrying EINTR) - the
 * event loop's batched write-queue flush.
 * @return bytes written, 0 when the socket buffer is full (EAGAIN),
 *         -1 on a dead peer or hard error
 */
long writevSome(int fd, const struct iovec *iov, int iovcnt);

/** close(2), ignoring EINTR (idempotent on -1). */
void closeFd(int fd);

/**
 * Pin the calling thread to CPU @p cpu modulo the machine's core
 * count. No-op on single-core machines and on affinity errors -
 * pinning is a throughput hint, never a correctness requirement.
 */
void pinThisThreadToCpu(int cpu);

} // namespace fracdram::service

#endif // FRACDRAM_SERVICE_NET_HH
