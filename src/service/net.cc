#include "service/net.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <thread>
#include <unistd.h>

#include "common/logging.hh"

namespace fracdram::service
{

namespace
{

bool
fail(std::string *err, const char *what)
{
    if (err != nullptr)
        *err = strprintf("%s: %s", what, std::strerror(errno));
    return false;
}

} // namespace

int
listenTcp(std::uint16_t port, std::string *err)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        fail(err, "socket");
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        fail(err, "bind");
        closeFd(fd);
        return -1;
    }
    // Deep backlog: a connection storm (the 10k-conn smoke) must not
    // overflow the SYN queue while the reactors drain the accepts.
    // The kernel clamps this to net.core.somaxconn.
    if (::listen(fd, 4096) != 0) {
        fail(err, "listen");
        closeFd(fd);
        return -1;
    }
    return fd;
}

std::uint16_t
boundPort(int fd)
{
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return 0;
    return ntohs(addr.sin_port);
}

int
connectTcp(const std::string &host, std::uint16_t port,
           std::string *err)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        fail(err, "socket");
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        if (err != nullptr)
            *err = strprintf("bad host address '%s'", host.c_str());
        closeFd(fd);
        return -1;
    }
    int rc;
    do {
        rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        fail(err, "connect");
        closeFd(fd);
        return -1;
    }
    setNoDelay(fd);
    return fd;
}

void
setNoDelay(int fd)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void
setSendTimeout(int fd, int timeout_ms)
{
    if (timeout_ms <= 0)
        return;
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void
shutdownRead(int fd)
{
    if (fd >= 0)
        ::shutdown(fd, SHUT_RD);
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int
waitReadable(int fd, int timeout_ms)
{
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    int rc;
    do {
        rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0)
        return -1;
    if (rc == 0)
        return 0;
    if ((pfd.revents & (POLLERR | POLLNVAL)) != 0)
        return -1;
    // POLLHUP with pending bytes still reads; let read() see EOF.
    return 1;
}

bool
writeAll(int fd, const void *data, std::size_t len, std::string *err)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    while (len > 0) {
        // send + MSG_NOSIGNAL instead of write: a peer that hung up
        // must surface as EPIPE, not kill the process with SIGPIPE.
        const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            // EAGAIN here means SO_SNDTIMEO expired: the peer has
            // not drained its receive window for the whole timeout.
            // Treat it as dead rather than blocking the writer.
            return fail(err, (errno == EAGAIN || errno == EWOULDBLOCK)
                                 ? "write (send timeout)"
                                 : "write");
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

long
readSome(int fd, void *buf, std::size_t len)
{
    ssize_t n;
    do {
        n = ::read(fd, buf, len);
    } while (n < 0 && errno == EINTR);
    return n;
}

long
writeSome(int fd, const void *data, std::size_t len)
{
    ssize_t n;
    do {
        n = ::send(fd, data, len, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0)
        return (errno == EAGAIN || errno == EWOULDBLOCK) ? 0 : -1;
    return n;
}

long
writevSome(int fd, const struct iovec *iov, int iovcnt)
{
    msghdr msg{};
    msg.msg_iov = const_cast<struct iovec *>(iov);
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    ssize_t n;
    do {
        // sendmsg instead of writev for MSG_NOSIGNAL (see writeAll).
        n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0)
        return (errno == EAGAIN || errno == EWOULDBLOCK) ? 0 : -1;
    return n;
}

void
closeFd(int fd)
{
    if (fd >= 0)
        ::close(fd);
}

void
pinThisThreadToCpu(int cpu)
{
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores < 2 || cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(cpu) % cores, &set);
    // Best effort: a cpuset-restricted container may reject the mask.
    (void)::pthread_setaffinity_np(::pthread_self(), sizeof(set),
                                   &set);
}

} // namespace fracdram::service
