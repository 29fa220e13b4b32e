#include "service/http.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "service/net.hh"

namespace fracdram::service
{

namespace
{

// A request line plus a screenful of headers; anything longer is not
// a scraper and gets dropped.
constexpr std::size_t kMaxHeaderBytes = 4096;
constexpr int kIoTimeoutMs = 2000;

// Concurrent scraper connections; excess connects are closed
// immediately (a scraper retries, an fd-exhaustion attack does not
// get to hold descriptors).
constexpr std::size_t kMaxHttpConns = 32;

const char *
statusText(int status)
{
    switch (status) {
    case 200:
        return "OK";
    case 400:
        return "Bad Request";
    case 404:
        return "Not Found";
    case 405:
        return "Method Not Allowed";
    case 503:
        return "Service Unavailable";
    }
    return "Internal Server Error";
}

std::string
renderResponse(const HttpResponse &resp)
{
    std::string out = strprintf(
        "HTTP/1.0 %d %s\r\n"
        "Content-Type: %s\r\n"
        "Content-Length: %zu\r\n"
        "Connection: close\r\n"
        "\r\n",
        resp.status, statusText(resp.status), resp.contentType.c_str(),
        resp.body.size());
    out += resp.body;
    return out;
}

} // namespace

std::string
queryParam(const std::string &query, const std::string &key)
{
    std::size_t pos = 0;
    while (pos < query.size()) {
        std::size_t amp = query.find('&', pos);
        if (amp == std::string::npos)
            amp = query.size();
        const std::string pair = query.substr(pos, amp - pos);
        const std::size_t eq = pair.find('=');
        if (eq != std::string::npos && pair.substr(0, eq) == key)
            return pair.substr(eq + 1);
        if (eq == std::string::npos && pair == key)
            return "";
        pos = amp + 1;
    }
    return "";
}

/**
 * One in-flight scraper connection: read until the header block
 * ends, then write the rendered response and hang up. It is never
 * busy() and never touch()ed, so the loop's idle timer is a deadline
 * on the whole exchange: neither a trickled request nor an unread
 * response holds the fd past kIoTimeoutMs.
 */
struct HttpServer::HttpConn final : BufferedConn
{
    HttpConn(HttpServer &owner, int fd)
        : BufferedConn(owner.loop_, fd), server(owner)
    {
    }

    void onReadable() override
    {
        const std::uint8_t *data = nullptr;
        const std::size_t n = receive(data);
        if (n == 0)
            return;
        in.append(reinterpret_cast<const char *>(data), n);
        if (in.size() > kMaxHeaderBytes) {
            close();
            return;
        }
        if (in.find("\r\n\r\n") == std::string::npos &&
            in.find("\n\n") == std::string::npos)
            return;
        const std::string out =
            renderResponse(server.buildResponse(in));
        auto &chunk = outChunk();
        chunk.insert(chunk.end(), out.begin(), out.end());
        stopReading();
        pump();
    }

    /** HTTP/1.0, no keep-alive: hang up once the answer is out. */
    void pump() override
    {
        if (flush() && readClosed() && !hasOutput())
            close();
    }

    bool busy() const override { return false; }

    HttpServer &server;
    std::string in;
};

HttpServer::HttpServer() : loop_({}, 0, kIoTimeoutMs) {}

void
HttpServer::route(const std::string &path, Handler handler)
{
    routes_[path] = std::move(handler);
}

bool
HttpServer::start(std::uint16_t port, std::string *err)
{
    listenFd_ = listenTcp(port, err);
    if (listenFd_ < 0)
        return false;
    port_ = boundPort(listenFd_);
    loop_.listen(listenFd_, [this](int fd) { handleAccept(fd); });
    loop_.start();
    return true;
}

void
HttpServer::stop()
{
    loop_.requestDrain();
    loop_.join();
    closeFd(listenFd_);
    listenFd_ = -1;
}

void
HttpServer::handleAccept(int fd)
{
    if (loop_.clients() >= kMaxHttpConns)
        closeFd(fd);
    else
        loop_.add(std::make_unique<HttpConn>(*this, fd));
}

HttpResponse
HttpServer::buildResponse(const std::string &head) const
{
    const std::size_t eol = head.find_first_of("\r\n");
    const std::string line = head.substr(0, eol);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = sp1 == std::string::npos
                                ? std::string::npos
                                : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos)
        return {400, "text/plain; charset=utf-8", "bad request\n"};
    if (line.substr(0, sp1) != "GET")
        return {405, "text/plain; charset=utf-8", "GET only\n"};
    HttpRequest req;
    const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t qm = target.find('?');
    req.path = target.substr(0, qm);
    if (qm != std::string::npos)
        req.query = target.substr(qm + 1);
    const auto it = routes_.find(req.path);
    if (it == routes_.end())
        return {404, "text/plain; charset=utf-8", "not found\n"};
    return it->second(req);
}

bool
httpGet(const std::string &host, std::uint16_t port,
        const std::string &target, HttpResult &out, std::string *err)
{
    const int fd = connectTcp(host, port, err);
    if (fd < 0)
        return false;
    setSendTimeout(fd, kIoTimeoutMs);
    const std::string req = strprintf(
        "GET %s HTTP/1.0\r\nHost: %s\r\n\r\n", target.c_str(),
        host.c_str());
    if (!writeAll(fd, req.data(), req.size(), err)) {
        closeFd(fd);
        return false;
    }
    std::string raw;
    for (;;) {
        if (waitReadable(fd, kIoTimeoutMs) != 1)
            break;
        char buf[4096];
        const long n = readSome(fd, buf, sizeof(buf));
        if (n <= 0)
            break;
        raw.append(buf, static_cast<std::size_t>(n));
    }
    closeFd(fd);

    // "HTTP/1.0 200 OK\r\n...\r\n\r\nbody"
    if (raw.compare(0, 5, "HTTP/") != 0) {
        if (err != nullptr)
            *err = "malformed HTTP response";
        return false;
    }
    const std::size_t sp = raw.find(' ');
    if (sp == std::string::npos || sp + 4 > raw.size()) {
        if (err != nullptr)
            *err = "malformed HTTP status line";
        return false;
    }
    out.status = std::atoi(raw.c_str() + sp + 1);
    std::size_t body = raw.find("\r\n\r\n");
    if (body != std::string::npos) {
        out.body = raw.substr(body + 4);
    } else if ((body = raw.find("\n\n")) != std::string::npos) {
        out.body = raw.substr(body + 2);
    } else {
        out.body.clear();
    }
    return true;
}

} // namespace fracdram::service
