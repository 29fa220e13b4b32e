/**
 * @file
 * A deliberately tiny HTTP/1.0 responder for the daemon's
 * observability endpoints (/metrics, /healthz, /varz). It is NOT a
 * general web server: GET only, no keep-alive, no chunked encoding,
 * exact-path routing, a handful of non-blocking connections on its
 * own service::EventLoop thread (the router's /metrics makes blocking
 * scrapes of its daemons, which must never stall a data loop). That
 * is exactly what a Prometheus scraper or `curl` needs, and it keeps
 * the attack/bug surface near zero - a stuck or slow scraper can
 * never back-pressure the serving data path and can never wedge the
 * responder either: every connection carries an overall deadline, so
 * a peer that connects and never reads (or trickles its request) is
 * dropped while other scrapers keep being answered.
 *
 * The matching httpGet() client helper exists so fracdram_top, the
 * load generator and the tests can scrape without curl.
 */

#ifndef FRACDRAM_SERVICE_HTTP_HH
#define FRACDRAM_SERVICE_HTTP_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "service/event_loop.hh"

namespace fracdram::service
{

/** One parsed GET request ("/varz?trace=64" -> path + query). */
struct HttpRequest
{
    std::string path;  //!< target up to '?'
    std::string query; //!< after '?', empty when absent
};

/** Value of `key=value` in a query string ("" when absent). */
std::string queryParam(const std::string &query, const std::string &key);

struct HttpResponse
{
    int status = 200;
    std::string contentType = "text/plain; charset=utf-8";
    std::string body;
};

class HttpServer
{
  public:
    using Handler = std::function<HttpResponse(const HttpRequest &)>;

    HttpServer();
    ~HttpServer() { stop(); }
    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** Register @p handler for exact path @p path (before start()). */
    void route(const std::string &path, Handler handler);

    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral) and start the serving
     * thread. @return false with @p err set on bind failure.
     */
    bool start(std::uint16_t port, std::string *err);

    /** Port actually bound (valid after start()). */
    std::uint16_t port() const { return port_; }

    /** Drain and join the serving thread, close the socket;
     *  idempotent. */
    void stop();

  private:
    struct HttpConn;

    void handleAccept(int fd);
    HttpResponse buildResponse(const std::string &head) const;

    std::map<std::string, Handler> routes_;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    EventLoop loop_; //!< last: its thread uses everything above
};

/** Status + body of one httpGet() exchange. */
struct HttpResult
{
    int status = 0;
    std::string body;
};

/**
 * Blocking one-shot GET of @p target from @p host:@p port.
 * @return false with @p err set on connect/transport failure;
 *         non-200 statuses are returned in @p out, not errors.
 */
bool httpGet(const std::string &host, std::uint16_t port,
             const std::string &target, HttpResult &out,
             std::string *err);

} // namespace fracdram::service

#endif // FRACDRAM_SERVICE_HTTP_HH
