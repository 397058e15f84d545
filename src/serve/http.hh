/**
 * @file
 * Minimal HTTP/1.1 plumbing for the serve layer: a loopback-bound
 * listener with one thread per connection, and the matching
 * blocking client used by tools/uatm_client and the tests.
 *
 * This is deliberately not a general web server.  It speaks just
 * enough HTTP for the daemon's four endpoints: one request per
 * connection (every response carries "Connection: close"), bodies
 * delimited by Content-Length on the way in and by Content-Length
 * or connection close (the streaming path) on the way out.  No
 * third-party dependencies — raw POSIX sockets.
 *
 * Responses are either buffered (status + body, Content-Length
 * set by the server) or streamed: a handler that sets
 * HttpResponse::streamer gets called back with a write sink after
 * the header block goes out, which is how /sweep ships NDJSON
 * rows without holding a second copy of the table.
 */

#ifndef UATM_SERVE_HTTP_HH
#define UATM_SERVE_HTTP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/status.hh"

namespace uatm::serve {

/** One parsed request.  Header names are stored lowercased. */
struct HttpRequest
{
    std::string method; ///< "GET", "POST", ...
    std::string target; ///< request path, e.g. "/sweep"
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    /** Header value by lowercase name; nullptr when absent. */
    const std::string *header(const std::string &name) const;
};

/** Write sink handed to a streaming response body.  Returns false
 *  when the client is gone; the producer should stop. */
using HttpSink = std::function<bool(std::string_view)>;

struct HttpResponse
{
    int status = 200;
    std::string contentType = "text/plain; charset=utf-8";
    /** Extra headers, sent verbatim (name, value). */
    std::vector<std::pair<std::string, std::string>> headers;

    /** Buffered body (ignored when @ref streamer is set). */
    std::string body;

    /**
     * Streaming body: called once with the write sink after the
     * status line and headers are out.  The response is delimited
     * by connection close, so the producer just writes chunks and
     * returns.
     */
    std::function<void(const HttpSink &)> streamer;
};

/** "OK", "Bad Request", ... for the codes the daemon uses. */
const char *httpStatusReason(int status);

class HttpServer
{
  public:
    using Handler = std::function<HttpResponse(const HttpRequest &)>;

    struct Options
    {
        /** Bind address; loopback by default (the daemon is not
         *  hardened for the open internet). */
        std::string bindAddress = "127.0.0.1";

        /** 0 = ephemeral; the bound port is readable via port(). */
        std::uint16_t port = 0;
    };

    HttpServer() = default;
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /**
     * Bind, listen, and start the accept loop on a background
     * thread.  @p handler runs on a per-connection thread and may
     * block (the sweep endpoint does); malformed requests are
     * answered before it is ever called: 400, 431 past a 64 KiB
     * request line and headers, 413 past an 8 MiB body, and 503
     * past 64 open connections.  A connection's socket reads and
     * writes time out after 30 s.
     */
    Status start(const Options &options, Handler handler);

    /** Stop accepting, close the listener, join every thread.
     *  Idempotent. */
    void stop();

    bool running() const { return running_.load(); }

    /** Bound port (resolves an ephemeral request); 0 when not
     *  running. */
    std::uint16_t port() const { return port_; }

  private:
    struct Connection
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };

    Options options_;
    Handler handler_;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> running_{false};
    std::thread acceptThread_;
    std::mutex connectionsMutex_;
    std::vector<Connection> connections_;
    std::atomic<unsigned> activeConnections_{0};

    void acceptLoop();
    void handleConnection(int fd);
    void reapFinished();
};

/** One buffered client-side response. */
struct HttpClientResponse
{
    int status = 0;
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    /** Header value by lowercase name; nullptr when absent. */
    const std::string *header(const std::string &name) const;
};

/**
 * Blocking one-shot HTTP/1.1 client: connect, send one request
 * (a body goes as application/json), read the response
 * (Content-Length or to connection close), disconnect; the socket
 * times out after 60 s.  IoError Status on connect/socket failures;
 * an HTTP error status from the server is NOT a Status error —
 * callers check response.status.
 */
Expected<HttpClientResponse>
httpFetch(const std::string &host, std::uint16_t port,
          const std::string &method, const std::string &target,
          const std::string &body = "");

} // namespace uatm::serve

#endif // UATM_SERVE_HTTP_HH
