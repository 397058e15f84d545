/**
 * @file
 * Implementation of the minimal HTTP listener and client.
 */

#include "serve/http.hh"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

#include "util/logging.hh"

namespace uatm::serve {

namespace {

// The daemon's fixed limits; a request past one is answered with
// the status named, before any handler runs.
constexpr int kBacklog = 16;
constexpr std::size_t kMaxHeaderBytes = 64 * 1024;     ///< 431
constexpr std::size_t kMaxBodyBytes = 8 * 1024 * 1024; ///< 413
constexpr unsigned kMaxConnections = 64;               ///< 503
constexpr unsigned kIoTimeoutSeconds = 30;

// How long httpFetch() waits on the socket.
constexpr unsigned kClientTimeoutSeconds = 60;

std::string
toLower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return s;
}

void
setIoTimeout(int fd, unsigned seconds)
{
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(seconds);
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/** send() the whole buffer; false on any failure.  MSG_NOSIGNAL
 *  keeps a dead client from killing the process with SIGPIPE. */
bool
sendAll(int fd, std::string_view data)
{
    while (!data.empty()) {
        const ssize_t n = ::send(fd, data.data(), data.size(),
                                 MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

/** Read until the \r\n\r\n header terminator (keeping any body
 *  prefix read past it in @p out), capped at @p max_bytes.
 *  Returns false on socket error/timeout or an oversized header
 *  block (@p overflow distinguishes the latter). */
bool
readHeaderBlock(int fd, std::string &out, std::size_t max_bytes,
                bool *overflow)
{
    *overflow = false;
    char buf[4096];
    while (out.find("\r\n\r\n") == std::string::npos) {
        if (out.size() > max_bytes) {
            *overflow = true;
            return false;
        }
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        out.append(buf, static_cast<std::size_t>(n));
    }
    return true;
}

struct ParsedHead
{
    std::string method;
    std::string target;
    std::vector<std::pair<std::string, std::string>> headers;
};

/** Parse "METHOD target HTTP/1.x\r\nName: value\r\n..."; false on
 *  anything malformed. */
bool
parseHead(std::string_view head, ParsedHead &out)
{
    std::size_t line_end = head.find("\r\n");
    if (line_end == std::string_view::npos)
        return false;
    const std::string_view request_line = head.substr(0, line_end);
    const std::size_t sp1 = request_line.find(' ');
    if (sp1 == std::string_view::npos || sp1 == 0)
        return false;
    const std::size_t sp2 = request_line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos || sp2 == sp1 + 1)
        return false;
    const std::string_view version = request_line.substr(sp2 + 1);
    if (version.rfind("HTTP/1.", 0) != 0)
        return false;
    out.method = std::string(request_line.substr(0, sp1));
    out.target =
        std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));

    std::size_t pos = line_end + 2;
    while (pos < head.size()) {
        line_end = head.find("\r\n", pos);
        if (line_end == std::string_view::npos)
            line_end = head.size();
        const std::string_view line =
            head.substr(pos, line_end - pos);
        pos = line_end + 2;
        if (line.empty())
            break;
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos || colon == 0)
            return false;
        std::string_view value = line.substr(colon + 1);
        while (!value.empty() &&
               (value.front() == ' ' || value.front() == '\t'))
            value.remove_prefix(1);
        while (!value.empty() &&
               (value.back() == ' ' || value.back() == '\t'))
            value.remove_suffix(1);
        out.headers.emplace_back(
            toLower(std::string(line.substr(0, colon))),
            std::string(value));
    }
    return true;
}

const std::string *
findHeader(
    const std::vector<std::pair<std::string, std::string>> &headers,
    const std::string &name)
{
    for (const auto &[key, value] : headers) {
        if (key == name)
            return &value;
    }
    return nullptr;
}

std::string
responseHead(int status, const std::string &content_type,
             const std::vector<std::pair<std::string, std::string>>
                 &extra,
             bool has_length, std::size_t length)
{
    std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                       httpStatusReason(status) + "\r\n";
    head += "Content-Type: " + content_type + "\r\n";
    for (const auto &[name, value] : extra)
        head += name + ": " + value + "\r\n";
    if (has_length)
        head +=
            "Content-Length: " + std::to_string(length) + "\r\n";
    head += "Connection: close\r\n\r\n";
    return head;
}

void
sendSimple(int fd, int status, const std::string &body)
{
    const std::string head = responseHead(
        status, "text/plain; charset=utf-8", {}, true, body.size());
    if (sendAll(fd, head))
        sendAll(fd, body);
}

} // namespace

const std::string *
HttpRequest::header(const std::string &name) const
{
    return findHeader(headers, name);
}

const std::string *
HttpClientResponse::header(const std::string &name) const
{
    return findHeader(headers, name);
}

const char *
httpStatusReason(int status)
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
      case 413:
        return "Payload Too Large";
      case 429:
        return "Too Many Requests";
      case 431:
        return "Request Header Fields Too Large";
      case 500:
        return "Internal Server Error";
      case 503:
        return "Service Unavailable";
      default:
        return "Unknown";
    }
}

HttpServer::~HttpServer()
{
    stop();
}

Status
HttpServer::start(const Options &options, Handler handler)
{
    if (running_.load())
        return Status::invalidArgument("server already running");
    options_ = options;
    handler_ = std::move(handler);

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return Status::ioError("socket: ", std::strerror(errno));

    const int one = 1;
    setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
               sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (inet_pton(AF_INET, options_.bindAddress.c_str(),
                  &addr.sin_addr) != 1) {
        ::close(listenFd_);
        listenFd_ = -1;
        return Status::invalidArgument("bad bind address '",
                                       options_.bindAddress, "'");
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        return Status::ioError("bind ", options_.bindAddress, ":",
                               options_.port, ": ",
                               std::strerror(err));
    }
    if (::listen(listenFd_, kBacklog) != 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        return Status::ioError("listen: ", std::strerror(err));
    }

    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) != 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        return Status::ioError("getsockname: ",
                               std::strerror(err));
    }
    port_ = ntohs(bound.sin_port);

    running_.store(true);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return Status();
}

void
HttpServer::stop()
{
    if (!running_.exchange(false)) {
        // Not running: still join a failed-start accept thread.
        if (acceptThread_.joinable())
            acceptThread_.join();
        return;
    }
    // Shutting the listener down wakes accept() with an error.  The
    // accept thread reads listenFd_ until it exits, so the fd is
    // closed and reset only after the join.
    ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    ::close(listenFd_);
    listenFd_ = -1;
    std::vector<Connection> connections;
    {
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        connections.swap(connections_);
    }
    for (auto &connection : connections) {
        if (connection.thread.joinable())
            connection.thread.join();
    }
    port_ = 0;
}

void
HttpServer::reapFinished()
{
    std::lock_guard<std::mutex> lock(connectionsMutex_);
    std::vector<Connection> still_running;
    still_running.reserve(connections_.size());
    for (auto &connection : connections_) {
        if (connection.done->load()) {
            if (connection.thread.joinable())
                connection.thread.join();
        } else {
            still_running.push_back(std::move(connection));
        }
    }
    connections_.swap(still_running);
}

void
HttpServer::acceptLoop()
{
    while (running_.load()) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            // The listener was closed by stop(), or something is
            // badly wrong; either way the loop is done.
            break;
        }
        if (!running_.load()) {
            ::close(fd);
            break;
        }
        reapFinished();
        if (activeConnections_.load() >= kMaxConnections) {
            sendSimple(fd, 503, "connection limit reached\n");
            ::close(fd);
            continue;
        }
        activeConnections_.fetch_add(1);
        auto done = std::make_shared<std::atomic<bool>>(false);
        std::thread thread([this, fd, done] {
            handleConnection(fd);
            activeConnections_.fetch_sub(1);
            done->store(true);
        });
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        connections_.push_back(
            Connection{std::move(thread), std::move(done)});
    }
}

void
HttpServer::handleConnection(int fd)
{
    setIoTimeout(fd, kIoTimeoutSeconds);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::string data;
    bool overflow = false;
    if (!readHeaderBlock(fd, data, kMaxHeaderBytes,
                         &overflow)) {
        if (overflow)
            sendSimple(fd, 431, "header block too large\n");
        ::close(fd);
        return;
    }
    const std::size_t head_end = data.find("\r\n\r\n");
    ParsedHead head;
    if (!parseHead(std::string_view(data).substr(0, head_end + 2),
                   head)) {
        sendSimple(fd, 400, "malformed request\n");
        ::close(fd);
        return;
    }

    HttpRequest request;
    request.method = std::move(head.method);
    request.target = std::move(head.target);
    request.headers = std::move(head.headers);
    request.body = data.substr(head_end + 4);

    if (const std::string *length =
            request.header("content-length")) {
        char *end = nullptr;
        errno = 0;
        const unsigned long long want =
            std::strtoull(length->c_str(), &end, 10);
        if (errno != 0 || end == length->c_str() || *end != '\0') {
            sendSimple(fd, 400, "bad Content-Length\n");
            ::close(fd);
            return;
        }
        if (want > kMaxBodyBytes) {
            sendSimple(fd, 413, "request body too large\n");
            ::close(fd);
            return;
        }
        char buf[4096];
        while (request.body.size() < want) {
            const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                ::close(fd);
                return;
            }
            request.body.append(buf,
                                static_cast<std::size_t>(n));
        }
        request.body.resize(want);
    } else if (!request.body.empty()) {
        sendSimple(fd, 400,
                   "request body without Content-Length\n");
        ::close(fd);
        return;
    }

    HttpResponse response;
    try {
        response = handler_(request);
    } catch (const std::exception &e) {
        sendSimple(fd, 500,
                   std::string("internal error: ") + e.what() +
                       "\n");
        ::close(fd);
        return;
    }

    if (response.streamer) {
        const std::string header_block = responseHead(
            response.status, response.contentType,
            response.headers, false, 0);
        if (sendAll(fd, header_block)) {
            const HttpSink sink =
                [fd](std::string_view chunk) -> bool {
                return sendAll(fd, chunk);
            };
            response.streamer(sink);
        }
    } else {
        const std::string header_block = responseHead(
            response.status, response.contentType,
            response.headers, true, response.body.size());
        if (sendAll(fd, header_block))
            sendAll(fd, response.body);
    }
    ::shutdown(fd, SHUT_WR);
    // Drain whatever the client still had in flight so its send()
    // doesn't see a reset, then close.
    char drain[1024];
    while (::recv(fd, drain, sizeof(drain), 0) > 0) {}
    ::close(fd);
}

Expected<HttpClientResponse>
httpFetch(const std::string &host, std::uint16_t port,
          const std::string &method, const std::string &target,
          const std::string &body)
{
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *list = nullptr;
    const int rc = ::getaddrinfo(host.c_str(),
                                 std::to_string(port).c_str(),
                                 &hints, &list);
    if (rc != 0) {
        return Status::ioError("resolve ", host, ": ",
                               gai_strerror(rc));
    }

    int fd = -1;
    for (addrinfo *ai = list; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(list);
    if (fd < 0) {
        return Status::ioError("connect ", host, ":", port, ": ",
                               std::strerror(errno));
    }
    setIoTimeout(fd, kClientTimeoutSeconds);

    std::string request = method + " " + target + " HTTP/1.1\r\n";
    request += "Host: " + host + "\r\n";
    if (!body.empty()) {
        request += "Content-Type: application/json\r\n";
        request +=
            "Content-Length: " + std::to_string(body.size()) +
            "\r\n";
    }
    request += "Connection: close\r\n\r\n";
    request += body;
    if (!sendAll(fd, request)) {
        const int err = errno;
        ::close(fd);
        return Status::ioError("send: ", std::strerror(err));
    }

    std::string data;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        data.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);

    const std::size_t head_end = data.find("\r\n\r\n");
    if (head_end == std::string::npos)
        return Status::parseError("truncated HTTP response");
    const std::string_view head =
        std::string_view(data).substr(0, head_end + 2);
    const std::size_t line_end = head.find("\r\n");
    const std::string_view status_line = head.substr(0, line_end);
    if (status_line.rfind("HTTP/1.", 0) != 0)
        return Status::parseError("bad HTTP status line");
    const std::size_t sp = status_line.find(' ');
    if (sp == std::string_view::npos)
        return Status::parseError("bad HTTP status line");

    HttpClientResponse response;
    response.status = std::atoi(
        std::string(status_line.substr(sp + 1, 3)).c_str());

    std::size_t pos = line_end + 2;
    while (pos < head.size()) {
        std::size_t eol = head.find("\r\n", pos);
        if (eol == std::string_view::npos)
            eol = head.size();
        const std::string_view line = head.substr(pos, eol - pos);
        pos = eol + 2;
        if (line.empty())
            break;
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos)
            continue;
        std::string_view value = line.substr(colon + 1);
        while (!value.empty() && value.front() == ' ')
            value.remove_prefix(1);
        response.headers.emplace_back(
            toLower(std::string(line.substr(0, colon))),
            std::string(value));
    }
    response.body = data.substr(head_end + 4);
    if (const std::string *length =
            response.header("content-length")) {
        const std::size_t want = static_cast<std::size_t>(
            std::strtoull(length->c_str(), nullptr, 10));
        if (response.body.size() < want)
            return Status::parseError(
                "truncated HTTP body: got ",
                response.body.size(), " of ", want, " bytes");
        response.body.resize(want);
    }
    return response;
}

} // namespace uatm::serve
