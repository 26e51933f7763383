#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace surro::net {

namespace {

/// Structured body for server-originated errors (parse failures, handler
/// throws) so even protocol-level rejections speak the REST error schema.
HttpResponse error_response(int status, const std::string& code,
                            const std::string& message) {
  std::string body = "{\"error\":{\"code\":\"" + code + "\",\"message\":\"";
  for (const char c : message) {  // minimal escape: the inputs are ours
    if (c == '"' || c == '\\') body += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) body += c;
  }
  body += "\"}}";
  return HttpResponse::json(status, std::move(body));
}

const char* parse_error_code(int status) {
  switch (status) {
    case 413: return "payload_too_large";
    case 431: return "headers_too_large";
    case 501: return "not_implemented";
    case 505: return "http_version_unsupported";
    default: return "bad_request";
  }
}

}  // namespace

HttpServer::HttpServer(ServerConfig cfg, Handler handler)
    : cfg_(std::move(cfg)), handler_(std::move(handler)) {
  if (!handler_) throw std::invalid_argument("HttpServer: null handler");
  if (cfg_.worker_threads == 0) cfg_.worker_threads = 1;
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  if (started_) throw std::logic_error("HttpServer: already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("HttpServer: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpServer: bad bind address '" +
                             cfg_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, cfg_.backlog) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpServer: cannot listen on " +
                             cfg_.bind_address + ":" +
                             std::to_string(cfg_.port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = false;
  }
  pool_ = std::make_unique<util::ThreadPool>(cfg_.worker_threads);
  acceptor_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
  started_ = true;
}

void HttpServer::stop() {
  if (!started_) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    // Wake every blocked recv(); the workers observe the shutdown and
    // drop out of their keep-alive loops.
    for (const int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  // Shutting the listener down fails the blocking accept() with EINVAL,
  // which the accept loop treats as the stop signal. The fd is closed only
  // after the join, so the acceptor can never accept() on a closed fd or
  // on one the process has already reused.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  pool_.reset();  // joins connection workers (they drain promptly)
  started_ = false;
}

bool HttpServer::running() const noexcept { return started_; }

ServerStats HttpServer::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ServerStats out = tally_;
  out.open_connections = open_fds_.size();
  return out;
}

void HttpServer::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener shut down: stop() was called
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      open_fds_.insert(fd);
      ++tally_.connections;
    }
    pool_->submit([this, fd] { serve_connection(fd); });
  }
}

bool HttpServer::send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void HttpServer::serve_connection(int fd) {
  // recv() deadline so an idle or trickling peer cannot pin this worker.
  if (cfg_.idle_timeout_seconds > 0.0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(cfg_.idle_timeout_seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        std::fmod(cfg_.idle_timeout_seconds, 1.0) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  RequestParser parser(cfg_.limits);
  std::size_t served = 0;
  char buf[8192];
  bool timed_out = false;

  while (served < cfg_.keep_alive_max_requests) {
    // Pipelined bytes may have completed the next request already.
    if (parser.state() == RequestParser::State::kNeedMore) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) break;  // peer closed
      if (n < 0) {
        if (errno == EINTR) continue;
        timed_out = (errno == EAGAIN || errno == EWOULDBLOCK);
        break;
      }
      parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }

    if (parser.state() == RequestParser::State::kError) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++tally_.parse_errors;
        ++tally_.requests;
      }
      const HttpResponse response =
          error_response(parser.error_status(),
                         parse_error_code(parser.error_status()),
                         parser.error_reason());
      send_all(fd, serialize_response(response, /*keep_alive=*/false));
      break;  // framing is unrecoverable after a parse error
    }
    if (parser.state() != RequestParser::State::kComplete) continue;

    const HttpRequest& request = parser.request();
    const bool keep_alive = request.keep_alive &&
                            served + 1 < cfg_.keep_alive_max_requests;
    HttpResponse response;
    try {
      response = handler_(request);
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++tally_.handler_errors;
      response = error_response(500, "internal", e.what());
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++tally_.handler_errors;
      response = error_response(500, "internal", "unknown handler error");
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++tally_.requests;
    }
    ++served;
    if (!send_all(fd, serialize_response(response, keep_alive))) break;
    if (!keep_alive) break;
    parser.reset();
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (timed_out) ++tally_.timeouts;
    open_fds_.erase(fd);
  }
  ::close(fd);
}

}  // namespace surro::net
