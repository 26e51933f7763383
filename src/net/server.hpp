#pragma once
// HttpServer: the socket front door of the serving stack. A blocking
// accept loop hands each connection to a worker from a dedicated
// util::ThreadPool; the worker runs the keep-alive request loop — recv
// into the incremental RequestParser, dispatch the routed Handler,
// send the serialized response — until the peer closes, errs, idles past
// the timeout, or exhausts its request budget.
//
// The pool is the server's *own* instance, never ThreadPool::global():
// handlers block (long-poll job waits, SampleService backpressure), and
// parking blocked handlers on the pool that also runs sampling chunks
// would deadlock the service under load. Connection capacity is therefore
// exactly `worker_threads` concurrent connections; further accepted
// sockets queue inside the pool until a worker frees up — socket-level
// backpressure consistent with the admission philosophy of PR 5.
//
// Binding to port 0 picks an ephemeral port (reported by port()), which is
// what the tests, the soak socket mode, and the benches use to avoid
// collisions.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "net/http.hpp"
#include "util/thread_pool.hpp"

namespace surro::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (see HttpServer::port())
  std::size_t worker_threads = 8;  ///< max concurrent connections
  int backlog = 64;
  HttpLimits limits;
  /// Requests served on one connection before the server closes it
  /// (bounds how long a single client can monopolize a worker).
  std::size_t keep_alive_max_requests = 10000;
  /// recv() timeout between requests; an idle connection past this is
  /// closed so silent clients cannot pin workers.
  double idle_timeout_seconds = 30.0;
};

/// Socket-level counters (monotonic since start()).
struct ServerStats {
  std::uint64_t connections = 0;      ///< accepted sockets
  std::uint64_t requests = 0;         ///< requests answered (any status)
  std::uint64_t parse_errors = 0;     ///< 4xx/5xx emitted by the parser
  std::uint64_t handler_errors = 0;   ///< handler threw (answered 500)
  std::uint64_t timeouts = 0;         ///< connections closed for idleness
  std::size_t open_connections = 0;   ///< currently open sockets
};

class HttpServer {
 public:
  /// The routed application: request in, response out. Called from worker
  /// threads concurrently — must be thread-safe. A throwing handler is
  /// answered with a structured 500 and counted, never propagated.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(ServerConfig cfg, Handler handler);
  ~HttpServer();  ///< stop()s if still running

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Bind + listen + spawn the accept loop. Throws std::runtime_error on
  /// bind/listen failure (e.g. port in use).
  void start();

  /// Close the listener, shut down every open connection, and join the
  /// accept thread + workers. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept;
  /// The bound port (resolves port 0 to the ephemeral pick).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const ServerConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] ServerStats stats() const;

 private:
  /// Runs on acceptor_ until `listen_fd` is shut down. The fd arrives by
  /// value: stop() closes it only after joining this loop.
  void accept_loop(int listen_fd);
  void serve_connection(int fd);
  /// send() the whole buffer, tolerating partial writes. False on error.
  static bool send_all(int fd, std::string_view data);

  ServerConfig cfg_;
  Handler handler_;
  int listen_fd_ = -1;  // owned by start()/stop(); never read by acceptor_
  std::uint16_t port_ = 0;
  std::atomic<bool> started_{false};

  mutable std::mutex mutex_;
  std::set<int> open_fds_;  // shutdown() targets for stop()
  bool stopping_ = false;
  ServerStats tally_;

  /// Connection workers; constructed in start() so worker_threads is
  /// honored, destroyed (joined) in stop().
  std::unique_ptr<util::ThreadPool> pool_;
  std::thread acceptor_;
};

}  // namespace surro::net
