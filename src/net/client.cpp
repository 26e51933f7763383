#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "net/page_codec.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace surro::net {

namespace {

std::string to_lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

}  // namespace

const char* transport_error_kind_name(TransportError::Kind kind) noexcept {
  switch (kind) {
    case TransportError::Kind::kConnect: return "connect";
    case TransportError::Kind::kTimeout: return "timeout";
    case TransportError::Kind::kClosed: return "closed";
    case TransportError::Kind::kMalformed: return "malformed";
  }
  return "transport";
}

const char* TransportError::kind_name() const noexcept {
  return transport_error_kind_name(kind_);
}

HttpClient::HttpClient(std::string host, std::uint16_t port,
                       double timeout_seconds)
    : host_(std::move(host)), port_(port) {
  cfg_.timeout_seconds = timeout_seconds;
}

HttpClient::HttpClient(std::string host, std::uint16_t port, ClientConfig cfg)
    : host_(std::move(host)), port_(port), cfg_(cfg) {}

HttpClient::~HttpClient() { disconnect(); }

void HttpClient::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  fd_timeout_ = -1.0;
  rx_.clear();
}

void HttpClient::apply_timeout(double seconds) {
  if (fd_ < 0 || seconds == fd_timeout_) return;
  timeval tv{};
  if (seconds > 0.0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>(std::fmod(seconds, 1.0) * 1e6);
  }
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  fd_timeout_ = seconds;
}

void HttpClient::connect() {
  // Reconnect-with-backoff: a refused/unreachable connect is retried with
  // exponential delays, so a worker that is mid-spawn or mid-restart gets
  // a grace window. The per-attempt errors fold into the final throw.
  const std::size_t attempts = std::max<std::size_t>(cfg_.connect_attempts, 1);
  double delay_ms = cfg_.backoff_ms;
  std::string last_why;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt != 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
      delay_ms = std::min(delay_ms * 2.0, cfg_.max_backoff_ms);
    }
    disconnect();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      last_why = std::string("socket() failed: ") + std::strerror(errno);
      continue;
    }
    apply_timeout(cfg_.timeout_seconds);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
      disconnect();
      // Not retryable: the address can never resolve.
      throw TransportError(TransportError::Kind::kConnect,
                           "HttpClient: bad address '" + host_ + "'");
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      return;
    }
    last_why = std::strerror(errno);
    disconnect();
  }
  throw TransportError(TransportError::Kind::kConnect,
                       "HttpClient: cannot connect to " + host_ + ":" +
                           std::to_string(port_) + " after " +
                           std::to_string(attempts) +
                           " attempt(s): " + last_why);
}

bool HttpClient::send_request(const std::string& wire) {
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        throw TransportError(TransportError::Kind::kTimeout,
                             "HttpClient: send timed out");
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool HttpClient::read_response(HttpResponse& out) {
  // Accumulate until the header terminator, then until Content-Length
  // bytes of body. A clean EOF before the first byte means the server
  // closed a keep-alive connection between requests — retryable.
  std::string buf = std::move(rx_);
  rx_.clear();
  char chunk[8192];
  std::size_t header_end = std::string::npos;
  auto find_end = [&] {
    header_end = buf.find("\r\n\r\n");
    return header_end != std::string::npos;
  };
  while (!find_end()) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      if (buf.empty()) return false;
      throw TransportError(TransportError::Kind::kClosed,
                           "HttpClient: connection closed mid-response");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw TransportError(TransportError::Kind::kTimeout,
                             "HttpClient: response timed out");
      }
      throw TransportError(TransportError::Kind::kClosed,
                           "HttpClient: recv failed: " +
                               std::string(std::strerror(errno)));
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }

  // Status line: HTTP/1.x SP code SP reason.
  const std::size_t line_end = buf.find("\r\n");
  const std::string status_line = buf.substr(0, line_end);
  if (status_line.size() < 12 || status_line.compare(0, 5, "HTTP/") != 0) {
    throw TransportError(TransportError::Kind::kMalformed,
                         "HttpClient: malformed status line '" + status_line +
                             "'");
  }
  const std::size_t sp = status_line.find(' ');
  int status = 0;
  {
    const char* begin = status_line.data() + sp + 1;
    const auto res = std::from_chars(begin, begin + 3, status);
    if (res.ec != std::errc{}) {
      throw TransportError(TransportError::Kind::kMalformed,
                           "HttpClient: malformed status code");
    }
  }
  out = HttpResponse{};
  out.status = status;

  // Header fields.
  std::size_t pos = line_end + 2;
  while (pos < header_end) {
    const std::size_t eol = buf.find("\r\n", pos);
    const std::string line = buf.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = to_lower(line.substr(0, colon));
    std::size_t vstart = colon + 1;
    while (vstart < line.size() && (line[vstart] == ' ' || line[vstart] == '\t')) {
      ++vstart;
    }
    out.headers[name] = line.substr(vstart);
  }

  std::size_t body_len = 0;
  if (const auto it = out.headers.find("content-length");
      it != out.headers.end()) {
    const auto res = std::from_chars(
        it->second.data(), it->second.data() + it->second.size(), body_len);
    if (res.ec != std::errc{}) {
      throw TransportError(TransportError::Kind::kMalformed,
                           "HttpClient: malformed content-length");
    }
  }

  const std::size_t body_start = header_end + 4;
  while (buf.size() < body_start + body_len) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      throw TransportError(TransportError::Kind::kClosed,
                           "HttpClient: connection closed mid-body");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw TransportError(TransportError::Kind::kTimeout,
                             "HttpClient: response body timed out");
      }
      throw TransportError(TransportError::Kind::kClosed,
                           "HttpClient: recv failed: " +
                               std::string(std::strerror(errno)));
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  out.body = buf.substr(body_start, body_len);
  rx_ = buf.substr(body_start + body_len);

  if (to_lower(out.headers.count("connection") ? out.headers["connection"]
                                               : "") == "close") {
    disconnect();
  }
  return true;
}

HttpResponse HttpClient::request(
    const std::string& method, const std::string& target,
    const std::string& body, const std::map<std::string, std::string>& headers,
    double timeout_seconds) {
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  wire += "host: " + host_ + ":" + std::to_string(port_) + "\r\n";
  for (const auto& [name, value] : headers) {
    wire += name + ": " + value + "\r\n";
  }
  if (!body.empty() || method == "POST") {
    wire += "content-length: " + std::to_string(body.size()) + "\r\n";
  }
  wire += "\r\n";
  wire += body;

  const double budget =
      timeout_seconds > 0.0 ? timeout_seconds : cfg_.timeout_seconds;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0) connect();
    apply_timeout(budget);
    HttpResponse response;
    try {
      if (send_request(wire) && read_response(response)) return response;
    } catch (...) {
      // A timeout / truncated response leaves the stream desynchronized: a
      // late reply would be read as the answer to the NEXT request on this
      // keep-alive connection. Never hand that fd to a future call.
      disconnect();
      throw;
    }
    // Dead keep-alive connection: reconnect once and retry. Safe for this
    // API because the failure happened before any response byte arrived.
    disconnect();
  }
  throw TransportError(TransportError::Kind::kClosed,
                       "HttpClient: server closed the connection twice");
}

// --- ApiClient --------------------------------------------------------------

ApiClient::ApiClient(std::string host, std::uint16_t port, std::string api_key,
                     double timeout_seconds)
    : http_(std::move(host), port, timeout_seconds),
      api_key_(std::move(api_key)) {}

ApiClient::ApiClient(std::string host, std::uint16_t port, std::string api_key,
                     ClientConfig cfg)
    : http_(std::move(host), port, cfg), api_key_(std::move(api_key)) {}

HttpResponse ApiClient::call(const std::string& method,
                             const std::string& target,
                             const std::string& body,
                             double timeout_seconds, std::string_view accept) {
  std::map<std::string, std::string> headers;
  if (!api_key_.empty()) headers["x-api-key"] = api_key_;
  if (!body.empty()) headers["content-type"] = "application/json";
  if (!accept.empty()) headers["accept"] = std::string(accept);
  HttpResponse response =
      http_.request(method, target, body, headers, timeout_seconds);
  if (response.status >= 200 && response.status < 300) return response;

  std::string code = "http_" + std::to_string(response.status);
  std::string message = response.body;
  try {
    const auto doc = util::parse_json(response.body);
    const auto& err = doc.at("error");
    code = err.at("code").as_string();
    message = err.at("message").as_string();
  } catch (const std::exception&) {
    // Non-JSON error body: keep the raw fallback.
  }
  double retry_after = -1.0;
  if (const auto it = response.headers.find("retry-after");
      it != response.headers.end()) {
    retry_after = std::atof(it->second.c_str());
  }
  throw ApiError(response.status, std::move(code), message, retry_after);
}

std::uint64_t ApiClient::submit(const std::string& model, std::size_t rows,
                                std::uint64_t seed, std::size_t chunk_rows,
                                int priority, double deadline_ms) {
  util::JsonWriter w;
  w.begin_object();
  w.kv("model", model);
  w.kv("rows", static_cast<std::uint64_t>(rows));
  // Seeds ride as decimal strings: 64-bit values do not survive a JSON
  // number (see rest.hpp header comment).
  w.kv("seed", std::to_string(seed));
  if (chunk_rows != 0) {
    w.kv("chunk_rows", static_cast<std::uint64_t>(chunk_rows));
  }
  if (priority != 0) w.kv("priority", priority);
  if (deadline_ms > 0.0) w.kv("deadline_ms", deadline_ms);
  w.end_object();

  const HttpResponse response = call("POST", "/v1/sample", w.str());
  return decode_or_malformed("submit response", [&] {
    const auto doc = util::parse_json(response.body);
    std::uint64_t id = 0;
    const std::string& text = doc.at("job_id").as_string();
    const auto res =
        std::from_chars(text.data(), text.data() + text.size(), id);
    if (res.ec != std::errc{} || id == 0) {
      throw std::runtime_error("bad job_id '" + text + "'");
    }
    return id;
  });
}

RemoteResult ApiClient::wait_result(std::uint64_t job_id,
                                    std::size_t page_rows,
                                    double poll_wait_ms) {
  const std::string base = "/v1/jobs/" + std::to_string(job_id);
  RemoteResult out;
  std::uint64_t cursor = 0;

  for (;;) {
    std::string target = base + "?cursor=" + std::to_string(cursor);
    if (page_rows != 0) target += "&limit=" + std::to_string(page_rows);
    if (poll_wait_ms > 0.0) {
      target += "&wait_ms=" +
                std::to_string(static_cast<std::uint64_t>(poll_wait_ms));
    }
    const HttpResponse response =
        call("GET", target, "", 0.0, kColblockContentType);
    // Done pages come back as column blocks; pending and failed answers
    // stay JSON.
    enum class Page { kPending, kMore, kDone };
    const Page state = decode_or_malformed("job page", [&]() -> Page {
      const auto type = response.headers.find("content-type");
      if (type == response.headers.end() ||
          !type->second.starts_with(kColblockContentType)) {
        const auto doc = util::parse_json(response.body);
        const std::string status = doc.at("status").as_string();
        if (status == "pending") return Page::kPending;  // long-poll timed out
        if (status == "failed") {
          const auto& err = doc.at("error");
          throw ApiError(200, err.at("code").as_string(),
                         err.at("message").as_string(), -1.0);
        }
        throw std::runtime_error("'" + status +
                                 "' page is not in column blocks");
      }
      const DecodedPage page = decode_colblock_page(response.body);
      if (page.cursor != cursor) {
        throw std::runtime_error("page starts at row " +
                                 std::to_string(page.cursor) + ", not " +
                                 std::to_string(cursor));
      }
      if (out.pages == 0) {
        const auto& doc = page.envelope;
        out.table = tabular::Table(page.rows.schema());
        out.model_key = doc.at("model").as_string();
        out.queue_seconds = doc.number_or("queue_seconds", 0.0);
        out.sample_seconds = doc.number_or("sample_seconds", 0.0);
        out.total_seconds = doc.number_or("total_seconds", 0.0);
        out.cache_hit = doc.has("cache_hit") && doc.at("cache_hit").as_bool();
      }
      // One remap per dictionary label per page, then the codes in bulk.
      out.table.append_table(page.rows);
      ++out.pages;
      if (!page.next_cursor) return Page::kDone;
      cursor = *page.next_cursor;
      return Page::kMore;
    });
    if (state == Page::kDone) break;
  }
  return out;
}

bool ApiClient::cancel(std::uint64_t job_id) {
  const HttpResponse response =
      call("DELETE", "/v1/jobs/" + std::to_string(job_id));
  return decode_or_malformed("cancel response", [&] {
    return util::parse_json(response.body).at("cancelled").as_bool();
  });
}

std::vector<std::string> ApiClient::models() {
  const HttpResponse response = call("GET", "/v1/models");
  return decode_or_malformed("models response", [&] {
    const auto doc = util::parse_json(response.body);
    std::vector<std::string> keys;
    for (const auto& model : doc.at("models").array) {
      keys.push_back(model.at("key").as_string());
    }
    return keys;
  });
}

std::string ApiClient::stats_json() {
  return call("GET", "/v1/stats").body;
}

bool ApiClient::healthy(double timeout_seconds) {
  try {
    return call("GET", "/healthz", "", timeout_seconds).status == 200;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace surro::net
