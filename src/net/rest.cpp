#include "net/rest.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "linalg/simd.hpp"
#include "net/error_map.hpp"
#include "net/page_codec.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace surro::net {

namespace {

using util::JsonWriter;

/// Structured error body: {"error":{"code":...,"message":...}} with an
/// optional Retry-After header (seconds, rounded up — RFC 9110 delta-secs).
HttpResponse make_error(int status, std::string_view code,
                        std::string_view message,
                        double retry_after_seconds = -1.0) {
  JsonWriter w;
  w.begin_object().key("error").begin_object();
  w.kv("code", code).kv("message", message);
  w.end_object().end_object();
  HttpResponse response = HttpResponse::json(status, w.str());
  if (retry_after_seconds >= 0.0) {
    const auto secs =
        static_cast<long long>(std::ceil(std::max(retry_after_seconds, 0.0)));
    response.headers["retry-after"] = std::to_string(std::max(secs, 1LL));
  }
  return response;
}

/// Parse a decimal unsigned integer, rejecting partial matches.
bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), out);
  return res.ec == std::errc{} && res.ptr == s.data() + s.size();
}

/// A JSON number that is exactly a non-negative integer <= 2^53 (the range
/// a double carries without rounding).
bool number_as_size(const util::JsonValue& v, std::uint64_t& out) {
  if (v.kind != util::JsonValue::Kind::kNumber) return false;
  const double d = v.number;
  if (!std::isfinite(d) || d < 0.0 || d != std::floor(d)) return false;
  if (d > 9007199254740992.0) return false;  // 2^53
  out = static_cast<std::uint64_t>(d);
  return true;
}

/// Seeds are 64-bit and JSON numbers are doubles, so the wire form is a
/// decimal string ("seed": "12345678901234567890"); small integer numbers
/// are accepted for hand-written requests.
bool parse_seed(const util::JsonValue& v, std::uint64_t& out) {
  if (v.kind == util::JsonValue::Kind::kString) {
    return parse_u64(v.string, out);
  }
  return number_as_size(v, out);
}

}  // namespace

RestApi::RestApi(serve::SampleBackend& service, RestConfig cfg)
    : service_(service),
      cfg_(cfg),
      quotas_(cfg.quota_rps, cfg.quota_burst) {
  if (cfg_.page_rows == 0) cfg_.page_rows = 1;
  if (cfg_.max_page_rows < cfg_.page_rows) cfg_.max_page_rows = cfg_.page_rows;
}

HttpResponse RestApi::handle(const HttpRequest& request) {
  // Resolve the route pattern first so 401/405/429 outcomes are still
  // attributed to the route they hit.
  std::string route;
  std::uint64_t job_id = 0;
  bool job_route = false;
  if (request.path == "/healthz") {
    route = "GET /healthz";
  } else if (request.path == "/v1/models") {
    route = "GET /v1/models";
  } else if (request.path == "/v1/sample") {
    route = "POST /v1/sample";
  } else if (request.path == "/v1/stats") {
    route = "GET /v1/stats";
  } else if (request.path.starts_with("/v1/jobs/")) {
    job_route = true;
    route = request.method == "DELETE" ? "DELETE /v1/jobs/{id}"
                                       : "GET /v1/jobs/{id}";
  } else {
    route = "(unmatched)";
  }

  util::Stopwatch sw;
  HttpResponse response = [&]() -> HttpResponse {
    if (route == "(unmatched)") {
      return make_error(404, "unknown_route",
                        "no such resource: " + request.path);
    }

    // Liveness stays key-free (load balancers and the docs example probe
    // it without credentials) and un-metered.
    if (request.path == "/healthz") {
      if (request.method != "GET") {
        HttpResponse r = make_error(405, "method_not_allowed",
                                    "use GET " + request.path);
        r.headers["allow"] = "GET";
        return r;
      }
      return HttpResponse::json(200, "{\"status\":\"ok\"}");
    }

    // API key, then quota — every metered route charges one token.
    std::string key = request.header("x-api-key");
    if (key.empty()) {
      const std::string bearer = request.header("authorization");
      if (bearer.starts_with("Bearer ")) key = bearer.substr(7);
    }
    if (!quotas_.authorized(key)) {
      return make_error(401, "unauthorized",
                        key.empty() ? "missing API key" : "unknown API key");
    }
    double retry_after = 0.0;
    if (!quotas_.charge(key.empty() ? "(anonymous)" : key, clock_.seconds(),
                        &retry_after)) {
      return make_error(429, "quota_exhausted", "request quota exhausted",
                        retry_after);
    }

    if (job_route) {
      const std::string_view id_text =
          std::string_view(request.path).substr(std::string_view("/v1/jobs/").size());
      if (!parse_u64(id_text, job_id)) {
        return make_error(400, "bad_job_id",
                          "job id must be a decimal integer");
      }
      if (request.method == "GET") return handle_job_get(request, job_id);
      if (request.method == "DELETE") return handle_job_delete(job_id);
      HttpResponse r = make_error(405, "method_not_allowed",
                                  "use GET or DELETE on /v1/jobs/{id}");
      r.headers["allow"] = "GET, DELETE";
      return r;
    }

    const bool is_post = request.path == "/v1/sample";
    if ((is_post && request.method != "POST") ||
        (!is_post && request.method != "GET")) {
      const char* allow = is_post ? "POST" : "GET";
      HttpResponse r = make_error(405, "method_not_allowed",
                                  "use " + std::string(allow) + " " +
                                      request.path);
      r.headers["allow"] = allow;
      return r;
    }
    if (request.path == "/v1/models") return handle_models();
    if (request.path == "/v1/sample") return handle_submit(request);
    return handle_stats();
  }();

  const double ms = sw.millis();
  {
    const std::lock_guard<std::mutex> lock(routes_mutex_);
    RouteStats& rs = routes_[route];
    ++rs.requests;
    if (response.status >= 400) ++rs.errors;
    rs.latency.record(ms);
  }
  return response;
}

HttpResponse RestApi::handle_models() {
  JsonWriter w;
  w.begin_object();
  w.key("models").begin_array();
  const auto keys = service_.model_keys();
  for (const auto& key : keys) {
    w.begin_object();
    w.kv("key", key);
    w.kv("resident", service_.model_resident(key));
    w.end_object();
  }
  w.end_array();
  w.kv("count", keys.size());
  w.end_object();
  return HttpResponse::json(200, w.str());
}

HttpResponse RestApi::handle_submit(const HttpRequest& request) {
  util::JsonValue doc;
  try {
    util::JsonLimits limits;
    limits.max_bytes = cfg_.max_body_bytes;
    doc = util::parse_json(request.body, limits);
  } catch (const std::exception& e) {
    return make_error(400, "bad_json", e.what());
  }
  if (doc.kind != util::JsonValue::Kind::kObject) {
    return make_error(400, "bad_request", "body must be a JSON object");
  }

  // Strict field validation: a typo'd field name must fail loudly, not
  // silently sample with a default.
  static const char* kKnown[] = {"model",   "rows",     "seed",
                                 "chunk_rows", "threads", "priority",
                                 "deadline_ms"};
  for (const auto& [field, _] : doc.object) {
    if (std::find_if(std::begin(kKnown), std::end(kKnown),
                     [&](const char* k) { return field == k; }) ==
        std::end(kKnown)) {
      return make_error(400, "unknown_field",
                        "unknown request field '" + field + "'");
    }
  }

  serve::SampleJob job;
  if (!doc.has("model") ||
      doc.at("model").kind != util::JsonValue::Kind::kString) {
    return make_error(400, "bad_request", "'model' (string) is required");
  }
  job.model_key = doc.at("model").as_string();

  std::uint64_t rows = 0;
  if (!doc.has("rows") || !number_as_size(doc.at("rows"), rows)) {
    return make_error(400, "bad_request",
                      "'rows' (non-negative integer) is required");
  }
  if (cfg_.max_rows_per_job != 0 && rows > cfg_.max_rows_per_job) {
    return make_error(400, "rows_out_of_range",
                      "rows exceeds the per-job limit of " +
                          std::to_string(cfg_.max_rows_per_job));
  }
  job.rows = static_cast<std::size_t>(rows);

  if (doc.has("seed") && !parse_seed(doc.at("seed"), job.seed)) {
    return make_error(400, "bad_request",
                      "'seed' must be a non-negative integer or a decimal "
                      "string (64-bit seeds do not survive JSON numbers)");
  }
  std::uint64_t scratch = 0;
  if (doc.has("chunk_rows")) {
    if (!number_as_size(doc.at("chunk_rows"), scratch)) {
      return make_error(400, "bad_request",
                        "'chunk_rows' must be a non-negative integer");
    }
    job.chunk_rows = static_cast<std::size_t>(scratch);
  }
  if (doc.has("threads")) {
    if (!number_as_size(doc.at("threads"), scratch)) {
      return make_error(400, "bad_request",
                        "'threads' must be a non-negative integer");
    }
    job.threads = static_cast<std::size_t>(scratch);
  }
  if (doc.has("priority")) {
    const auto& v = doc.at("priority");
    if (v.kind != util::JsonValue::Kind::kNumber ||
        v.number != std::floor(v.number)) {
      return make_error(400, "bad_request", "'priority' must be an integer");
    }
    job.priority = static_cast<int>(v.number);
  }
  if (doc.has("deadline_ms")) {
    const auto& v = doc.at("deadline_ms");
    if (v.kind != util::JsonValue::Kind::kNumber || v.number < 0.0) {
      return make_error(400, "bad_request",
                        "'deadline_ms' must be a non-negative number");
    }
    job.deadline_ms = v.number;
  }

  // Unknown keys get a clean 404 here instead of an execution failure on
  // the future (the host registry is the source of truth either way).
  if (!service_.has_model(job.model_key)) {
    return make_error(404, "unknown_model",
                      "no model registered under key '" + job.model_key + "'");
  }

  // The identity echoed back is the *effective* one: chunk_rows 0 means
  // "the service default", and the default is part of the determinism key.
  const std::size_t effective_chunk =
      job.chunk_rows == 0 ? service_.config().chunk_rows : job.chunk_rows;

  serve::Submitted submitted;
  try {
    submitted = service_.submit_job(job);
  } catch (const serve::ServiceError& e) {
    // 1:1 mapping of the typed admission errors; both are retryable.
    return make_error(service_error_status(e.code()), service_error_code(e.code()),
                      e.what(), 1.0);
  } catch (const std::logic_error& e) {
    return make_error(503, "shutting_down", e.what(), 1.0);
  }

  auto entry = std::make_shared<JobEntry>();
  entry->params = job;
  entry->params.chunk_rows = effective_chunk;
  entry->id = ++next_job_id_;
  entry->backend_id = submitted.job_id;
  entry->future = std::move(submitted.future);
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_[entry->id] = entry;
  }

  JsonWriter w;
  w.begin_object();
  w.kv("job_id", std::to_string(entry->id));
  w.kv("status", "pending");
  w.kv("model", job.model_key);
  w.kv("rows", static_cast<std::uint64_t>(job.rows));
  w.kv("seed", std::to_string(job.seed));
  w.kv("chunk_rows", static_cast<std::uint64_t>(effective_chunk));
  w.kv("location", "/v1/jobs/" + std::to_string(entry->id));
  w.end_object();
  return HttpResponse::json(202, w.str());
}

void RestApi::harvest_locked(JobEntry& entry, double wait_ms) {
  if (entry.resolved.load()) return;
  if (wait_ms > 0.0) {
    entry.future.wait_for(std::chrono::duration<double, std::milli>(wait_ms));
  }
  if (entry.future.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    return;
  }
  try {
    entry.result = entry.future.get();
  } catch (const serve::ServiceError& e) {
    entry.failed = true;
    entry.error_code = service_error_code(e.code());
    entry.error_message = e.what();
  } catch (const std::exception& e) {
    entry.failed = true;
    entry.error_code = "execution";
    entry.error_message = e.what();
  }
  entry.harvest_seq = ++harvest_seq_;
  entry.resolved.store(true);
  purge_resolved_overflow();
}

void RestApi::purge_resolved_overflow() {
  const std::lock_guard<std::mutex> lock(jobs_mutex_);
  std::size_t resolved = 0;
  for (const auto& [id, entry] : jobs_) {
    if (entry->resolved.load()) ++resolved;
  }
  while (resolved > cfg_.completed_cap) {
    // Evict the least recently resolved entry (smallest harvest_seq).
    auto victim = jobs_.end();
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      if (!it->second->resolved.load()) continue;
      if (victim == jobs_.end() ||
          it->second->harvest_seq < victim->second->harvest_seq) {
        victim = it;
      }
    }
    if (victim == jobs_.end()) break;
    jobs_.erase(victim);
    --resolved;
  }
}

HttpResponse RestApi::handle_job_get(const HttpRequest& request,
                                     std::uint64_t id) {
  std::shared_ptr<JobEntry> entry;
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (const auto it = jobs_.find(id); it != jobs_.end()) entry = it->second;
  }
  if (!entry) {
    return make_error(404, "unknown_job",
                      "no job " + std::to_string(id) +
                          " (never submitted, purged, or deleted)");
  }

  std::uint64_t cursor = 0;
  if (const auto text = request.query_or("cursor"); !text.empty()) {
    if (!parse_u64(text, cursor)) {
      return make_error(400, "bad_cursor",
                        "'cursor' must be a non-negative integer");
    }
  }
  std::uint64_t limit = cfg_.page_rows;
  if (const auto text = request.query_or("limit"); !text.empty()) {
    if (!parse_u64(text, limit) || limit == 0) {
      return make_error(400, "bad_request",
                        "'limit' must be a positive integer");
    }
    limit = std::min<std::uint64_t>(limit, cfg_.max_page_rows);
  }
  double wait_ms = 0.0;
  if (const auto text = request.query_or("wait_ms"); !text.empty()) {
    std::uint64_t parsed = 0;
    if (!parse_u64(text, parsed)) {
      return make_error(400, "bad_request",
                        "'wait_ms' must be a non-negative integer");
    }
    wait_ms = std::min(static_cast<double>(parsed), cfg_.max_wait_ms);
  }

  const std::lock_guard<std::mutex> entry_lock(entry->mutex);
  harvest_locked(*entry, wait_ms);

  if (!entry->resolved.load()) {
    JsonWriter w;
    w.begin_object();
    w.kv("job_id", std::to_string(id));
    w.kv("status", "pending");
    w.kv("model", entry->params.model_key);
    w.kv("rows", static_cast<std::uint64_t>(entry->params.rows));
    w.kv("queue_depth", static_cast<std::uint64_t>(service_.queue_depth()));
    w.end_object();
    return HttpResponse::json(200, w.str());
  }

  if (entry->failed) {
    JsonWriter w;
    w.begin_object();
    w.kv("job_id", std::to_string(id));
    w.kv("status", "failed");
    w.kv("model", entry->params.model_key);
    w.key("error").begin_object();
    w.kv("code", entry->error_code);
    w.kv("message", entry->error_message);
    w.end_object();
    w.end_object();
    return HttpResponse::json(200, w.str());
  }

  const tabular::Table& table = entry->result.table;
  const std::uint64_t total = table.num_rows();
  if (cursor > total) {
    return make_error(400, "bad_cursor",
                      "cursor " + std::to_string(cursor) + " past the " +
                          std::to_string(total) + "-row result");
  }
  PageHeader header;
  header.job_id = id;
  header.model = entry->result.model_key;
  header.seed = entry->params.seed;
  header.chunk_rows = entry->params.chunk_rows;
  header.cache_hit = entry->result.cache_hit;
  header.batch_jobs = entry->result.batch_jobs;
  header.queue_seconds = entry->result.queue_seconds;
  header.sample_seconds = entry->result.sample_seconds;
  header.total_seconds = entry->result.total_seconds;
  header.cursor = cursor;
  header.end = std::min(total, cursor + limit);
  // Column blocks only for a client that names the type; everyone else
  // (curl, the CLI's raw requests) keeps the JSON document.
  if (request.header("accept").find(kColblockContentType) !=
      std::string::npos) {
    HttpResponse response;
    response.headers["content-type"] = std::string(kColblockContentType);
    response.body = encode_colblock_page(header, table);
    return response;
  }
  return HttpResponse::json(200, encode_json_page(header, table));
}

HttpResponse RestApi::handle_job_delete(std::uint64_t id) {
  std::shared_ptr<JobEntry> entry;
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (const auto it = jobs_.find(id); it != jobs_.end()) {
      entry = it->second;
      jobs_.erase(it);
    }
  }
  if (!entry) {
    return make_error(404, "unknown_job", "no job " + std::to_string(id));
  }
  // cancel() is a no-op (false) when the job already resolved — deleting a
  // finished job just releases its retained pages.
  const bool cancelled = service_.cancel(entry->backend_id);
  JsonWriter w;
  w.begin_object();
  w.kv("job_id", std::to_string(id));
  w.kv("status", "deleted");
  w.kv("cancelled", cancelled);
  w.end_object();
  return HttpResponse::json(200, w.str());
}

HttpResponse RestApi::handle_stats() {
  return HttpResponse::json(200, stats_json());
}

std::string RestApi::stats_json() {
  const serve::ServiceStats stats = service_.stats();
  JsonWriter w;
  w.begin_object();
  w.kv("kind", "serve_http_stats");
  w.kv("schema_version", 1);
  w.kv("simd_backend", linalg::simd::active_backend_name());
  w.kv("uptime_seconds", clock_.seconds());

  w.key("service").begin_object();
  w.kv("submitted", stats.submitted);
  w.kv("completed", stats.completed);
  w.kv("failed", stats.failed);
  w.kv("queue_depth", static_cast<std::uint64_t>(stats.queue_depth));
  w.kv("queued_rows", static_cast<std::uint64_t>(stats.queued_rows));
  w.kv("batches", stats.batches);
  w.kv("mean_batch_jobs", stats.mean_batch_jobs);
  w.kv("qps", stats.qps);
  w.kv("rows_per_sec", stats.rows_per_sec);
  w.kv("rejected", stats.rejected);
  w.kv("shed", stats.shed);
  w.kv("cancelled", stats.cancelled);
  w.kv("deadline_missed", stats.deadline_missed);
  w.kv("blocked", stats.blocked);
  w.kv("p50_latency_ms", stats.p50_latency_ms);
  w.kv("p95_latency_ms", stats.p95_latency_ms);
  w.kv("p99_latency_ms", stats.p99_latency_ms);
  w.end_object();

  w.key("admission").begin_object();
  w.kv("policy", serve::admission_policy_name(service_.config().admission));
  w.kv("max_queue_depth",
       static_cast<std::uint64_t>(service_.config().max_queue_depth));
  w.kv("max_queued_rows",
       static_cast<std::uint64_t>(service_.config().max_queued_rows));
  w.end_object();

  w.key("cache").begin_object();
  w.kv("registered", static_cast<std::uint64_t>(stats.host.registered));
  w.kv("resident", static_cast<std::uint64_t>(stats.host.resident));
  w.kv("pinned", static_cast<std::uint64_t>(stats.host.pinned));
  w.kv("capacity", static_cast<std::uint64_t>(stats.host.capacity));
  w.kv("hits", stats.host.hits);
  w.kv("misses", stats.host.misses);
  w.kv("loads", stats.host.loads);
  w.kv("load_failures", stats.host.load_failures);
  w.kv("evictions", stats.host.evictions);
  w.kv("stale_reloads", stats.host.stale_reloads);
  w.kv("invalidations", stats.host.invalidations);
  w.kv("hit_rate", stats.host.hit_rate());
  w.end_object();

  w.key("jobs").begin_object();
  w.kv("tracked", static_cast<std::uint64_t>(tracked_jobs()));
  w.kv("completed_cap", static_cast<std::uint64_t>(cfg_.completed_cap));
  w.end_object();

  w.key("quota").begin_object();
  w.kv("keys", static_cast<std::uint64_t>(quotas_.num_keys()));
  w.kv("default_rps", cfg_.quota_rps);
  w.kv("open_access", quotas_.open_access());
  w.end_object();

  w.key("http").begin_object();
  w.key("routes").begin_array();
  {
    const std::lock_guard<std::mutex> lock(routes_mutex_);
    for (const auto& [route, rs] : routes_) {
      const auto sorted = rs.latency.snapshot_sorted();
      w.begin_object();
      w.kv("route", route);
      w.kv("requests", rs.requests);
      w.kv("errors", rs.errors);
      w.kv("p50_ms", serve::LatencyWindow::percentile(sorted, 0.50));
      w.kv("p95_ms", serve::LatencyWindow::percentile(sorted, 0.95));
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();

  if (server_stats_) {
    const ServerStats ss = server_stats_();
    w.key("server").begin_object();
    w.kv("connections", ss.connections);
    w.kv("requests", ss.requests);
    w.kv("parse_errors", ss.parse_errors);
    w.kv("handler_errors", ss.handler_errors);
    w.kv("timeouts", ss.timeouts);
    w.kv("open_connections", static_cast<std::uint64_t>(ss.open_connections));
    w.end_object();
  }

  // Backend-specific extras: a ShardPool appends its "shards" section
  // (routing table, per-shard counters); a plain service appends nothing.
  service_.append_stats_json(w);

  w.end_object();
  return w.str();
}

std::size_t RestApi::tracked_jobs() const {
  const std::lock_guard<std::mutex> lock(jobs_mutex_);
  return jobs_.size();
}

namespace {
ServerConfig with_body_cap(ServerConfig server_cfg, const RestConfig& rest) {
  // One number for "too big" across both layers: the HTTP framing cap and
  // the JSON document cap are the same value.
  server_cfg.limits.max_body_bytes = rest.max_body_bytes;
  return server_cfg;
}
}  // namespace

HttpEndpoint::HttpEndpoint(serve::SampleBackend& service, RestConfig rest_cfg,
                           ServerConfig server_cfg)
    : api(service, rest_cfg),
      server(with_body_cap(std::move(server_cfg), rest_cfg),
             [this](const HttpRequest& request) { return api.handle(request); }) {
  api.set_server_stats([this] { return server.stats(); });
}

}  // namespace surro::net
