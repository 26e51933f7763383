#include "serve/replay.hpp"

#include <algorithm>
#include <bit>
#include <istream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "linalg/simd.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/stringx.hpp"

namespace surro::serve {

namespace {

/// Range-checked double → unsigned conversion: a negative, non-finite, or
/// absurd script value must fail parsing, not wrap through the cast (which
/// is UB for out-of-range doubles).
std::uint64_t to_count(const std::string& key, const util::JsonValue& value,
                       std::uint64_t max = std::uint64_t{1} << 40) {
  const double v = value.as_number();
  if (!(v >= 0.0) || v > static_cast<double>(max)) {
    throw std::runtime_error("field '" + key + "' out of range");
  }
  return static_cast<std::uint64_t>(v);
}

/// Apply one parsed key/value to a request; shared by both script formats.
void apply_field(ReplayRequest& request, const std::string& key,
                 const util::JsonValue& value) {
  if (key == "model") {
    request.job.model_key = value.as_string();
  } else if (key == "rows") {
    request.job.rows = static_cast<std::size_t>(to_count(key, value));
  } else if (key == "seed") {
    // Seeds may use the full uint64 range in the API, but a script value
    // travels through a double, which is exact only up to 2^53.
    request.job.seed = to_count(key, value, std::uint64_t{1} << 53);
  } else if (key == "chunk_rows") {
    request.job.chunk_rows = static_cast<std::size_t>(to_count(key, value));
  } else if (key == "threads") {
    request.job.threads = static_cast<std::size_t>(to_count(key, value));
  } else if (key == "priority") {
    const double v = value.as_number();
    if (!(v >= -1e6) || v > 1e6) {
      throw std::runtime_error("field 'priority' out of range");
    }
    request.job.priority = static_cast<int>(v);
  } else if (key == "deadline_ms") {
    const double v = value.as_number();
    if (!(v >= 0.0) || v > 1e12) {
      throw std::runtime_error("field 'deadline_ms' out of range");
    }
    request.job.deadline_ms = v;
  } else if (key == "repeat") {
    request.repeat = static_cast<std::size_t>(
        to_count(key, value, std::uint64_t{1} << 20));
  } else if (key == "seed_stride") {
    request.seed_stride = to_count(key, value, std::uint64_t{1} << 53);
  } else {
    throw std::runtime_error("unknown field '" + key + "'");
  }
}

void validate(const ReplayRequest& request) {
  if (request.job.model_key.empty()) {
    throw std::runtime_error("request needs a model");
  }
  if (request.job.rows == 0) {
    throw std::runtime_error("request needs rows > 0");
  }
  if (request.repeat == 0) {
    throw std::runtime_error("repeat must be >= 1");
  }
}

}  // namespace

ReplayScript parse_script_jsonl(std::istream& is) {
  ReplayScript script;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    try {
      const util::JsonValue doc = util::parse_json(trimmed);
      if (doc.kind != util::JsonValue::Kind::kObject) {
        throw std::runtime_error("line is not a JSON object");
      }
      ReplayRequest request;
      for (const auto& [key, value] : doc.object) {
        apply_field(request, key, value);
      }
      validate(request);
      script.requests.push_back(std::move(request));
    } catch (const std::exception& e) {
      throw std::runtime_error("request script line " +
                               std::to_string(line_no) + ": " + e.what());
    }
  }
  return script;
}

ReplayScript parse_script_inline(const std::string& spec) {
  ReplayScript script;
  for (const auto raw_request : util::split(spec, ';')) {
    if (util::trim(raw_request).empty()) continue;
    ReplayRequest request;
    for (const auto raw_pair : util::split(raw_request, ',')) {
      const auto pair = util::trim(raw_pair);
      if (pair.empty()) continue;
      const auto eq = pair.find('=');
      if (eq == std::string_view::npos) {
        throw std::runtime_error("bad request field '" + std::string(pair) +
                                 "' (want key=value)");
      }
      const std::string key{util::trim(pair.substr(0, eq))};
      const std::string value{util::trim(pair.substr(eq + 1))};
      util::JsonValue parsed;
      if (key == "model") {
        parsed.kind = util::JsonValue::Kind::kString;
        parsed.string = value;
      } else {
        parsed.kind = util::JsonValue::Kind::kNumber;
        if (!util::parse_double(value, parsed.number)) {
          throw std::runtime_error("bad numeric value '" + value +
                                   "' for field '" + key + "'");
        }
      }
      apply_field(request, key, parsed);
    }
    validate(request);
    script.requests.push_back(std::move(request));
  }
  return script;
}

std::uint64_t hash_table(const tabular::Table& table) {
  std::uint64_t h = util::kFnvOffset;
  util::fnv_mix_u64(h, static_cast<std::uint64_t>(table.num_rows()));
  for (const std::size_t col : table.schema().numerical_indices()) {
    for (const double v : table.numerical(col)) {
      util::fnv_mix_u64(h, std::bit_cast<std::uint64_t>(v));
    }
  }
  for (const std::size_t col : table.schema().categorical_indices()) {
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      util::fnv_mix_bytes(h, table.label_at(col, r));
      util::fnv_mix_byte(h, 0xFF);  // terminator: "ab","c" != "a","bc"
    }
  }
  return h;
}

ReplayResult run_replay(SampleBackend& service, const ReplayScript& script,
                        const ReplayOptions& options) {
  std::vector<SampleJob> jobs;
  for (std::size_t round = 0; round < std::max<std::size_t>(options.rounds, 1);
       ++round) {
    // Rounds replay identical traffic: repetition k of a request always
    // uses seed + k*stride, independent of the round — so a multi-round
    // run re-requests the same streams and exercises cache reuse.
    for (const auto& request : script.requests) {
      for (std::size_t k = 0; k < request.repeat; ++k) {
        SampleJob job = request.job;
        job.seed += static_cast<std::uint64_t>(k) * request.seed_stride;
        jobs.push_back(std::move(job));
      }
    }
  }

  if (jobs.empty()) {
    ReplayResult empty;
    empty.stats = service.stats();
    return empty;
  }

  const std::size_t clients =
      std::min(std::max<std::size_t>(options.clients, 1), jobs.size());
  struct ClientTally {
    std::uint64_t jobs = 0, failures = 0;
    std::uint64_t rejected = 0, shed = 0, deadline_missed = 0;
    std::vector<tabular::Table> tables;
  };
  std::vector<ClientTally> tallies(std::max<std::size_t>(clients, 1));

  util::Stopwatch wall;
  // Dedicated client threads (not pool workers — clients block on futures,
  // and the pool is busy sampling underneath them). Client c submits jobs
  // c, c+C, c+2C, ... up front, then waits for them in order. Tables are
  // kept and digested after the clock stops, so the throughput numbers
  // measure serving, not hashing. Overload outcomes (admission rejection,
  // shedding, missed deadlines) are tallied per kind: a replay against a
  // bounded service is *expected* to drop work, and those drops must not
  // read as execution failures.
  const auto client = [&](std::size_t c) {
    auto& tally = tallies[c];
    std::vector<std::future<SampleResult>> futures;
    for (std::size_t i = c; i < jobs.size(); i += clients) {
      ++tally.jobs;
      try {
        futures.push_back(service.submit(jobs[i]));
      } catch (const ServiceError& e) {
        if (e.code() == ServiceError::Code::kShed) {
          ++tally.shed;
        } else {
          ++tally.rejected;
        }
      } catch (const std::exception&) {
        ++tally.failures;  // e.g. a dead remote backend's TransportError
      }
    }
    for (auto& future : futures) {
      try {
        tally.tables.push_back(future.get().table);
      } catch (const ServiceError& e) {
        switch (e.code()) {
          case ServiceError::Code::kShed: ++tally.shed; break;
          case ServiceError::Code::kDeadline: ++tally.deadline_missed; break;
          default: ++tally.failures; break;
        }
      } catch (const std::exception&) {
        ++tally.failures;
      }
    }
  };

  if (clients <= 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back(client, c);
    }
    for (auto& t : threads) t.join();
  }

  ReplayResult result;
  result.wall_seconds = wall.seconds();
  result.stats = service.stats();
  for (const auto& tally : tallies) {
    result.jobs += tally.jobs;
    result.completed += tally.tables.size();
    result.failures += tally.failures;
    result.rejected += tally.rejected;
    result.shed += tally.shed;
    result.deadline_missed += tally.deadline_missed;
    for (const auto& table : tally.tables) {
      result.rows += table.num_rows();
      // Sum (not XOR): identical repeated jobs must not cancel out.
      result.output_hash += hash_table(table);
    }
  }
  return result;
}

std::string serve_stats_to_json(const SampleBackend& service,
                                const ReplayOptions& options,
                                const ReplayResult& result) {
  const ServiceStats& s = result.stats;
  const ServiceConfig& cfg = service.config();

  util::JsonWriter w;
  w.begin_object();
  w.kv("schema_version", 1);
  w.kv("kind", "serve_stats");
  w.kv("simd_backend", linalg::simd::active_backend_name());
  w.key("config").begin_object();
  w.kv("capacity", s.host.capacity);
  w.kv("sample_threads", cfg.sample_threads);
  w.kv("chunk_rows", cfg.chunk_rows);
  w.kv("max_batch", cfg.max_batch);
  w.kv("admission", admission_policy_name(cfg.admission));
  w.kv("max_queue_depth", cfg.max_queue_depth);
  w.kv("max_queued_rows", cfg.max_queued_rows);
  w.kv("clients", options.clients);
  w.kv("rounds", options.rounds);
  w.end_object();
  w.kv("jobs", result.jobs);
  w.kv("completed", result.completed);
  w.kv("rows", result.rows);
  w.kv("failures", result.failures);
  w.kv("rejected", result.rejected);
  w.kv("shed", result.shed);
  w.kv("deadline_missed", result.deadline_missed);
  w.kv("wall_seconds", result.wall_seconds);
  // Served throughput: completed jobs only — on a bounded service the
  // attempt count includes rejected/shed submits that did no work.
  w.kv("jobs_per_sec", result.wall_seconds > 0.0
                           ? static_cast<double>(result.completed) /
                                 result.wall_seconds
                           : 0.0);
  w.kv("rows_per_sec", result.wall_seconds > 0.0
                           ? static_cast<double>(result.rows) /
                                 result.wall_seconds
                           : 0.0);
  w.key("latency_ms").begin_object();
  w.kv("p50", s.p50_latency_ms);  // inf (empty window) degrades to null
  w.kv("p95", s.p95_latency_ms);
  w.kv("p99", s.p99_latency_ms);
  w.end_object();
  w.key("service").begin_object();
  w.kv("submitted", s.submitted);
  w.kv("completed", s.completed);
  w.kv("failed", s.failed);
  w.kv("rejected", s.rejected);
  w.kv("shed", s.shed);
  w.kv("cancelled", s.cancelled);
  w.kv("deadline_missed", s.deadline_missed);
  w.kv("blocked", s.blocked);
  w.kv("queue_depth", s.queue_depth);
  w.kv("queued_rows", s.queued_rows);
  w.kv("batches", s.batches);
  w.kv("mean_batch_jobs", s.mean_batch_jobs);
  w.kv("qps", s.qps);
  w.end_object();
  w.key("cache").begin_object();
  w.kv("registered", s.host.registered);
  w.kv("resident", s.host.resident);
  w.kv("pinned", s.host.pinned);
  w.kv("capacity", s.host.capacity);
  w.kv("hits", s.host.hits);
  w.kv("misses", s.host.misses);
  w.kv("loads", s.host.loads);
  w.kv("load_failures", s.host.load_failures);
  w.kv("evictions", s.host.evictions);
  w.kv("stale_reloads", s.host.stale_reloads);
  w.kv("invalidations", s.host.invalidations);
  w.kv("hit_rate", s.host.hit_rate());
  w.end_object();
  // A sharded backend appends its "shards" section (routing table +
  // per-shard counters); a plain service appends nothing.
  service.append_stats_json(w);
  w.key("pool").begin_object();
  w.kv("workers", s.pool.workers);
  w.kv("queued", s.pool.queued);
  w.kv("active", s.pool.active);
  w.kv("submitted", s.pool.submitted);
  w.kv("completed", s.pool.completed);
  w.end_object();
  w.kv("output_hash", util::hex64(result.output_hash));
  w.end_object();
  return w.str();
}

}  // namespace surro::serve
