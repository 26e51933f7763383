// serve_throughput — the serving-layer benchmark: replay one request script
// through serve::ShardPool at every point of a per-profile sweep over
// (shards, replicas, per-shard cache capacity, clients), and compare
// against the single-pipeline baseline (one blocking sample call at a
// time, the pre-serving consumption API).
//
//   ./serve_throughput --quick --json-out serve_throughput.json
//   ./serve_throughput --quick --remote --json-out serve_throughput.json
//
// Per sweep point it reports rows/sec, qps, p50/p95 latency, the cache hit
// rate, the routing tallies, the speedup over the 1-shard point with the
// same capacity and clients, and the replay output hash. The hash must be
// identical at every point — concurrency, cache pressure and placement
// never change bytes — and a mismatch or a failed request is fatal
// (exit 1), not a warning.
//
// --remote extends the sweep across the process boundary: fleets of 1/2/4
// `surro_cli serve --worker` processes (spawned from the surro_cli next to
// this binary; override with --cli PATH) replay the same script through
// remote-only pools. Those points carry "transport": "multi-process" and a
// "workers" count; their p50/p95 degrade to null (a worker's latency
// window stays in its process).

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "eval/experiment.hpp"
#include "serve/replay.hpp"
#include "serve/shard_pool.hpp"
#include "serve/worker_fleet.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace surro;

/// One in-process sweep point's topology and load.
struct Placement {
  std::size_t shards = 1;
  std::size_t replicas = 1;
  std::size_t capacity = 0;  ///< resident models per shard
  std::size_t clients = 0;
};

struct SweepPoint {
  Placement at;
  std::size_t workers = 0;  ///< worker processes (0 = in-process point)
  serve::ReplayResult result;
  std::uint64_t routed = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t rerouted_transport = 0;

  [[nodiscard]] double rows_per_sec() const {
    return static_cast<double>(result.rows) / result.wall_seconds;
  }
};

struct BenchScale {
  std::vector<std::string> models;
  std::size_t rows_per_job = 0;
  std::size_t jobs_per_model = 0;
  std::vector<Placement> points;  ///< the in-process sweep, in order
  std::size_t fleet_clients = 0;  ///< clients at every --remote point
};

/// Append every (shards, replicas, capacity, clients) combination, skipping
/// replicas > shards (the router would clamp them onto an existing point).
void add_grid(std::vector<Placement>& out,
              const std::vector<std::size_t>& shards,
              const std::vector<std::size_t>& replicas,
              const std::vector<std::size_t>& capacities,
              const std::vector<std::size_t>& clients) {
  for (const std::size_t s : shards) {
    for (const std::size_t r : replicas) {
      if (r > s) continue;
      for (const std::size_t cap : capacities) {
        for (const std::size_t c : clients) out.push_back({s, r, cap, c});
      }
    }
  }
}

/// One shard across the capacity × clients grid (capacity below the model
/// count measures thrashing), then 2 and 4 shards at full capacity.
BenchScale scale_for(bench::Profile profile) {
  BenchScale s;
  if (profile == bench::Profile::kQuick) {
    s.models = {"smote", "tvae"};
    s.rows_per_job = 2500;
    s.jobs_per_model = 4;
    add_grid(s.points, {1}, {1}, {1, 2}, {1, 4});
    add_grid(s.points, {2, 4}, {1, 2}, {2}, {4});
    s.fleet_clients = 4;
  } else if (profile == bench::Profile::kMedium) {
    s.models = {"smote", "tvae", "ctabgan", "tabddpm"};
    s.rows_per_job = 5000;
    s.jobs_per_model = 6;
    add_grid(s.points, {1}, {1}, {2, 4}, {1, 2, 4, 8});
    add_grid(s.points, {2, 4}, {1, 2}, {4}, {4, 8});
    s.fleet_clients = 8;
  } else {
    s.models = {"smote", "tvae", "ctabgan", "tabddpm"};
    s.rows_per_job = 20000;
    s.jobs_per_model = 8;
    add_grid(s.points, {1}, {1}, {1, 2, 4}, {1, 2, 4, 8, 16});
    add_grid(s.points, {2, 4}, {1, 2}, {4}, {4, 8, 16});
    s.fleet_clients = 16;
  }
  return s;
}

/// The request script every sweep point replays: per model, jobs_per_model
/// requests on distinct derived seeds. Identical across points, so the
/// output hash must be too.
serve::ReplayScript make_script(const BenchScale& s) {
  serve::ReplayScript script;
  for (std::size_t m = 0; m < s.models.size(); ++m) {
    serve::ReplayRequest request;
    request.job.model_key = s.models[m];
    request.job.rows = s.rows_per_job;
    request.job.seed = 1000 + 17 * m;
    request.repeat = s.jobs_per_model;
    request.seed_stride = 1;
    script.requests.push_back(request);
  }
  return script;
}

/// Register every archive on `pool`, run one untimed warm-up round (a
/// steady-state server has its working set resident; when capacity <
/// models the warm-up cannot mask thrashing, evictions continue in the
/// timed rounds) and keep the best wall time of three timed rounds
/// (replays are deterministic; rounds differ only in scheduling noise).
SweepPoint measure(serve::ShardPool& pool, const BenchScale& scale,
                   const std::filesystem::path& archive_dir,
                   const serve::ReplayScript& script, std::size_t clients) {
  for (const auto& key : scale.models) {
    pool.register_archive(key, (archive_dir / (key + ".bin")).string());
  }
  serve::ReplayOptions opts;
  opts.clients = clients;
  (void)serve::run_replay(pool, script, opts);
  SweepPoint point;
  point.result = serve::run_replay(pool, script, opts);
  for (int round = 0; round < 2; ++round) {
    const auto again = serve::run_replay(pool, script, opts);
    // jobs/rows/hash are identical across rounds; keep the faster wall
    // clock and the later (cumulative) stats snapshot.
    point.result.stats = again.stats;
    point.result.wall_seconds =
        std::min(point.result.wall_seconds, again.wall_seconds);
  }
  const serve::ShardStats ss = pool.shard_stats();
  point.routed = ss.routed;
  point.rerouted = ss.rerouted;
  point.rerouted_transport = ss.rerouted_transport;
  return point;
}

void print_point(const SweepPoint& p) {
  const auto& r = p.result;
  std::printf("%-7zu %-9zu %-9zu %-8zu %12.0f %9.1f %10.2f %10.2f %7.2f "
              "%6.0f %9llu\n",
              p.at.shards, p.at.replicas, p.at.capacity, p.at.clients,
              p.rows_per_sec(),
              static_cast<double>(r.jobs) / r.wall_seconds,
              r.stats.p50_latency_ms, r.stats.p95_latency_ms,
              r.stats.mean_batch_jobs, r.stats.host.hit_rate() * 100.0,
              static_cast<unsigned long long>(p.rerouted));
}

/// The surro_cli to exec fleet workers from: --cli PATH wins, otherwise
/// the binary sitting next to this bench (both live in the build dir).
std::string worker_cli_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--cli") return argv[i + 1];
  }
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  const std::filesystem::path self =
      n > 0 ? std::filesystem::path(
                  std::string(buf, static_cast<std::size_t>(n)))
            : std::filesystem::path(argv[0]);
  return (self.parent_path() / "surro_cli").string();
}

bool flag_present(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == name) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, bench::Profile::kQuick);
  auto cfg = bench::experiment_config(opts.profile);
  const auto scale = scale_for(opts.profile);

  std::printf("== serve_throughput (%s profile) ==\n",
              bench::profile_name(opts.profile));
  const auto data = eval::prepare_data(cfg);
  std::printf("training %zu models on %zu rows...\n", scale.models.size(),
              data.train.num_rows());

  const auto archive_dir =
      std::filesystem::temp_directory_path() /
      ("surro_serve_bench_" + std::to_string(cfg.seed));
  std::filesystem::create_directories(archive_dir);

  // Fit once per model, persist the archive the pools serve from, and
  // measure the two baselines on the *resident* model: the old blocking
  // consumption pattern, one sample call at a time — serial and pooled.
  double baseline_rows = 0.0;
  double baseline_serial_seconds = 0.0;
  double baseline_pooled_seconds = 0.0;
  for (const auto& key : scale.models) {
    auto model = models::make_generator(key, cfg.budget, cfg.seed);
    model->fit(data.train);
    models::save_model_file(*model, (archive_dir / (key + ".bin")).string());

    models::SampleRequest request;
    request.rows = scale.rows_per_job;
    request.seed = 1999;  // untimed warm-up pass (allocator, caches)
    tabular::Table warmup;
    model->sample_into(warmup, request);
    for (std::size_t j = 0; j < scale.jobs_per_model; ++j) {
      request.seed = 2000 + j;
      util::Stopwatch timer;
      request.threads = 1;
      tabular::Table serial;
      model->sample_into(serial, request);
      baseline_serial_seconds += timer.seconds();
      timer.reset();
      request.threads = 0;
      tabular::Table pooled;
      model->sample_into(pooled, request);
      baseline_pooled_seconds += timer.seconds();
      baseline_rows += static_cast<double>(serial.num_rows());
    }
  }
  const double baseline_serial = baseline_rows / baseline_serial_seconds;
  const double baseline_pooled = baseline_rows / baseline_pooled_seconds;
  std::printf("baseline (single pipeline, %zu jobs): serial %.0f rows/s, "
              "pooled %.0f rows/s\n",
              scale.models.size() * scale.jobs_per_model, baseline_serial,
              baseline_pooled);

  const auto script = make_script(scale);
  std::vector<SweepPoint> sweep;
  std::printf("%-7s %-9s %-9s %-8s %12s %9s %10s %10s %7s %6s %9s\n",
              "shards", "replicas", "capacity", "clients", "rows/s", "qps",
              "p50 ms", "p95 ms", "batch", "hit%", "rerouted");
  for (const Placement& at : scale.points) {
    serve::ShardPoolConfig pool_cfg;
    pool_cfg.shards = at.shards;
    pool_cfg.replication = at.replicas;
    pool_cfg.host.capacity = at.capacity;
    serve::ShardPool pool(pool_cfg);
    SweepPoint point = measure(pool, scale, archive_dir, script, at.clients);
    point.at = at;
    print_point(point);
    sweep.push_back(std::move(point));
  }

  // ---- --remote: the same script through fleets of worker *processes*.
  // Workers load the same archives (--models-dir) and the pool is
  // remote-only, so the output hash is held to the in-process points —
  // placement invariance across the process boundary, measured instead of
  // assumed.
  if (flag_present(argc, argv, "--remote")) {
    const std::string cli = worker_cli_path(argc, argv);
    const Placement at{1, 1, scale.models.size(), scale.fleet_clients};
    std::printf("-- multi-process (workers exec'd from %s) --\n",
                cli.c_str());
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
      serve::WorkerFleetConfig fleet_cfg;
      fleet_cfg.cli_path = cli;
      fleet_cfg.workers = workers;
      fleet_cfg.serve_args = {"--models-dir", archive_dir.string(),
                              "--capacity", std::to_string(at.capacity),
                              "--serve-seconds", "900"};
      serve::WorkerFleet fleet(fleet_cfg);
      fleet.start();
      {
        serve::ShardPoolConfig pool_cfg;
        pool_cfg.shards = 0;  // remote-only: every shard is a worker process
        for (std::size_t i = 0; i < fleet.size(); ++i) {
          serve::RemoteShardConfig rc;
          rc.port = fleet.port(i);
          // Enough harvesters that clients never serialize on pickup.
          rc.harvest_threads = std::max<std::size_t>(at.clients / workers, 2);
          pool_cfg.remotes.push_back(rc);
        }
        serve::ShardPool pool(pool_cfg);
        SweepPoint point =
            measure(pool, scale, archive_dir, script, at.clients);
        point.at = at;
        point.at.shards = workers;
        point.workers = workers;
        print_point(point);
        sweep.push_back(std::move(point));
      }  // close the pool's connections before the workers drain
      const int worst = fleet.shutdown();
      if (worst != 0) {
        std::printf("FAIL: a worker exited with status %d during graceful "
                    "shutdown (see %s)\n",
                    worst, fleet.scratch_dir().c_str());
        return 1;
      }
    }
  }
  std::filesystem::remove_all(archive_dir);

  // ---- Same script => same bytes, whatever the concurrency, cache
  // pressure or placement.
  const std::uint64_t hash = sweep.front().result.output_hash;
  bool deterministic = true;
  for (const auto& p : sweep) {
    if (p.result.output_hash != hash) {
      std::printf("FAIL: shards=%zu replicas=%zu capacity=%zu clients=%zu "
                  "workers=%zu output hash %s != %s\n",
                  p.at.shards, p.at.replicas, p.at.capacity, p.at.clients,
                  p.workers, util::hex64(p.result.output_hash).c_str(),
                  util::hex64(hash).c_str());
      deterministic = false;
    }
    if (p.result.failures != 0) {
      std::printf("FAIL: shards=%zu replicas=%zu capacity=%zu clients=%zu "
                  "workers=%zu had %llu failed requests\n",
                  p.at.shards, p.at.replicas, p.at.capacity, p.at.clients,
                  p.workers,
                  static_cast<unsigned long long>(p.result.failures));
      deterministic = false;
    }
  }
  std::printf("determinism: %s (output hash %s at every sweep point)\n",
              deterministic ? "ok" : "VIOLATED", util::hex64(hash).c_str());

  const SweepPoint* best = &sweep.front();
  for (const auto& p : sweep) {
    if (p.rows_per_sec() > best->rows_per_sec()) best = &p;
  }
  std::printf("best: %.0f rows/s at shards=%zu capacity=%zu clients=%zu — "
              "%.2fx the pooled baseline, %.2fx serial\n",
              best->rows_per_sec(), best->at.shards, best->at.capacity,
              best->at.clients, best->rows_per_sec() / baseline_pooled,
              best->rows_per_sec() / baseline_serial);

  // The speedup denominator: the in-process 1-shard point with the same
  // capacity and clients (0 when the sweep has none).
  const auto one_shard_rows_per_sec = [&sweep](const Placement& at) {
    for (const auto& p : sweep) {
      if (p.workers == 0 && p.at.shards == 1 &&
          p.at.capacity == at.capacity && p.at.clients == at.clients) {
        return p.rows_per_sec();
      }
    }
    return 0.0;
  };

  if (!opts.json_out.empty()) {
    util::JsonWriter w;
    w.begin_object();
    w.kv("schema_version", 1);
    w.kv("kind", "serve_throughput");
    w.kv("profile", bench::profile_name(opts.profile));
    w.key("config").begin_object();
    w.key("models").begin_array();
    for (const auto& key : scale.models) w.value(key);
    w.end_array();
    w.kv("rows_per_job", scale.rows_per_job);
    w.kv("jobs_per_model", scale.jobs_per_model);
    w.kv("train_rows", data.train.num_rows());
    w.kv("epochs", cfg.budget.epochs);
    w.end_object();
    w.key("baseline").begin_object();
    w.kv("serial_rows_per_sec", baseline_serial);
    w.kv("pooled_rows_per_sec", baseline_pooled);
    w.end_object();
    w.kv("output_hash", util::hex64(hash));
    w.key("sweep").begin_array();
    for (const auto& p : sweep) {
      const auto& r = p.result;
      const double one_shard = one_shard_rows_per_sec(p.at);
      w.begin_object();
      w.kv("shards", p.at.shards);
      w.kv("replicas", p.at.replicas);
      w.kv("capacity", p.at.capacity);
      w.kv("clients", p.at.clients);
      w.kv("workers", p.workers);
      w.kv("transport", p.workers != 0 ? "multi-process" : "in-process");
      w.kv("jobs", r.jobs);
      w.kv("rows", r.rows);
      w.kv("failures", r.failures);
      w.kv("wall_seconds", r.wall_seconds);
      w.kv("rows_per_sec", p.rows_per_sec());
      w.kv("qps", static_cast<double>(r.jobs) / r.wall_seconds);
      w.kv("p50_latency_ms", r.stats.p50_latency_ms);
      w.kv("p95_latency_ms", r.stats.p95_latency_ms);
      w.kv("mean_batch_jobs", r.stats.mean_batch_jobs);
      w.kv("cache_hit_rate", r.stats.host.hit_rate());
      w.kv("evictions", r.stats.host.evictions);
      w.kv("routed", p.routed);
      w.kv("rerouted", p.rerouted);
      w.kv("rerouted_transport", p.rerouted_transport);
      w.kv("speedup_vs_one_shard",
           one_shard > 0.0 ? p.rows_per_sec() / one_shard : 0.0);
      w.kv("output_hash", util::hex64(r.output_hash));
      w.end_object();
    }
    w.end_array();
    w.key("best").begin_object();
    w.kv("shards", best->at.shards);
    w.kv("capacity", best->at.capacity);
    w.kv("clients", best->at.clients);
    w.kv("rows_per_sec", best->rows_per_sec());
    w.kv("speedup_vs_pooled_baseline", best->rows_per_sec() / baseline_pooled);
    w.kv("speedup_vs_serial_baseline", best->rows_per_sec() / baseline_serial);
    w.end_object();
    w.kv("deterministic", deterministic);
    w.end_object();
    bench::write_text_file(opts.json_out, w.str() + "\n");
  }
  return deterministic ? 0 : 1;
}
