// serve_http — transport-overhead benchmark for the HTTP front end: the
// same closed-loop sampling workload driven twice per client count, once
// as in-process SampleService submits and once over a loopback socket
// through net::HttpEndpoint + one serve::RemoteShard per client (POST
// /v1/sample, long-poll, paginate, reassemble), at 1/4/8 concurrent
// clients. Both transports run the same client loop against a
// SampleBackend; only the backend differs.
//
//   ./serve_http --quick
//   ./serve_http --medium --out artifacts/
//
// Per point it reports jobs/sec, rows/sec, and p50/p95 job latency; the
// summed digest of every job's reassembled bytes must be *identical*
// between the two transports at every client count — the determinism
// contract crossing the wire is asserted here, not just documented. Always
// emits the machine-readable BENCH_serve_http.json artifact (kind
// "serve_http_bench") into --out (or the --json-out path when given).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "eval/experiment.hpp"
#include "net/rest.hpp"
#include "serve/latency_window.hpp"
#include "serve/model_host.hpp"
#include "serve/remote_shard.hpp"
#include "serve/replay.hpp"
#include "serve/sample_service.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace surro;

struct HttpScale {
  std::string model;
  std::size_t rows_per_job = 0;
  std::size_t jobs_per_client = 0;
  std::vector<std::size_t> client_counts{1, 4, 8};
  std::size_t chunk_rows = 512;
  std::size_t page_rows = 0;  ///< 0 = server default page size
};

HttpScale scale_for(bench::Profile profile) {
  HttpScale s;
  // One fast model on purpose: sampling cost is the floor under both
  // transports, so the cheaper it is, the more the comparison isolates
  // what the bench is after — the wire overhead (framing, JSON, paging).
  s.model = "smote";
  if (profile == bench::Profile::kQuick) {
    s.rows_per_job = 1000;
    s.jobs_per_client = 6;
  } else if (profile == bench::Profile::kMedium) {
    s.rows_per_job = 5000;
    s.jobs_per_client = 12;
  } else {
    s.rows_per_job = 20000;
    s.jobs_per_client = 16;
  }
  return s;
}

struct Point {
  std::string transport;  // "in-process" | "socket"
  std::size_t clients = 0;
  std::uint64_t jobs = 0;
  double wall_seconds = 0.0;
  double jobs_per_sec = 0.0;
  double rows_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  /// Sum over per-job table hashes (the replay/soak fold: order-free, and
  /// two identical jobs do not cancel out).
  std::uint64_t digest = 0;
};

/// The job seed for (client, index) — identical across transports so the
/// two digests fold over the same identity set.
std::uint64_t job_seed(std::size_t client, std::size_t index) {
  return 5000 + 1000 * client + index;
}

/// Closed-loop sweep point: client c runs jobs_per_client submissions back
/// to back against backends[c]. The backend is the only transport-specific
/// part.
Point run_point(const std::string& transport,
                const std::vector<serve::SampleBackend*>& backends,
                const HttpScale& scale) {
  const std::size_t clients = backends.size();
  Point point;
  point.transport = transport;
  point.clients = clients;
  std::mutex mutex;
  std::vector<double> latencies;
  std::uint64_t digest = 0;
  util::Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t j = 0; j < scale.jobs_per_client; ++j) {
        serve::SampleJob job;
        job.model_key = scale.model;
        job.rows = scale.rows_per_job;
        job.seed = job_seed(c, j);
        job.chunk_rows = scale.chunk_rows;
        util::Stopwatch timer;
        const std::uint64_t h = serve::hash_table(
            backends[c]->submit_job(std::move(job)).future.get().table);
        const double ms = timer.seconds() * 1e3;
        const std::lock_guard<std::mutex> lock(mutex);
        latencies.push_back(ms);
        digest += h;
      }
    });
  }
  for (auto& t : threads) t.join();
  point.wall_seconds = wall.seconds();
  point.jobs = latencies.size();
  point.jobs_per_sec =
      static_cast<double>(point.jobs) / point.wall_seconds;
  point.rows_per_sec =
      point.jobs_per_sec * static_cast<double>(scale.rows_per_job);
  std::sort(latencies.begin(), latencies.end());
  point.p50_ms = serve::LatencyWindow::percentile(latencies, 0.50);
  point.p95_ms = serve::LatencyWindow::percentile(latencies, 0.95);
  point.digest = digest;
  return point;
}

std::string points_to_json(const bench::HarnessOptions& opts,
                           const HttpScale& scale,
                           const std::vector<Point>& points,
                           bool digests_match, double wall_seconds) {
  util::JsonWriter w;
  w.begin_object();
  w.kv("kind", "serve_http_bench");
  w.kv("schema_version", 1);
  w.kv("profile", bench::profile_name(opts.profile));
  w.key("config").begin_object();
  w.kv("model", scale.model);
  w.kv("rows_per_job", scale.rows_per_job);
  w.kv("jobs_per_client", scale.jobs_per_client);
  w.kv("chunk_rows", scale.chunk_rows);
  w.end_object();
  w.key("points").begin_array();
  for (const auto& p : points) {
    w.begin_object();
    w.kv("transport", p.transport);
    w.kv("clients", p.clients);
    w.kv("jobs", p.jobs);
    w.kv("wall_seconds", p.wall_seconds);
    w.kv("jobs_per_sec", p.jobs_per_sec);
    w.kv("rows_per_sec", p.rows_per_sec);
    w.kv("p50_ms", p.p50_ms);
    w.kv("p95_ms", p.p95_ms);
    w.kv("digest", util::hex64(p.digest));
    w.end_object();
  }
  w.end_array();
  w.kv("digests_match", digests_match);
  w.kv("wall_seconds", wall_seconds);
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, bench::Profile::kQuick);
  auto cfg = bench::experiment_config(opts.profile);
  const auto scale = scale_for(opts.profile);
  util::Stopwatch total;

  std::printf("== serve_http (%s profile) ==\n",
              bench::profile_name(opts.profile));
  const auto data = eval::prepare_data(cfg);
  std::printf("training %s on %zu rows...\n", scale.model.c_str(),
              data.train.num_rows());

  const auto archive_dir =
      std::filesystem::temp_directory_path() /
      ("surro_http_bench_" + std::to_string(cfg.seed));
  std::filesystem::create_directories(archive_dir);
  const std::string archive =
      (archive_dir / (scale.model + ".bin")).string();
  {
    auto model = models::make_generator(scale.model, cfg.budget, cfg.seed);
    model->fit(data.train);
    models::save_model_file(*model, archive);
  }

  serve::ModelHost host(serve::HostConfig{});
  host.register_archive(scale.model, archive);
  serve::SampleService service(host);
  {
    // Warm pass: load the archive and touch the allocator once so neither
    // transport's first timed job pays the cold-start tax.
    serve::SampleJob job;
    job.model_key = scale.model;
    job.rows = scale.rows_per_job;
    job.seed = 1;
    job.chunk_rows = scale.chunk_rows;
    (void)service.submit_job(std::move(job)).future.get();
  }

  // The server pins one worker per keep-alive connection, and every socket
  // client (a RemoteShard) holds two: control + harvester.
  net::RestConfig rest_cfg;
  net::ServerConfig server_cfg;
  server_cfg.worker_threads =
      2 * *std::max_element(scale.client_counts.begin(),
                            scale.client_counts.end()) +
      2;
  net::HttpEndpoint endpoint(service, rest_cfg, server_cfg);
  endpoint.server.start();
  const std::uint16_t port = endpoint.server.port();
  std::printf("endpoint: 127.0.0.1:%u (%zu workers)\n\n", port,
              server_cfg.worker_threads);

  std::printf("%-11s %8s %6s %10s %12s %10s %10s  %s\n", "transport",
              "clients", "jobs", "jobs/s", "rows/s", "p50 ms", "p95 ms",
              "digest");
  std::vector<Point> points;
  bool digests_match = true;
  for (const std::size_t clients : scale.client_counts) {
    const auto in_process = run_point(
        "in-process",
        std::vector<serve::SampleBackend*>(clients, &service), scale);

    // One RemoteShard per socket client thread, like one remote user.
    serve::RemoteShardConfig remote_cfg;
    remote_cfg.port = port;
    remote_cfg.page_rows = scale.page_rows;
    remote_cfg.harvest_threads = 1;
    std::vector<std::unique_ptr<serve::RemoteShard>> remotes;
    std::vector<serve::SampleBackend*> socket_backends;
    for (std::size_t c = 0; c < clients; ++c) {
      remotes.push_back(std::make_unique<serve::RemoteShard>(remote_cfg));
      socket_backends.push_back(remotes.back().get());
    }
    const auto socket = run_point("socket", socket_backends, scale);

    for (const auto& p : {in_process, socket}) {
      std::printf("%-11s %8zu %6llu %10.1f %12.0f %10.2f %10.2f  %s\n",
                  p.transport.c_str(), p.clients,
                  static_cast<unsigned long long>(p.jobs), p.jobs_per_sec,
                  p.rows_per_sec, p.p50_ms, p.p95_ms,
                  util::hex64(p.digest).c_str());
      points.push_back(p);
    }
    if (in_process.digest != socket.digest) {
      std::printf("FAIL: digests diverged at %zu clients (%s vs %s)\n",
                  clients, util::hex64(in_process.digest).c_str(),
                  util::hex64(socket.digest).c_str());
      digests_match = false;
    }
    const double overhead =
        socket.p50_ms / std::max(in_process.p50_ms, 1e-9);
    std::printf("  socket p50 overhead at %zu clients: %.2fx\n\n", clients,
                overhead);
  }

  endpoint.server.stop();
  std::filesystem::remove_all(archive_dir);

  if (digests_match) {
    std::printf("digest check: socket == in-process at every client "
                "count\n");
  }
  const std::string json_path =
      opts.json_out.empty()
          ? (std::filesystem::path(opts.out_dir) / "BENCH_serve_http.json")
                .string()
          : opts.json_out;
  bench::write_text_file(
      json_path, points_to_json(opts, scale, points, digests_match,
                                total.seconds()) +
                     "\n");
  return digests_match ? 0 : 1;
}
