#include "workloads.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "eval/experiment.hpp"
#include "linalg/simd.hpp"
#include "models/generator.hpp"
#include "net/client.hpp"
#include "net/rest.hpp"
#include "probes.hpp"
#include "serve/model_host.hpp"
#include "serve/replay.hpp"
#include "serve/sample_service.hpp"
#include "serve/shard_pool.hpp"
#include "serve/worker_fleet.hpp"
#include "trace.hpp"
#include "util/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

using namespace surro;
namespace fs = std::filesystem;

// ------------------------------------------------------------- workloads --

enum class Transport { kInProcess, kSocket, kFleet };

struct WorkloadSpec {
  std::string name;
  Transport transport = Transport::kInProcess;
  std::vector<std::string> models;  ///< job i samples models[i % size]
  std::size_t rows = 0;             ///< rows per job
  std::size_t chunk_rows = 0;       ///< chunk grain of every job
  std::size_t clients = 0;          ///< closed-loop clients; 0 = open loop
  double rate_per_s = 0.0;          ///< open-loop Poisson arrival rate
  double latency_limit_ms = 0.0;    ///< the slo_frac limit (0 = none)
};

// The latency limits sit about three times above the p95 this code
// measured on a 4-core AVX2 machine; they are never calibrated per run.
//
// ddpm-inproc runs one client and 16-row chunks: the service spreads a
// job's 16 chunks over the pool workers, and each chunk's GEMMs stay on
// its worker (linalg splits rows only above 16). Finer fork-join, with
// many clients each fanning every GEMM over all cores, waited on the
// slowest core at every step and moved 20-40 % with hypervisor steal.
const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = {
      {"ddpm-inproc", Transport::kInProcess, {"tabddpm"}, 256, 16, 1, 0.0,
       250.0},
      {"smote-socket", Transport::kSocket, {"smote"}, 20000, 4096, 4, 0.0,
       500.0},
  };
  return all;
}

/// The fleet probe of traced runs: open-loop Poisson arrivals at about
/// half of the fleet's capacity measured on that machine (~115 jobs/s),
/// fixed rather than calibrated per run, on 1 local shard + 2 worker
/// processes with capacity-1 hosts. Its latency moves with the host's load
/// far more than the closed loops do, so it is measured per layer rather
/// than gated end to end.
const WorkloadSpec& fleet_spec() {
  static const WorkloadSpec spec{"fleet-probe", Transport::kFleet,
                                 {"smote", "tvae", "ctabgan"}, 2000, 1024,
                                 0, 50.0, 0.0};
  return spec;
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// The PanDA corpus every model is fitted on: the first kTrainRows training
/// rows of the quick collection window generated with kCorpusSeed. The
/// corpus is fixed so set-up cost, model shapes and memory depend on the
/// code, not on the run seed; the run seed drives the traffic (every job's
/// sample seed and the arrival schedule).
constexpr std::uint64_t kCorpusSeed = 42;
constexpr std::size_t kTrainRows = 2000;
/// Verification: delivered jobs whose index is a multiple of the stride,
/// at most kVerifyJobs of them per phase, are re-sampled directly.
constexpr std::uint64_t kVerifyStride = 25;
constexpr std::size_t kVerifyJobs = 8;
/// Job indices of the traced phase, the warm-up, the net probe and the
/// fleet probe start here, so their seeds never collide with the digest
/// jobs.
constexpr std::uint64_t kTracedBase = 1ULL << 20;
constexpr std::uint64_t kWarmupIndex = 1ULL << 30;
constexpr std::uint64_t kProbeBase = 1ULL << 31;
constexpr std::uint64_t kFleetBase = 1ULL << 32;
/// Jobs the net probe sends on workloads whose timed phase is in-process.
constexpr std::size_t kNetProbeJobs = 10;
/// Open-loop result waiters (each blocks on one job's future).
constexpr std::size_t kWaiters = 16;
/// The fleet probe's schedule spans this long (at least kMinJobs jobs).
constexpr double kFleetProbeSeconds = 4.0;
/// Rows a model-probe sample call draws at most.
constexpr std::size_t kModelProbeRows = 4096;

const WorkloadSpec& find_spec(const std::string& name) {
  for (const auto& s : specs()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ----------------------------------------------------------- measurement --

/// Peak resident set of a process in MB (VmHWM), 0 when unreadable.
double peak_rss_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Cumulative CPU ticks of this machine from /proc/stat: those stolen by
/// the hypervisor, and all of them (user through steal).
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTicks t;
  double v = 0.0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Share of CPU time stolen by the hypervisor between two readings: runs
/// with a high share measured a loaded host, not the code.
double steal_frac(const CpuTicks& from, const CpuTicks& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? (to.steal - from.steal) / total : 0.0;
}

std::string hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// The outcome kind of a failed job, for the report's failure tally.
std::string classify(std::exception_ptr error) {
  try {
    std::rethrow_exception(error);
  } catch (const serve::ServiceError& e) {
    switch (e.code()) {
      case serve::ServiceError::Code::kOverloaded: return "rejected";
      case serve::ServiceError::Code::kShed: return "shed";
      case serve::ServiceError::Code::kDeadline: return "deadline";
      case serve::ServiceError::Code::kCancelled: return "cancelled";
    }
  } catch (const net::TransportError&) {
    return "transport";
  } catch (const net::ApiError& e) {
    return "api_" + e.code();
  } catch (...) {
  }
  return "execution";
}

// ----------------------------------------------------------------- stack --

/// Everything one set-up builds. Members are declared in teardown order
/// reversed, and close() tears down explicitly so a worker's exit status
/// is observed; the destructor covers every other exit path.
struct Stack {
  std::string dir;
  tabular::Table train;
  std::map<std::string, std::string> archives;
  std::unique_ptr<serve::ModelHost> host;
  std::unique_ptr<serve::SampleService> service;
  std::unique_ptr<serve::WorkerFleet> fleet;
  std::unique_ptr<serve::ShardPool> pool;
  std::unique_ptr<net::HttpEndpoint> endpoint;
  std::vector<std::unique_ptr<net::ApiClient>> clients;
  serve::SampleBackend* backend = nullptr;
  double generate_s = 0.0;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    try {
      (void)close();
    } catch (...) {
      // The fleet destructor still SIGKILLs and reaps every worker.
    }
  }

  /// Tear everything down; returns the worst worker exit status (0 when
  /// every worker exited cleanly, or there was no fleet).
  int close() {
    int worst = 0;
    clients.clear();
    if (endpoint) endpoint->server.stop();
    endpoint.reset();
    pool.reset();
    if (fleet) worst = fleet->shutdown();
    fleet.reset();
    service.reset();
    host.reset();
    backend = nullptr;
    if (!dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
      dir.clear();
    }
    return worst;
  }

  /// Worker peak RSS in MB (largest worker), 0 without a fleet.
  [[nodiscard]] double worker_peak_rss_mb() const {
    double peak = 0.0;
    for (std::size_t i = 0; fleet && i < fleet->size(); ++i) {
      if (fleet->alive(i)) {
        peak = std::max(peak, peak_rss_mb(std::to_string(fleet->pid(i))));
      }
    }
    return peak;
  }
};

// ------------------------------------------------------------------ jobs --

struct JobRecord {
  std::uint64_t index = 0;
  std::size_t model = 0;  ///< index into WorkloadSpec::models
  std::uint64_t seed = 0;
  double ready_s = 0.0;   ///< sender free: due time, or previous return
  double due_s = 0.0;     ///< latency runs from here (now_s clock)
  double start_s = 0.0;   ///< submit began
  double end_s = 0.0;     ///< last row at the client
  double submit_ms = 0.0;
  double wait_ms = 0.0;
  double queue_s = 0.0;   ///< backend-reported
  double sample_s = 0.0;
  double total_s = 0.0;
  std::size_t pages = 0;
  std::size_t rows_out = 0;
  bool remote = false;    ///< served by a worker process
  std::uint64_t hash = 0;
  std::string failure;    ///< empty = delivered

  [[nodiscard]] bool delivered() const noexcept { return failure.empty(); }
  [[nodiscard]] double latency_ms() const noexcept {
    return (end_s - due_s) * 1e3;
  }
  [[nodiscard]] double lag_ms() const noexcept {
    return (start_s - ready_s) * 1e3;
  }
};

JobRecord make_record(const WorkloadSpec& spec, std::uint64_t run_seed,
                      std::uint64_t index) {
  JobRecord r;
  r.index = index;
  r.model = static_cast<std::size_t>(index % spec.models.size());
  r.seed = job_seed(run_seed, index);
  return r;
}

serve::SampleJob make_job(const WorkloadSpec& spec, const JobRecord& r) {
  serve::SampleJob job;
  job.model_key = spec.models[r.model];
  job.rows = spec.rows;
  job.seed = r.seed;
  job.chunk_rows = spec.chunk_rows;
  return job;
}

void take_result(JobRecord& r, const serve::SampleResult& res, Tracer& tracer,
                 std::uint64_t root) {
  r.queue_s = res.queue_seconds;
  r.sample_s = res.sample_seconds;
  r.total_s = res.total_seconds;
  r.rows_out = res.table.num_rows();
  const Span span(tracer, "serve", "hash_table", root, r.index + 1);
  r.hash = serve::hash_table(res.table);
}

/// One job through SampleBackend (in-process service or shard pool),
/// submit to future, on the calling thread.
void run_backend_job(Stack& st, const WorkloadSpec& spec, JobRecord& r,
                     Tracer& tracer) {
  const std::uint64_t root = tracer.new_id();
  r.start_s = now_s();
  try {
    serve::Submitted sub;
    {
      const Span span(tracer, "serve", "submit_job", root, r.index + 1);
      sub = st.backend->submit_job(make_job(spec, r));
    }
    r.submit_ms = (now_s() - r.start_s) * 1e3;
    serve::SampleResult res;
    {
      const Span span(tracer, "serve", "wait", root, r.index + 1);
      res = sub.future.get();
    }
    r.end_s = now_s();
    r.wait_ms = (r.end_s - r.start_s) * 1e3 - r.submit_ms;
    take_result(r, res, tracer, root);
  } catch (...) {
    r.end_s = now_s();
    r.failure = classify(std::current_exception());
  }
  tracer.record(root, 0, r.index + 1, "bench", "job", r.due_s, now_s());
}

/// One job over the socket: POST, then long-poll and page the rows back.
void run_socket_job(net::ApiClient& api, const WorkloadSpec& spec,
                    JobRecord& r, Tracer& tracer) {
  const std::uint64_t root = tracer.new_id();
  r.start_s = now_s();
  try {
    std::uint64_t id = 0;
    {
      const Span span(tracer, "net", "submit", root, r.index + 1);
      id = api.submit(spec.models[r.model], spec.rows, r.seed,
                      spec.chunk_rows);
    }
    const double submitted = now_s();
    r.submit_ms = (submitted - r.start_s) * 1e3;
    net::RemoteResult res;
    {
      const Span span(tracer, "net", "wait_result", root, r.index + 1);
      res = api.wait_result(id);
    }
    r.end_s = now_s();
    r.wait_ms = (r.end_s - submitted) * 1e3;
    r.queue_s = res.queue_seconds;
    r.sample_s = res.sample_seconds;
    r.total_s = res.total_seconds;
    r.pages = res.pages;
    r.rows_out = res.table.num_rows();
    const Span span(tracer, "serve", "hash_table", root, r.index + 1);
    r.hash = serve::hash_table(res.table);
  } catch (...) {
    r.end_s = now_s();
    r.failure = classify(std::current_exception());
  }
  tracer.record(root, 0, r.index + 1, "bench", "job", r.due_s, now_s());
}

struct Phase {
  std::vector<JobRecord> jobs;  ///< sorted by index
  double start_s = 0.0;
  double end_s = 0.0;  ///< last job's completion
};

/// Closed loop: each client sends its next job when the previous one
/// returned. Jobs are claimed in index order until `seconds` passed and at
/// least kMinJobs were claimed, so the delivered set is always a prefix.
Phase run_closed(Stack& st, const WorkloadSpec& spec, std::uint64_t run_seed,
                 std::uint64_t base, double seconds, Tracer& tracer) {
  Phase phase;
  std::mutex claim_mutex;
  std::uint64_t next = 0;
  bool stop = false;
  std::vector<std::vector<JobRecord>> per_client(spec.clients);
  phase.start_s = now_s();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      double ready = phase.start_s;
      for (;;) {
        std::uint64_t i = 0;
        {
          const std::lock_guard<std::mutex> lock(claim_mutex);
          if (!stop && next >= kMinJobs &&
              now_s() - phase.start_s >= seconds) {
            stop = true;
          }
          if (stop) break;
          i = next++;
        }
        JobRecord r = make_record(spec, run_seed, base + i);
        // Closed loop: latency runs from submit; lag is the client's gap
        // between the previous return and this submit.
        r.ready_s = ready;
        r.due_s = now_s();
        if (spec.transport == Transport::kSocket) {
          run_socket_job(*st.clients[c], spec, r, tracer);
        } else {
          run_backend_job(st, spec, r, tracer);
        }
        ready = r.end_s;
        per_client[c].push_back(std::move(r));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& v : per_client) {
    for (auto& r : v) phase.jobs.push_back(std::move(r));
  }
  std::sort(phase.jobs.begin(), phase.jobs.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.index < b.index;
            });
  phase.end_s = phase.start_s;
  for (const auto& r : phase.jobs) phase.end_s = std::max(phase.end_s, r.end_s);
  return phase;
}

/// Open loop: one generator thread submits on a Poisson schedule drawn
/// from the seed; waiter threads block on the futures, so each job's
/// completion is observed when it happens. Latency runs from the due time.
Phase run_open(Stack& st, const WorkloadSpec& spec, std::uint64_t run_seed,
               std::uint64_t base, double seconds, Tracer& tracer) {
  const auto schedule =
      poisson_schedule(job_seed(run_seed, base), spec.rate_per_s, seconds,
                       kMinJobs);
  struct Pending {
    JobRecord record;
    std::uint64_t root = 0;
    std::future<serve::SampleResult> future;
  };
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Pending> queue;
  bool generator_done = false;
  std::vector<JobRecord> done;

  const auto waiter = [&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock, [&] { return !queue.empty() || generator_done; });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      JobRecord& r = p.record;
      try {
        serve::SampleResult res;
        {
          const Span span(tracer, "serve", "wait", p.root, r.index + 1);
          res = p.future.get();
        }
        r.end_s = now_s();
        take_result(r, res, tracer, p.root);
      } catch (...) {
        r.end_s = now_s();
        r.failure = classify(std::current_exception());
      }
      r.wait_ms = (r.end_s - r.start_s) * 1e3 - r.submit_ms;
      tracer.record(p.root, 0, r.index + 1, "bench", "job", r.due_s, now_s());
      const std::lock_guard<std::mutex> lock(mutex);
      done.push_back(std::move(r));
    }
  };
  std::vector<std::thread> waiters;
  for (std::size_t w = 0; w < kWaiters; ++w) waiters.emplace_back(waiter);
  // Let the waiters drain the queue and join them, on every exit path.
  const auto finish = [&] {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      generator_done = true;
    }
    ready.notify_all();
    for (auto& t : waiters) t.join();
  };

  Phase phase;
  phase.start_s = now_s();
  try {
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      Pending p;
      p.record = make_record(spec, run_seed, base + k);
      JobRecord& r = p.record;
      r.due_s = phase.start_s + schedule[k];
      r.ready_s = r.due_s;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(0.0, r.due_s - now_s())));
      p.root = tracer.new_id();
      r.start_s = now_s();
      try {
        const Span span(tracer, "serve", "submit_job", p.root, r.index + 1);
        serve::Submitted sub = st.backend->submit_job(make_job(spec, r));
        if (st.pool) {
          const auto shard = st.pool->decode_job_id(sub.job_id).first;
          r.remote =
              shard < st.pool->shards() && !st.pool->shard_is_local(shard);
        }
        p.future = std::move(sub.future);
      } catch (...) {
        r.failure = classify(std::current_exception());
      }
      r.submit_ms = (now_s() - r.start_s) * 1e3;
      if (!r.delivered()) {
        r.end_s = now_s();
        tracer.record(p.root, 0, r.index + 1, "bench", "job", r.due_s, r.end_s);
        const std::lock_guard<std::mutex> lock(mutex);
        done.push_back(std::move(r));
        continue;
      }
      {
        const std::lock_guard<std::mutex> lock(mutex);
        queue.push_back(std::move(p));
      }
      ready.notify_one();
    }
  } catch (...) {
    finish();
    throw;
  }
  finish();

  phase.jobs = std::move(done);
  std::sort(phase.jobs.begin(), phase.jobs.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.index < b.index;
            });
  phase.end_s = phase.start_s;
  for (const auto& r : phase.jobs) phase.end_s = std::max(phase.end_s, r.end_s);
  return phase;
}

// ----------------------------------------------------------------- setup --

/// Build the workload's topology from the seed, up to one finished
/// warm-up job. `attempt` names the set-up's own archive directory.
std::unique_ptr<Stack> build_stack(const WorkloadSpec& spec,
                                   const RunOptions& opts, int attempt,
                                   Tracer& tracer) {
  auto st = std::make_unique<Stack>();
  st->dir = opts.work_dir + "/setup" + std::to_string(attempt);
  fs::create_directories(st->dir);

  {
    const Span span(tracer, "panda", "prepare_data");
    const double s = now_s();
    eval::ExperimentConfig ec = eval::quick_experiment_config();
    ec.seed = kCorpusSeed;
    ec.data.seed = kCorpusSeed;
    st->train = eval::prepare_data(ec).train.head(kTrainRows);
    st->generate_s = now_s() - s;
  }
  for (const auto& key : spec.models) {
    auto model = models::make_generator(key, fit_budget(), kCorpusSeed);
    {
      const Span span(tracer, "models", "fit");
      model->fit(st->train);
    }
    const std::string path = st->dir + "/" + key + ".bin";
    {
      const Span span(tracer, "models", "save_model_file");
      models::save_model_file(*model, path);
    }
    st->archives[key] = path;
  }

  if (spec.transport == Transport::kFleet) {
    serve::WorkerFleetConfig fc;
    fc.cli_path = opts.cli_path;
    fc.workers = 2;
    fc.scratch_dir = st->dir + "/fleet";
    fs::create_directories(fc.scratch_dir);
    std::string models_arg;
    for (const auto& [key, path] : st->archives) {
      models_arg += (models_arg.empty() ? "" : ";") + key + "=" + path;
    }
    const std::string chunk = std::to_string(spec.chunk_rows);
    // Workers exit on their own after --serve-seconds should this process
    // die before it can shut them down.
    fc.serve_args = {"--models", models_arg, "--capacity", "1", "--threads",
                     "1", "--chunk-rows", chunk, "--serve-seconds", "240"};
    {
      const Span span(tracer, "serve", "fleet_start");
      st->fleet = std::make_unique<serve::WorkerFleet>(fc);
      st->fleet->start();
    }
    {
      // Published for the runner, which reaps strays if this process dies.
      std::ofstream pids(opts.work_dir + "/worker.pids", std::ios::app);
      for (std::size_t i = 0; i < st->fleet->size(); ++i) {
        pids << st->fleet->pid(i) << '\n';
      }
    }
    serve::ShardPoolConfig pc;
    pc.shards = 1;
    pc.replication = 2;
    pc.host.capacity = 1;
    pc.service.sample_threads = 1;
    pc.service.chunk_rows = spec.chunk_rows;
    for (std::size_t i = 0; i < st->fleet->size(); ++i) {
      serve::RemoteShardConfig rc;
      rc.port = st->fleet->port(i);
      pc.remotes.push_back(rc);
    }
    st->pool = std::make_unique<serve::ShardPool>(pc);
    for (const auto& [key, path] : st->archives) {
      st->pool->register_archive(key, path);
    }
    st->backend = st->pool.get();
  } else {
    serve::HostConfig hc;
    hc.capacity = 4;
    st->host = std::make_unique<serve::ModelHost>(hc);
    for (const auto& [key, path] : st->archives) {
      st->host->register_archive(key, path);
    }
    serve::ServiceConfig sc;
    sc.chunk_rows = spec.chunk_rows;
    st->service = std::make_unique<serve::SampleService>(*st->host, sc);
    st->backend = st->service.get();
  }

  if (spec.transport == Transport::kSocket) {
    net::ServerConfig server;
    server.worker_threads = spec.clients + 2;
    {
      const Span span(tracer, "net", "server_start");
      st->endpoint = std::make_unique<net::HttpEndpoint>(
          *st->backend, net::RestConfig{}, server);
      st->endpoint->server.start();
    }
    for (std::size_t c = 0; c < spec.clients; ++c) {
      st->clients.push_back(std::make_unique<net::ApiClient>(
          "127.0.0.1", st->endpoint->server.port()));
      if (!st->clients.back()->healthy()) {
        throw std::runtime_error("set-up: endpoint not healthy");
      }
    }
  }

  // One untimed warm-up job through the same path the timed jobs take.
  JobRecord warm = make_record(spec, opts.seed, kWarmupIndex);
  warm.due_s = warm.ready_s = now_s();
  if (spec.transport == Transport::kSocket) {
    run_socket_job(*st->clients.front(), spec, warm, tracer);
  } else {
    run_backend_job(*st, spec, warm, tracer);
  }
  if (!warm.delivered()) {
    throw std::runtime_error("set-up: warm-up job failed (" + warm.failure +
                             ")");
  }
  return st;
}

// ---------------------------------------------------------- verification --

struct Verification {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
};

/// Re-sample a deterministic subset of delivered jobs directly from the
/// set-up's archives and compare digests; a mismatch marks the job failed.
Verification verify(const Stack& st, const WorkloadSpec& spec,
                    std::vector<JobRecord>& jobs, Tracer& tracer) {
  Verification v;
  std::map<std::string, std::unique_ptr<models::TabularGenerator>> direct;
  for (auto& r : jobs) {
    if (v.checked == kVerifyJobs) break;
    if (!r.delivered() || r.index % kVerifyStride != 0) continue;
    const std::string& key = spec.models[r.model];
    auto& model = direct[key];
    if (!model) {
      const Span span(tracer, "models", "load_model_file");
      model = models::load_model_file(st.archives.at(key));
    }
    models::SampleRequest request;
    request.rows = spec.rows;
    request.seed = r.seed;
    request.chunk_rows = spec.chunk_rows;
    request.threads = 1;  // bytes do not depend on it; memory stays flat
    tabular::Table expected;
    {
      const Span span(tracer, "models", "sample_into");
      model->sample_into(expected, request);
    }
    ++v.checked;
    if (serve::hash_table(expected) != r.hash ||
        expected.num_rows() != r.rows_out) {
      ++v.mismatches;
      r.failure = "digest_mismatch";
    }
  }
  return v;
}

// ------------------------------------------------------------- net probe --

struct NetSample {
  std::vector<double> submit_ms, wait_ms, wire_ms, pages;
  double page_get_ms = 0.0;
  double page_bytes_per_row = 0.0;
};

void add_net_sample(NetSample& out, const JobRecord& r) {
  if (!r.delivered()) return;
  out.submit_ms.push_back(r.submit_ms);
  out.wait_ms.push_back(r.wait_ms);
  out.wire_ms.push_back(r.latency_ms() - r.total_s * 1e3);
  out.pages.push_back(static_cast<double>(r.pages));
}

/// One raw page GET of a resolved job via HttpClient::request: median time
/// over a few repeats, and bytes per row of the page body.
void probe_page_get(net::ApiClient& api, const WorkloadSpec& spec,
                    std::uint64_t run_seed, Tracer& tracer, NetSample& out) {
  JobRecord r = make_record(spec, run_seed, kProbeBase + 999);
  const std::uint64_t id =
      api.submit(spec.models[r.model], spec.rows, r.seed, spec.chunk_rows);
  (void)api.wait_result(id);
  const std::string target = "/v1/jobs/" + std::to_string(id) + "?cursor=0";
  const std::size_t page_rows =
      std::min<std::size_t>(net::RestConfig{}.page_rows, spec.rows);
  std::vector<double> ms;
  std::size_t bytes = 0;
  for (int i = 0; i < 7; ++i) {
    const Span span(tracer, "net", "page_get");
    const double s = now_s();
    const net::HttpResponse resp = api.http().request("GET", target);
    ms.push_back((now_s() - s) * 1e3);
    if (resp.status != 200) {
      throw std::runtime_error("net probe: page GET answered " +
                               std::to_string(resp.status));
    }
    bytes = resp.body.size();
  }
  out.page_get_ms = median(ms);
  out.page_bytes_per_row =
      static_cast<double>(bytes) / static_cast<double>(page_rows);
}

/// The net layer at this workload's job shape when the timed phase does
/// not cross it: a loopback endpoint over the same backend, a few jobs.
NetSample probe_net(Stack& st, const WorkloadSpec& spec,
                    std::uint64_t run_seed, Tracer& tracer) {
  net::ServerConfig server;
  server.worker_threads = 4;
  net::HttpEndpoint endpoint(*st.backend, net::RestConfig{}, server);
  endpoint.server.start();
  net::ApiClient api("127.0.0.1", endpoint.server.port());
  NetSample out;
  for (std::size_t k = 0; k < kNetProbeJobs; ++k) {
    JobRecord r = make_record(spec, run_seed, kProbeBase + k);
    r.due_s = r.ready_s = now_s();
    run_socket_job(api, spec, r, tracer);
    if (!r.delivered()) {
      throw std::runtime_error("net probe: job failed (" + r.failure + ")");
    }
    add_net_sample(out, r);
  }
  probe_page_get(api, spec, run_seed, tracer, out);
  endpoint.server.stop();
  return out;
}

// ------------------------------------------------------------- reporting --

/// Counters of the backend read before and after a phase.
struct BackendSnapshot {
  serve::ServiceStats stats;
  std::uint64_t rerouted = 0;
  std::uint64_t rerouted_transport = 0;
};

BackendSnapshot snapshot(const Stack& st) {
  BackendSnapshot s;
  if (st.pool) {
    const auto ss = st.pool->shard_stats();
    s.stats = ss.aggregate;
    s.rerouted = ss.rerouted;
    s.rerouted_transport = ss.rerouted_transport;
  } else {
    s.stats = st.backend->stats();
  }
  return s;
}

void write_percentile(util::JsonWriter& w, const char* name,
                      const Percentile& p) {
  w.key(name).begin_object();
  if (p.resolved()) {
    w.kv("value", p.value);
  } else {
    w.key("value").null();
  }
  w.kv("p", p.p);
  w.kv("n", p.n);
  w.kv("beyond", p.beyond);
  w.end_object();
}

/// End-to-end figures of one phase.
struct PhaseFigures {
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  std::map<std::string, std::uint64_t> failures;
  std::uint64_t rows = 0;
  double wall_s = 0.0;
  Percentile p50, p95, lag_p95;
  double mean_latency_ms = 0.0;
  double slo_frac = 0.0;
};

PhaseFigures figures(const Phase& phase, const WorkloadSpec& spec) {
  PhaseFigures f;
  std::vector<double> latency;
  std::vector<double> lag;
  std::size_t within = 0;
  for (const auto& r : phase.jobs) {
    ++f.attempted;
    lag.push_back(r.lag_ms());
    if (!r.delivered()) {
      ++f.failures[r.failure];
      continue;
    }
    ++f.delivered;
    f.rows += r.rows_out;
    latency.push_back(r.latency_ms());
    if (r.latency_ms() <= spec.latency_limit_ms) ++within;
  }
  f.wall_s = phase.end_s - phase.start_s;
  f.p50 = percentile(latency, 0.50);
  f.p95 = percentile(latency, 0.95);
  f.lag_p95 = percentile(lag, 0.95);
  f.mean_latency_ms =
      latency.empty() ? 0.0
                      : std::accumulate(latency.begin(), latency.end(), 0.0) /
                            static_cast<double>(latency.size());
  f.slo_frac = f.attempted == 0 ? 0.0
                                : static_cast<double>(within) /
                                      static_cast<double>(f.attempted);
  return f;
}

void write_figures(util::JsonWriter& w, const PhaseFigures& f) {
  w.begin_object();
  w.kv("attempted", f.attempted);
  w.kv("delivered", f.delivered);
  w.key("failures").begin_object();
  for (const auto& [kind, n] : f.failures) w.kv(kind, n);
  w.end_object();
  w.kv("rows", f.rows);
  w.kv("wall_s", f.wall_s);
  write_percentile(w, "latency_p50_ms", f.p50);
  write_percentile(w, "latency_p95_ms", f.p95);
  write_percentile(w, "lag_p95_ms", f.lag_p95);
  w.kv("slo_frac", f.slo_frac);
  w.end_object();
}

double resolved(const Percentile& p, const char* metric) {
  if (!p.resolved()) {
    throw std::runtime_error(std::string("too few samples for ") + metric);
  }
  return p.value;
}

/// serve.queue/sample/batch from the traced phase's jobs and the service
/// counters around it.
void set_serve_metrics(const Phase& traced, const serve::ServiceStats& before,
                       const serve::ServiceStats& after, Metrics& m) {
  std::vector<double> queue_ms, sample_ms;
  for (const auto& r : traced.jobs) {
    if (!r.delivered()) continue;
    queue_ms.push_back(r.queue_s * 1e3);
    sample_ms.push_back(r.sample_s * 1e3);
  }
  m.set("serve.queue_ms_p50",
        resolved(percentile(queue_ms, 0.5), "serve.queue_ms_p50"));
  m.set("serve.queue_ms_p95",
        resolved(percentile(queue_ms, 0.95), "serve.queue_ms_p95"));
  m.set("serve.sample_ms_p50",
        resolved(percentile(sample_ms, 0.5), "serve.sample_ms_p50"));
  const auto batched = [](const serve::ServiceStats& s) {
    return s.mean_batch_jobs * static_cast<double>(s.batches);
  };
  m.set("serve.batch_jobs_mean",
        after.batches > before.batches
            ? (batched(after) - batched(before)) /
                  static_cast<double>(after.batches - before.batches)
            : 0.0);
}

/// net.*: from the traced phase on smote-socket, from a probe elsewhere.
void set_net_metrics(Stack& st, const WorkloadSpec& spec,
                     std::uint64_t run_seed, const Phase& traced,
                     Tracer& tracer, Metrics& m) {
  NetSample net;
  if (spec.transport == Transport::kSocket) {
    for (const auto& r : traced.jobs) add_net_sample(net, r);
    probe_page_get(*st.clients.front(), spec, run_seed, tracer, net);
  } else {
    net = probe_net(st, spec, run_seed, tracer);
  }
  m.set("net.submit_ms_p50",
        resolved(percentile(net.submit_ms, 0.5), "net.submit_ms_p50"));
  m.set("net.wait_ms_p50",
        resolved(percentile(net.wait_ms, 0.5), "net.wait_ms_p50"));
  m.set("net.wire_ms_p50",
        resolved(percentile(net.wire_ms, 0.5), "net.wire_ms_p50"));
  m.set("net.page_get_ms", net.page_get_ms);
  m.set("net.page_bytes_per_row", net.page_bytes_per_row);
  m.set("net.pages_per_job", median(net.pages));
}

/// What the fleet probe adds to the run's counts.
struct FleetOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = false;
};

/// The fleet probe: fleet_spec()'s topology under its open-loop schedule.
/// Sets the load-path, routing and remote-transport metrics (serve.host.*,
/// serve.shard.*, serve.remote.*, serve.fleet.*) and the generator lag.
FleetOutcome probe_fleet(const RunOptions& opts, Tracer& tracer, Metrics& m) {
  const WorkloadSpec& spec = fleet_spec();
  // Its own archive directory: the workload's stack is still alive.
  auto st = build_stack(spec, opts, kSetups, tracer);
  const BackendSnapshot before = snapshot(*st);
  Phase phase = run_open(*st, spec, opts.seed, kFleetBase, kFleetProbeSeconds,
                         tracer);
  const BackendSnapshot after = snapshot(*st);
  const double worker_rss = st->worker_peak_rss_mb();
  const Verification v = verify(*st, spec, phase.jobs, tracer);
  const int worker_exit = st->close();

  const PhaseFigures f = figures(phase, spec);
  std::vector<double> overhead_ms;
  for (const auto& r : phase.jobs) {
    // Only jobs a worker process served crossed the remote hop.
    if (r.delivered() && r.remote) {
      overhead_ms.push_back((r.end_s - r.start_s - r.total_s) * 1e3);
    }
  }
  m.set("serve.fleet.latency_ms_p50",
        resolved(f.p50, "serve.fleet.latency_ms_p50"));
  m.set("serve.fleet.latency_ms_p95",
        resolved(f.p95, "serve.fleet.latency_ms_p95"));
  m.set("serve.fleet.worker_peak_rss_mb", worker_rss);
  m.set("serve.remote.overhead_ms_p50",
        resolved(percentile(overhead_ms, 0.5), "serve.remote.overhead_ms_p50"));
  m.set("gen.lag_ms_p95", resolved(f.lag_p95, "gen.lag_ms_p95"));

  const auto& h0 = before.stats.host;
  const auto& h1 = after.stats.host;
  const auto hits = static_cast<double>(h1.hits - h0.hits);
  const auto misses = static_cast<double>(h1.misses - h0.misses);
  m.set("serve.host.hit_rate",
        hits + misses > 0.0 ? hits / (hits + misses) : 1.0);
  m.set("serve.host.loads", static_cast<double>(h1.loads - h0.loads));
  m.set("serve.host.evictions",
        static_cast<double>(h1.evictions - h0.evictions));
  m.set("serve.shard.rerouted",
        static_cast<double>(after.rerouted - before.rerouted));
  m.set("serve.shard.rerouted_transport",
        static_cast<double>(after.rerouted_transport -
                            before.rerouted_transport));

  FleetOutcome out;
  out.attempted = f.attempted;
  out.failed = (f.attempted - f.delivered) + (worker_exit != 0 ? 1 : 0);
  out.correct = v.mismatches == 0 && v.checked > 0 && worker_exit == 0;
  return out;
}

std::uint64_t run_digest(const Phase& phase) {
  std::uint64_t digest = 0;
  for (const auto& r : phase.jobs) {
    if (r.index < kDigestJobs) digest = fold_digest(digest, r.hash);
  }
  return digest;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& s : specs()) out.push_back(s.name);
    return out;
  }();
  return names;
}

RunOutcome run_workload(const RunOptions& opts) {
  const WorkloadSpec& spec = find_spec(opts.workload);
  Tracer tracer(opts.trace);
  RunOutcome out;
  Metrics& m = out.metrics;

  // Set up kSetups times; keep the last. The first one is timed from
  // process start.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::unique_ptr<Stack> st;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    st.reset();
    const double t0 = attempt == 0 ? opts.process_start_s : now_s();
    st = build_stack(spec, opts, attempt, tracer);
    setup_s.push_back(now_s() - t0);
    generate_s.push_back(st->generate_s);
  }

  // Timed phase A, untraced. Traced runs add phase B with spans on and
  // take the per-layer metrics from it; the two phases' latencies give
  // the trace overhead.
  const double phase_seconds = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  tracer.set_enabled(false);
  const CpuTicks ticks_before = cpu_ticks();
  Phase a = run_closed(*st, spec, opts.seed, 0, phase_seconds, tracer);
  const double phase_steal = steal_frac(ticks_before, cpu_ticks());
  Phase b;
  serve::ServiceStats before;
  serve::ServiceStats after;
  if (opts.trace) {
    before = st->backend->stats();
    tracer.set_enabled(true);
    b = run_closed(*st, spec, opts.seed, kTracedBase, phase_seconds, tracer);
    after = st->backend->stats();
  }

  // Peak memory through set-up and serving, read before verification.
  const double process_rss = peak_rss_mb("self");
  const Verification va = verify(*st, spec, a.jobs, tracer);
  const Verification vb = verify(*st, spec, b.jobs, tracer);
  const PhaseFigures fa = figures(a, spec);
  const PhaseFigures fb = figures(b, spec);
  out.attempted = fa.attempted + fb.attempted;
  out.failed = (fa.attempted - fa.delivered) + (fb.attempted - fb.delivered);
  out.correct = va.mismatches == 0 && vb.mismatches == 0 && va.checked > 0 &&
                fa.p95.resolved();

  if (opts.trace) {
    probe_kernels(st->train, tracer, m);
    probe_models(st->train, kCorpusSeed, std::min(spec.rows, kModelProbeRows),
                 spec.chunk_rows, tracer, m);
    m.set("panda.generate_s", median(generate_s));
    set_serve_metrics(b, before, after, m);
    set_net_metrics(*st, spec, opts.seed, b, tracer, m);
    m.set("trace.overhead_frac",
          fa.mean_latency_ms > 0.0
              ? fb.mean_latency_ms / fa.mean_latency_ms - 1.0
              : 0.0);
    const FleetOutcome fleet = probe_fleet(opts, tracer, m);
    out.attempted += fleet.attempted;
    out.failed += fleet.failed;
    out.correct = out.correct && fleet.correct;
  }
  st.reset();

  m.set("setup_s", median(setup_s));
  const auto per_second = [&fa](std::uint64_t n) {
    return fa.wall_s > 0.0 ? static_cast<double>(n) / fa.wall_s : 0.0;
  };
  m.set("rows_per_s", per_second(fa.rows));
  m.set("jobs_per_s", per_second(fa.delivered));
  m.set("latency_p50_ms", fa.p50.resolved() ? fa.p50.value : 0.0);
  m.set("latency_p95_ms", fa.p95.resolved() ? fa.p95.value : 0.0);
  m.set("slo_frac", fa.slo_frac);
  m.set("peak_rss_mb", process_rss);

  std::string trace_file;
  if (opts.trace) {
    fs::create_directories(opts.trace_dir);
    trace_file = opts.trace_dir + "/" + spec.name + "-seed" +
                 std::to_string(opts.seed) + ".json";
    tracer.write(trace_file);
  }

  util::JsonWriter w;
  w.begin_object();
  w.kv("kind", "perfbench_report");
  w.kv("workload", spec.name);
  w.key("stamp").begin_object();
  w.kv("simd_backend", linalg::simd::active_backend_name());
  w.kv("nproc",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("seed", opts.seed);
  w.kv("seconds", opts.seconds);
  w.kv("trace", opts.trace);
  w.end_object();
  w.kv("digest", hex(run_digest(a)));
  w.kv("digest_jobs", static_cast<std::uint64_t>(kDigestJobs));
  w.kv("verified_jobs", static_cast<std::uint64_t>(va.checked + vb.checked));
  w.kv("digest_mismatches",
       static_cast<std::uint64_t>(va.mismatches + vb.mismatches));
  w.kv("failed_frac", out.attempted == 0
                          ? 0.0
                          : static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted));
  w.kv("latency_limit_ms", spec.latency_limit_ms);
  w.kv("steal_frac", phase_steal);
  w.key("setup_s").begin_array();
  for (const double s : setup_s) w.value(s);
  w.end_array();
  w.key("untraced");
  write_figures(w, fa);
  if (opts.trace) {
    w.key("traced");
    write_figures(w, fb);
    w.key("self_ms").begin_object();
    for (const auto& [layer, t] : tracer.self_times()) {
      w.kv(layer, t.self_s * 1e3);
    }
    w.end_object();
    w.kv("trace_file", trace_file);
  }
  w.end_object();
  out.report = w.str();
  return out;
}

}  // namespace perfbench
