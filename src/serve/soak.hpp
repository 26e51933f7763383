#pragma once
// Overload soak harness for the serving layer: N client threads with
// Poisson arrivals drive a bounded ShardPool at a sweep of offered-load
// multipliers (fractions/multiples of the service's measured capacity),
// recording per-point accepted/rejected/shed/deadline-missed counts and
// accepted-job latency percentiles — and asserting the determinism contract
// the hard way: every *accepted* job's bytes are digested and compared
// against an expected hash computed up front by sampling the same
// (model, rows, seed, chunk_rows) identity directly, so rejections, sheds,
// and deadline kills interleaved around a job can never change what it
// returns. Consumed by `surro_cli soak` and bench/serve_soak; the JSON
// artifact (kind "serve_soak") is what the soak-smoke CI job validates.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/replay.hpp"
#include "serve/sample_service.hpp"

namespace surro::serve {

struct SoakConfig {
  /// Model keys to cycle traffic over; every key must already be
  /// registered (and loadable) in the host handed to run_soak.
  std::vector<std::string> models;
  /// Offered load as a multiple of calibrated capacity, one sweep point
  /// each. Percentile ratios are reported against the *lowest* multiplier.
  std::vector<double> load_multipliers{0.5, 1.0, 2.0, 4.0};
  std::size_t clients = 4;        ///< concurrent submitting client threads
  std::size_t rows_per_job = 2000;
  std::size_t chunk_rows = 1024;  ///< part of every job's determinism key
  /// Distinct seeds per model; traffic cycles through models × streams, so
  /// the identity universe is models.size() × seed_streams jobs.
  std::size_t seed_streams = 8;
  std::uint64_t seed = 42;        ///< base for job seeds + arrival processes
  double duration_seconds = 2.0;  ///< submission window per sweep point
  /// Minimum submissions per sweep point (0 = clients × models × 2): at a
  /// low offered rate the submission window extends past duration_seconds
  /// — still Poisson-paced at the same rate — until the floor is met, so
  /// percentiles at every point rest on a real sample, not 2-3 jobs.
  std::size_t min_jobs_per_point = 0;
  double deadline_ms = 0.0;       ///< per-job deadline (0 = none)
  AdmissionPolicy admission = AdmissionPolicy::kReject;
  std::size_t max_queue_depth = 0;  ///< 0 = clients (a shallow, SLO-friendly queue)
  std::size_t max_queued_rows = 0;  ///< 0 = unbounded
  std::size_t sample_threads = 0;   ///< ServiceConfig::sample_threads
  std::size_t max_batch = 8;
  /// Jobs per client in the unbounded calibration run that measures
  /// capacity_jobs_per_sec before the sweep.
  std::size_t calibration_jobs_per_client = 4;
  bool verbose = false;

  /// Drive the sweep over a loopback HTTP socket instead of in-process
  /// submits: run_soak stands up a net::HttpEndpoint (ephemeral port) over
  /// the bounded service, and every client thread submits through its own
  /// serve::RemoteShard on it (one control + one harvester connection) —
  /// POST /v1/sample for each arrival, then long-poll + paginate the rows
  /// back. The client loop is the in-process one, run against that
  /// SampleBackend. Calibration and the expected digests stay in-process
  /// on purpose: the check is that the socket path lands on the *same*
  /// expected_hash, i.e. the determinism contract and the overload SLOs
  /// survive the wire (serialization, pagination, reassembly).
  bool over_socket = false;
  /// HTTP server worker threads in socket mode (0 = 2 × clients + 2: the
  /// server pins a worker per keep-alive connection, each client holds
  /// two, and the +2 leaves slack for stats probes).
  std::size_t http_workers = 0;
  /// Page size each client's RemoteShard paginates results with (0 = the
  /// server's default page, which still exercises pagination when
  /// rows_per_job exceeds it).
  std::size_t page_rows = 0;
  /// Long-poll budget per GET /v1/jobs/{id} while a job is pending
  /// (RemoteShardConfig::poll_wait_ms of each client).
  double poll_wait_ms = 250.0;

  /// Local shards of the serve::ShardPool under test (each shard its own
  /// ModelHost + SampleService, admission bounds *per shard*); every
  /// submit goes through the consistent-hash router. 0 is valid only with
  /// remote_shards. Calibration and the expected digests stay on the
  /// caller's unsharded host — the expected_hash is placement-independent
  /// by contract, so a 1-shard and an 8-shard run of the same config must
  /// agree on it.
  std::size_t shards = 1;
  /// Replication factor (clamped to the total shard count, local +
  /// remote).
  std::size_t replicas = 1;
  /// Archive-cache TTL per shard (ModelHost staleness; 0 = never stale).
  double shard_ttl_ms = 0.0;
  /// Remote worker endpoints ("host:port"), appended to the pool after the
  /// `shards` local shards — the multi-process tier. Workers must already
  /// serve every swept model (same --models flags); registration verifies
  /// that. Calibration and the expected digests STILL come from the
  /// caller's unsharded in-process host, so every remote sweep point is a
  /// cross-process determinism check: bytes that crossed the wire must
  /// land on the same expected_hash an in-process run computes.
  std::vector<std::string> remote_shards;

  /// The queue-depth bound the sweep service actually enforces (resolves
  /// the 0 = clients default). Single source of truth for run_soak, the
  /// JSON artifact, and the CLI banner.
  [[nodiscard]] std::size_t effective_queue_depth() const noexcept {
    return max_queue_depth != 0 ? max_queue_depth : clients;
  }
  /// The per-point submission floor (resolves 0 = clients × models × 2).
  [[nodiscard]] std::size_t effective_min_jobs() const noexcept {
    return min_jobs_per_point != 0 ? min_jobs_per_point
                                   : clients * models.size() * 2;
  }
};

/// One offered-load sweep point.
struct SoakPoint {
  double multiplier = 0.0;
  double offered_jobs_per_sec = 0.0;  ///< target Poisson arrival rate
  std::uint64_t submitted = 0;        ///< submission attempts
  std::uint64_t accepted = 0;         ///< futures that delivered a table
  std::uint64_t rejected = 0;         ///< refused at admission
  std::uint64_t shed = 0;             ///< dropped by the shed policy
  std::uint64_t deadline_missed = 0;
  std::uint64_t failed = 0;  ///< execution/transport errors (should be 0)
  /// Accepted-job latency percentiles (+inf when nothing was accepted;
  /// degrades to null in JSON).
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double wall_seconds = 0.0;          ///< submission window + drain
  double accepted_rows_per_sec = 0.0;
  /// Highest queue depth observed by the monitor thread — the "bounded
  /// queue depth" check under overload. This is the highest *single-shard*
  /// depth (the admission bound is per shard).
  std::size_t max_queue_depth_seen = 0;
  /// Per-shard depth maxima; index = shard.
  std::vector<std::size_t> shard_max_depths;
  bool hashes_ok = true;  ///< every accepted job matched its expected digest
};

struct SoakResult {
  /// Jobs/sec the service sustained in the unbounded calibration run; the
  /// sweep's offered rates are multiples of this.
  double capacity_jobs_per_sec = 0.0;
  std::vector<SoakPoint> points;
  /// Order-independent digest over the expected (model × stream) tables.
  /// Stable across runs with the same config — two soak runs disagreeing
  /// here means the *bytes* moved, not the scheduling.
  std::uint64_t expected_hash = 0;
  /// True when every accepted job at every sweep point matched its
  /// expected digest (the determinism contract under overload).
  bool deterministic = true;
  /// p95 at the highest multiplier / p95 at the lowest; NaN when either
  /// side is empty (degrades to null in JSON). The overload-SLO headline.
  double p95_ratio_vs_low_load = 0.0;
  ServiceStats final_stats;  ///< cumulative pool stats after the sweep
  /// Per-shard final stats + routing tallies.
  std::vector<ServiceStats> shard_final_stats;
  std::uint64_t routed = 0;    ///< submits the router placed on a shard
  std::uint64_t rerouted = 0;  ///< submits re-placed after a replica refused
  /// Submits re-placed after a replica's transport failed (dead worker).
  std::uint64_t rerouted_transport = 0;
  double wall_seconds = 0.0;
  /// Socket-mode tallies (zero for in-process runs): the HTTP server's
  /// accepted connections and answered requests across the whole sweep.
  std::uint64_t http_connections = 0;
  std::uint64_t http_requests = 0;
};

/// Run calibration + the sweep against models registered in `host`.
/// Throws std::invalid_argument on an empty model/multiplier list.
[[nodiscard]] SoakResult run_soak(ModelHost& host, const SoakConfig& cfg);

/// Human-readable sweep table + SLO/determinism summary, shared by
/// `surro_cli soak` and bench/serve_soak (one format to keep current).
[[nodiscard]] std::string render_soak(const SoakResult& result);

/// The `serve_soak` artifact (schema_version 1, kind "serve_soak").
[[nodiscard]] std::string soak_to_json(const SoakConfig& cfg,
                                       const SoakResult& result);

}  // namespace surro::serve
