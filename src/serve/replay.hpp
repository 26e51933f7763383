#pragma once
// Request-script replay for the serving layer: parse a JSONL script (one
// SampleJob per line) or an inline spec, fire it at a SampleService from N
// concurrent clients, and roll the outcome up into the `serve_stats` JSON
// artifact that `surro_cli serve` emits and CI schema-validates.
//
// The replay records an order-independent hash over every returned table
// (sum of per-job FNV-1a digests), so two runs of the same script — at any
// client count, batch size, or cache capacity — must produce the same
// `output_hash`. That makes the artifact itself a determinism probe, not
// just a throughput report.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/sample_service.hpp"

namespace surro::serve {

/// One script line: a job template plus fan-out. `repeat` submits the job
/// that many times; each repetition k uses seed + k * seed_stride, so a
/// stride of 0 replays bitwise-identical jobs and a nonzero stride sweeps
/// fresh streams.
struct ReplayRequest {
  SampleJob job;
  std::size_t repeat = 1;
  std::uint64_t seed_stride = 0;
};

struct ReplayScript {
  std::vector<ReplayRequest> requests;
};

/// JSONL: one JSON object per line — {"model": "smote", "rows": 500,
/// "seed": 7, "chunk_rows": 1024, "priority": 0, "deadline_ms": 250,
/// "repeat": 4, "seed_stride": 1}. Only "model" and "rows" are required.
/// Blank lines and lines starting with '#' are skipped. Throws
/// std::runtime_error (with the line number) on malformed input.
[[nodiscard]] ReplayScript parse_script_jsonl(std::istream& is);

/// Inline spec: ';'-separated requests, each "key=value" pairs joined by
/// ',' with the same fields as the JSONL form — e.g.
/// "model=smote,rows=500,seed=7,repeat=4;model=tvae,rows=200".
[[nodiscard]] ReplayScript parse_script_inline(const std::string& spec);

struct ReplayOptions {
  std::size_t clients = 1;  ///< concurrent submitting client threads
  std::size_t rounds = 1;   ///< whole-script repetitions
};

struct ReplayResult {
  std::uint64_t jobs = 0;       ///< submissions attempted
  std::uint64_t completed = 0;  ///< futures that delivered a table
  std::uint64_t rows = 0;       ///< synthetic rows returned
  /// Jobs that failed outright: an execution error on the future, or a
  /// submit that threw something other than a ServiceError (a transport
  /// failure on a remote backend).
  std::uint64_t failures = 0;
  /// Overload outcomes (all zero unless the service has admission bounds,
  /// deadlines, or cancellation in play).
  std::uint64_t rejected = 0;         ///< submits refused at admission
  std::uint64_t shed = 0;             ///< jobs dropped by the shed policy
  std::uint64_t deadline_missed = 0;  ///< jobs that blew their deadline
  double wall_seconds = 0.0;
  /// Order-independent digest over every returned table (see header).
  std::uint64_t output_hash = 0;
  /// Service snapshot taken right after the last future resolved.
  ServiceStats stats;
};

/// Stable digest of a table's contents (schema-ordered numerical bits +
/// categorical labels); shared by the replay hash and the serve tests.
[[nodiscard]] std::uint64_t hash_table(const tabular::Table& table);

/// Expand the script (rounds × requests × repeat), interleave it over
/// `clients` submitting threads, and wait for every future.
[[nodiscard]] ReplayResult run_replay(SampleBackend& service,
                                      const ReplayScript& script,
                                      const ReplayOptions& options);

/// The `serve_stats` artifact (schema_version 1, kind "serve_stats").
[[nodiscard]] std::string serve_stats_to_json(const SampleBackend& service,
                                              const ReplayOptions& options,
                                              const ReplayResult& result);

}  // namespace surro::serve
