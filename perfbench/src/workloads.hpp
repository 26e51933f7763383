#pragma once
// The benchmark's workloads. Each one sets up a serving topology from the
// seed (data, fit, archives, host/service/endpoint/fleet, one warm-up
// job), drives it for a timed phase, verifies a deterministic subset of
// the delivered jobs against direct sample_into on the same archives, and
// reports the end-to-end metrics (untraced) or the per-layer metrics
// (traced).

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli_path;   ///< surro_cli, exec'd as fleet workers (built
                          ///< alongside perfbench)
  std::string work_dir;   ///< archives and worker scratch; removed at exit
  std::string trace_dir;  ///< where traced runs write their spans
  double process_start_s = 0.0;  ///< now_s() at the top of main()
};

struct RunOutcome {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::string report;  ///< one-line JSON report (stamps, digest, counts)
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload end to end. Throws on set-up failure; a job that
/// fails or returns wrong bytes is counted, not thrown.
[[nodiscard]] RunOutcome run_workload(const RunOptions& opts);

}  // namespace perfbench
