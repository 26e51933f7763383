// perfbench — the repository benchmark. Runs one named workload from a
// seed and prints two JSON lines: a report (stamps, run digest, counts,
// percentiles with sample counts) and, last, the result
// {"correct", "attempted", "failed", "metrics"}. Untraced runs carry the
// end-to-end metrics, traced runs the per-layer ones.
//
//   perfbench --workload ddpm-inproc --seed 1 --seconds 10 --trace 0
//             [--work-dir DIR] [--trace-dir DIR]
//   perfbench --self-check
//   perfbench --list-metrics
//
// Exit codes: 0 = verified run; 1 = a job returned wrong bytes or a worker
// exited non-zero (the result line is still printed); 2 = usage or set-up
// error (no result line).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "harness.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_CLI_PATH
#define PERFBENCH_CLI_PATH ""
#endif

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] "
               "[--trace-dir DIR]\n       perfbench --self-check | "
               "--list-metrics\n",
               msg);
  return 2;
}

/// Removes the run's work directory on every exit path that unwinds.
struct WorkDirGuard {
  explicit WorkDirGuard(std::string p) : path(std::move(p)) {}
  std::string path;
  WorkDirGuard(const WorkDirGuard&) = delete;
  WorkDirGuard& operator=(const WorkDirGuard&) = delete;
  ~WorkDirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  opts.process_start_s = perfbench::now_s();
  opts.cli_path = PERFBENCH_CLI_PATH;
  opts.work_dir = ".bench_build/perfbench-work-" + std::to_string(::getpid());
  opts.trace_dir = ".bench_build/perfbench-traces";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-check") {
      const int failures = perfbench::self_check();
      std::printf("self-check: %s\n", failures == 0 ? "ok" : "FAILED");
      return failures == 0 ? 0 : 1;
    }
    if (arg == "--list-metrics") {
      for (const auto& spec : perfbench::metric_specs()) {
        std::printf("%s %s %s\n", spec.per_layer ? "per_layer" : "end_to_end",
                    spec.name, spec.unit);
      }
      for (const auto& name : perfbench::workload_names()) {
        std::printf("workload %s\n", name.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else if (arg == "--work-dir") {
        opts.work_dir = value;
      } else if (arg == "--trace-dir") {
        opts.trace_dir = value;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    std::filesystem::create_directories(opts.work_dir);
    const WorkDirGuard guard(opts.work_dir);
    const perfbench::RunOutcome out = perfbench::run_workload(opts);
    std::printf("%s\n", out.report.c_str());
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s}\n",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                out.metrics.emit(opts.trace).c_str());
    std::fflush(stdout);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
