#pragma once
// The benchmark's own helpers: the one percentile rule, the run-digest
// fold, the job-identity and arrival-schedule generators, and the metric
// catalogue every workload prints. Each helper has a self-check in
// harness.cpp (`perfbench --self-check`).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; otherwise it prints as null.
inline constexpr std::size_t kMinBeyond = 10;

/// A timed phase holds at least this many jobs, so p95 has >= kMinBeyond
/// samples beyond it (200 - ceil(0.95 * 200) = 10).
inline constexpr std::size_t kMinJobs = 200;

/// The run digest folds the first kDigestJobs jobs by index: every run of a
/// seed completes at least that many, so the digest repeats exactly.
inline constexpr std::size_t kDigestJobs = kMinJobs;

/// One percentile of a sample, with the counts that qualify it.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;       ///< samples in the set
  std::size_t beyond = 0;  ///< samples strictly after the chosen rank
  double p = 0.0;
  /// False for an empty sample, and for a tail percentile (p > 0.5) with
  /// fewer than kMinBeyond samples beyond it.
  [[nodiscard]] bool resolved() const noexcept {
    return n > 0 && (p <= 0.5 || beyond >= kMinBeyond);
  }
};

/// Nearest-rank percentile, p in (0, 1] — the rule serve::LatencyWindow
/// uses: the sample at rank ceil(p * n) (1-based) of the sorted set.
[[nodiscard]] Percentile percentile(std::vector<double> samples, double p);

/// Median of a sample (nearest-rank p50); 0 for an empty set.
[[nodiscard]] double median(std::vector<double> samples);

/// Order-independent run digest: the wrapping sum of per-job digests.
/// Unlike an XOR fold, two identical jobs do not cancel.
[[nodiscard]] constexpr std::uint64_t fold_digest(std::uint64_t acc,
                                                  std::uint64_t job) noexcept {
  return acc + job;
}

/// The sample seed of job `index` in the run seeded with `run_seed`.
[[nodiscard]] std::uint64_t job_seed(std::uint64_t run_seed,
                                     std::uint64_t index) noexcept;

/// Poisson arrival times (seconds from phase start), sorted: a Poisson
/// process at `rate` per second conditioned on holding
/// max(round(rate * seconds), min_jobs) arrivals, i.e. that many uniform
/// draws over the window it spans. Fixing the count keeps the offered load
/// of every seed equal. A pure function of its arguments.
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed,
                                                   double rate, double seconds,
                                                   std::size_t min_jobs);

/// Metric names match [A-Za-z0-9_.-]+ and start with a letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

/// One metric the benchmark prints: end-to-end metrics in untraced runs,
/// per-layer metrics in traced runs.
struct MetricSpec {
  const char* name;
  const char* unit;
  bool per_layer;
};

/// Every metric, in print order. Every workload prints all metrics of its
/// mode; BENCHMARK.json lists the same names and units.
[[nodiscard]] const std::vector<MetricSpec>& metric_specs();

/// Values collected during a run; emit() refuses unknown names and, for
/// the run's mode, missing ones.
class Metrics {
 public:
  void set(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;
  /// The `metrics` object of the result line for one mode. Throws
  /// std::logic_error when a metric of the mode was never set.
  [[nodiscard]] std::string emit(bool per_layer) const;

 private:
  std::map<std::string, double> values_;
};

/// Run every helper self-check; prints failures to stderr and returns the
/// number of failed checks.
[[nodiscard]] int self_check();

}  // namespace perfbench
