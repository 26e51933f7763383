#include "harness.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "serve/latency_window.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.n = samples.size();
  out.p = p;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.value = surro::serve::LatencyWindow::percentile(samples, p);
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  out.beyond = samples.size() - std::clamp<std::size_t>(rank, 1, out.n);
  return out;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  return percentile(std::move(samples), 0.5).value;
}

std::uint64_t job_seed(std::uint64_t run_seed, std::uint64_t index) noexcept {
  std::uint64_t state = run_seed * 0x9E3779B97F4A7C15ULL + index;
  (void)surro::util::splitmix64(state);
  return surro::util::splitmix64(state);
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double seconds, std::size_t min_jobs) {
  if (!(rate > 0.0)) throw std::invalid_argument("poisson_schedule: rate");
  const auto count = std::max<std::size_t>(
      static_cast<std::size_t>(std::llround(rate * seconds)), min_jobs);
  const double span = static_cast<double>(count) / rate;
  surro::util::Rng rng(seed ^ 0xA11CE5ULL);
  std::vector<double> due(count);
  for (double& t : due) t = rng.uniform() * span;
  std::sort(due.begin(), due.end());
  return due;
}

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

const std::vector<MetricSpec>& metric_specs() {
  static const std::vector<MetricSpec> specs = {
      // End to end (untraced runs).
      {"setup_s", "s", false},
      {"rows_per_s", "rows/s", false},
      {"jobs_per_s", "jobs/s", false},
      {"latency_p50_ms", "ms", false},
      {"latency_p95_ms", "ms", false},
      {"slo_frac", "frac", false},
      {"peak_rss_mb", "MB", false},
      // Per layer (traced runs).
      {"panda.generate_s", "s", true},
      {"models.tabddpm.fit_s", "s", true},
      {"models.smote.fit_s", "s", true},
      {"models.tvae.fit_s", "s", true},
      {"models.ctabgan.fit_s", "s", true},
      {"models.tabddpm.sample_rows_per_s", "rows/s", true},
      {"models.smote.sample_rows_per_s", "rows/s", true},
      {"models.tvae.sample_rows_per_s", "rows/s", true},
      {"models.ctabgan.sample_rows_per_s", "rows/s", true},
      {"linalg.gemm_gflops", "GFLOP/s", true},
      {"linalg.softmax_rows_per_s", "rows/s", true},
      {"nn.denoiser_forward_ms", "ms", true},
      {"serve.queue_ms_p50", "ms", true},
      {"serve.queue_ms_p95", "ms", true},
      {"serve.sample_ms_p50", "ms", true},
      {"serve.batch_jobs_mean", "jobs", true},
      {"serve.host.hit_rate", "frac", true},
      {"serve.host.loads", "count", true},
      {"serve.host.evictions", "count", true},
      {"serve.shard.rerouted", "count", true},
      {"serve.shard.rerouted_transport", "count", true},
      {"serve.remote.overhead_ms_p50", "ms", true},
      {"serve.fleet.latency_ms_p50", "ms", true},
      {"serve.fleet.latency_ms_p95", "ms", true},
      {"serve.fleet.worker_peak_rss_mb", "MB", true},
      {"net.submit_ms_p50", "ms", true},
      {"net.wait_ms_p50", "ms", true},
      {"net.wire_ms_p50", "ms", true},
      {"net.page_get_ms", "ms", true},
      {"net.page_bytes_per_row", "B/row", true},
      {"net.pages_per_job", "pages", true},
      {"gen.lag_ms_p95", "ms", true},
      {"trace.overhead_frac", "frac", true},
  };
  return specs;
}

namespace {

const MetricSpec* find_spec(const std::string& name) {
  for (const auto& spec : metric_specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace

void Metrics::set(const std::string& name, double value) {
  if (find_spec(name) == nullptr) {
    throw std::logic_error("perfbench: unknown metric " + name);
  }
  values_[name] = value;
}

double Metrics::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("perfbench: metric " + name + " not measured");
  }
  return it->second;
}

std::string Metrics::emit(bool per_layer) const {
  surro::util::JsonWriter w;
  w.begin_object();
  for (const auto& spec : metric_specs()) {
    if (spec.per_layer != per_layer) continue;
    const double v = get(spec.name);
    if (!std::isfinite(v)) {
      throw std::logic_error(std::string("perfbench: metric ") + spec.name +
                             " is not a finite number");
    }
    w.key(spec.name).begin_object();
    w.kv("value", v);
    w.kv("unit", spec.unit);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

// ------------------------------------------------------------ self-checks --

int self_check() {
  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-check FAILED: %s\n", what);
      ++failures;
    }
  };

  // Percentile rule: nearest rank, with the beyond-count that qualifies it.
  {
    std::vector<double> v;
    for (int i = 200; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    const auto p95 = percentile(v, 0.95);
    check(p95.value == 190.0 && p95.n == 200 && p95.beyond == 10 &&
              p95.resolved(),
          "p95 of 1..200 is 190 with 10 beyond");
    v.pop_back();  // 199 samples: rank 190, 9 beyond -> unresolved
    const auto short_p95 = percentile(v, 0.95);
    check(short_p95.beyond == 9 && !short_p95.resolved(),
          "p95 of 199 samples has 9 beyond and is unresolved");
    check(percentile({5.0}, 0.5).value == 5.0, "p50 of one sample");
    check(percentile({1.0, 2.0, 3.0, 4.0}, 0.5).value == 2.0,
          "p50 of 1..4 is 2 (nearest rank, no interpolation)");
    check(percentile({}, 0.5).n == 0 && !percentile({}, 0.5).resolved(),
          "empty sample is unresolved");
    check(median({3.0, 1.0, 2.0}) == 2.0, "median of 3 samples");
  }

  // Digest fold: identical jobs must not cancel, and order must not matter.
  {
    const std::uint64_t h = 0x0123456789ABCDEFULL;
    check(fold_digest(fold_digest(0, h), h) != 0,
          "two identical jobs do not cancel in the digest");
    check(fold_digest(fold_digest(0, h), 7) ==
              fold_digest(fold_digest(0, 7), h),
          "digest fold is order-independent");
    check(fold_digest(fold_digest(0, h), h) != fold_digest(0, h),
          "a repeated job changes the digest");
  }

  // Job seeds and the Poisson schedule are pure functions of the seed.
  {
    check(job_seed(7, 3) == job_seed(7, 3), "job_seed repeats");
    check(job_seed(7, 3) != job_seed(7, 4) && job_seed(7, 3) != job_seed(8, 3),
          "job_seed separates indices and runs");
    const auto a = poisson_schedule(11, 40.0, 5.0, kMinJobs);
    const auto b = poisson_schedule(11, 40.0, 5.0, kMinJobs);
    const auto c = poisson_schedule(12, 40.0, 5.0, kMinJobs);
    check(a == b, "poisson schedule repeats for one seed");
    check(a != c, "poisson schedule differs across seeds");
    check(a.size() == kMinJobs, "poisson schedule honours min_jobs");
    check(std::is_sorted(a.begin(), a.end()), "poisson schedule is ordered");
    const auto long_run = poisson_schedule(5, 50.0, 200.0, 0);
    check(long_run.size() == 10000 && long_run.front() >= 0.0 &&
              long_run.back() < 200.0,
          "poisson schedule holds rate * seconds arrivals in the window");
    // Inter-arrival gaps of a Poisson process are exponential: mean 1/rate
    // and coefficient of variation 1.
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 1; i < long_run.size(); ++i) {
      const double gap = long_run[i] - long_run[i - 1];
      sum += gap;
      sum_sq += gap * gap;
    }
    const double n = static_cast<double>(long_run.size() - 1);
    const double mean = sum / n;
    const double cv = std::sqrt(sum_sq / n - mean * mean) / mean;
    check(std::abs(mean - 0.02) < 0.001 && std::abs(cv - 1.0) < 0.05,
          "poisson schedule gaps are exponential at the asked rate");
  }

  // Metric names and units are well formed and unique; both modes exist.
  {
    std::set<std::string> seen;
    bool names_ok = true;
    bool units_ok = true;
    std::size_t e2e = 0;
    std::size_t layer = 0;
    for (const auto& spec : metric_specs()) {
      names_ok = names_ok && valid_metric_name(spec.name) &&
                 seen.insert(spec.name).second;
      const std::string unit = spec.unit;
      units_ok = units_ok && !unit.empty() && unit.size() <= 16 &&
                 std::all_of(unit.begin(), unit.end(), [](char ch) {
                   return std::isalnum(static_cast<unsigned char>(ch)) ||
                          ch == '_' || ch == '/' || ch == '%' || ch == '.' ||
                          ch == '-';
                 });
      (spec.per_layer ? layer : e2e) += 1;
    }
    check(names_ok, "every metric name matches [A-Za-z0-9_.-]+ and is unique");
    check(units_ok, "every unit is well formed");
    check(e2e > 0 && layer > 0, "both metric modes are populated");
    check(!valid_metric_name("bad name") && !valid_metric_name(".x") &&
              !valid_metric_name(""),
          "valid_metric_name rejects bad names");
  }

  // A Metrics set refuses to emit with a metric missing.
  {
    Metrics m;
    m.set("setup_s", 1.0);
    bool threw = false;
    try {
      (void)m.emit(false);
    } catch (const std::logic_error&) {
      threw = true;
    }
    check(threw, "emit refuses a mode with a missing metric");
  }
  return failures;
}

}  // namespace perfbench
