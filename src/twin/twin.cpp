#include "twin/twin.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "linalg/simd.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/stringx.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace surro::twin {

namespace {
int sign_of(double d) noexcept { return (d > 0.0) - (d < 0.0); }
}  // namespace

double outcome_gap(const sched::SimMetrics& real,
                   const sched::SimMetrics& synth) {
  const auto rel = [](double a, double b) {
    const double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
    return std::fabs(a - b) / scale;
  };
  return (rel(real.mean_wait_hours, synth.mean_wait_hours) +
          rel(real.p95_wait_hours, synth.p95_wait_hours) +
          rel(real.mean_utilization, synth.mean_utilization) +
          rel(real.transferred_bytes, synth.transferred_bytes) +
          rel(real.starvation_index, synth.starvation_index)) /
         5.0;
}

double rank_agreement(const std::vector<double>& real,
                      const std::vector<double>& synth) {
  if (real.size() != synth.size()) {
    throw std::invalid_argument("rank_agreement: length mismatch");
  }
  const std::size_t n = real.size();
  if (n < 2) return 1.0;
  std::size_t concordant = 0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      concordant += sign_of(real[i] - real[j]) == sign_of(synth[i] - synth[j]);
      ++pairs;
    }
  }
  return static_cast<double>(concordant) / static_cast<double>(pairs);
}

std::unique_ptr<sched::AllocationPolicy> make_policy(const std::string& name) {
  if (name == "random") return std::make_unique<sched::RandomPolicy>();
  if (name == "locality") {
    return std::make_unique<sched::DataLocalityPolicy>();
  }
  if (name == "least-loaded" || name == "least") {
    return std::make_unique<sched::LeastLoadedPolicy>();
  }
  if (name == "hybrid") return std::make_unique<sched::HybridPolicy>();
  if (name.starts_with("hybrid:")) {
    double threshold = 0.0;
    if (!util::parse_double(name.substr(7), threshold) ||
        !(threshold > 0.0)) {
      throw std::invalid_argument("bad hybrid threshold in '" + name + "'");
    }
    return std::make_unique<sched::HybridPolicy>(threshold);
  }
  throw std::invalid_argument(
      "unknown policy '" + name +
      "' (have: random|locality|least-loaded|hybrid[:threshold])");
}

ScenarioTwin::ScenarioTwin(const panda::SiteCatalog& catalog, TwinConfig cfg)
    : catalog_(&catalog), cfg_(std::move(cfg)) {
  if (cfg_.policies.empty()) {
    throw std::invalid_argument("twin: no policies configured");
  }
  if (cfg_.disruptions.empty() || cfg_.drifts.empty()) {
    throw std::invalid_argument("twin: empty scenario axis");
  }
  for (const auto& name : cfg_.policies) {
    (void)make_policy(name);  // fail fast on typos, before any cell runs
  }
}

TwinCell ScenarioTwin::run_cell(DisruptionKind disruption,
                                stream::DriftKind drift,
                                const tabular::Table& real,
                                const tabular::Table& synth,
                                const TimeSpan& span) const {
  TwinCell cell;
  cell.disruption = disruption;
  cell.drift = drift;
  cell.id = std::string(disruption_kind_name(disruption)) + "|" +
            stream::drift_kind_name(drift);

  // Feature-space drift first (the stream moved away from the fitted
  // distribution), then the operational disruption on top.
  const auto drifted = [&](const tabular::Table& t, std::size_t* affected) {
    if (drift == stream::DriftKind::kNone) return t.head(t.num_rows());
    stream::DriftConfig dc = cfg_.drift;
    dc.kind = drift;
    auto result = stream::apply_drift(t, cfg_.drift_window_index, dc);
    *affected += result.affected_rows;
    return std::move(result.table);
  };
  DisruptionConfig disrupt = cfg_.disruption;
  disrupt.kind = disruption;
  cell.outages = plan_outages(span, *catalog_, disrupt);

  const auto disrupted_jobs = [&](const tabular::Table& t,
                                  std::size_t* affected) {
    const auto table = drifted(t, affected);
    auto result = apply_disruption(table, span, disrupt);
    *affected += result.affected_rows;
    const WorkloadBridge bridge(*catalog_, cfg_.bridge);
    return bridge.jobs(result.table);
  };
  const auto real_jobs = disrupted_jobs(real, &cell.affected_rows_real);
  const auto synth_jobs = disrupted_jobs(synth, &cell.affected_rows_synth);

  sched::ClusterSimulator sim(*catalog_, cfg_.sim);
  std::vector<double> real_waits;
  std::vector<double> synth_waits;
  for (const auto& name : cfg_.policies) {
    PolicyOutcome outcome;
    outcome.policy = name;
    // Fresh policy instance per run: no shared mutable state between the
    // two streams or between concurrently running cells.
    outcome.real =
        sim.run(real_jobs, *make_policy(name), cfg_.sim_seed, cell.outages);
    outcome.synth =
        sim.run(synth_jobs, *make_policy(name), cfg_.sim_seed, cell.outages);
    outcome.outcome_gap = twin::outcome_gap(outcome.real, outcome.synth);
    real_waits.push_back(outcome.real.mean_wait_hours);
    synth_waits.push_back(outcome.synth.mean_wait_hours);
    cell.outcomes.push_back(std::move(outcome));
  }

  cell.decision_fidelity = rank_agreement(real_waits, synth_waits);
  const auto argmin = [](const std::vector<double>& v) {
    return static_cast<std::size_t>(
        std::min_element(v.begin(), v.end()) - v.begin());
  };
  cell.best_policy_real = cfg_.policies[argmin(real_waits)];
  cell.best_policy_synth = cfg_.policies[argmin(synth_waits)];
  cell.top1_match = cell.best_policy_real == cell.best_policy_synth;
  return cell;
}

TwinResult ScenarioTwin::run(const tabular::Table& real,
                             const tabular::Table& synth) const {
  const util::Stopwatch clock;
  const TimeSpan span = table_time_span(real);

  struct CellSpec {
    DisruptionKind disruption;
    stream::DriftKind drift;
  };
  std::vector<CellSpec> specs;
  for (const DisruptionKind d : cfg_.disruptions) {
    for (const stream::DriftKind f : cfg_.drifts) {
      specs.push_back({d, f});
    }
  }

  TwinResult result;
  result.cells.resize(specs.size());
  // Every cell writes its own slot; the simulator is single-threaded and
  // deterministic per run, so the fan-out cap is scheduling-only.
  util::parallel_for_each(
      0, specs.size(),
      [&](std::size_t i) {
        result.cells[i] =
            run_cell(specs[i].disruption, specs[i].drift, real, synth, span);
        if (cfg_.verbose) {
          std::fprintf(stderr, "  twin cell %-28s fidelity %.2f\n",
                       result.cells[i].id.c_str(),
                       result.cells[i].decision_fidelity);
        }
      },
      /*grain=*/1, cfg_.threads);

  // Canonical-order fold: bitwise identical for any thread count.
  std::uint64_t digest = util::kFnvShortOffset;
  double fidelity_sum = 0.0;
  double gap_sum = 0.0;
  std::size_t gap_count = 0;
  for (const TwinCell& cell : result.cells) {
    util::fnv_mix_u64(digest, static_cast<std::uint64_t>(cell.disruption));
    util::fnv_mix_u64(digest, static_cast<std::uint64_t>(cell.drift));
    for (const PolicyOutcome& o : cell.outcomes) {
      util::fnv_mix_u64(digest, sched::metrics_digest(o.real));
      util::fnv_mix_u64(digest, sched::metrics_digest(o.synth));
      gap_sum += o.outcome_gap;
      ++gap_count;
    }
    fidelity_sum += cell.decision_fidelity;
  }
  result.outcome_digest = digest;
  result.mean_decision_fidelity =
      result.cells.empty()
          ? 0.0
          : fidelity_sum / static_cast<double>(result.cells.size());
  result.mean_outcome_gap =
      gap_count == 0 ? 0.0 : gap_sum / static_cast<double>(gap_count);
  result.wall_seconds = clock.seconds();
  return result;
}

namespace {
void append_metrics_json(util::JsonWriter& w, const sched::SimMetrics& m) {
  w.begin_object();
  w.kv("mean_wait_hours", m.mean_wait_hours);
  w.kv("p95_wait_hours", m.p95_wait_hours);
  w.kv("utilization", m.mean_utilization);
  w.kv("transferred_bytes", m.transferred_bytes);
  w.kv("makespan_days", m.makespan_days);
  w.kv("completed_jobs", m.completed_jobs);
  w.kv("starvation_index", m.starvation_index);
  w.kv("max_site_mean_wait_hours", m.max_site_mean_wait_hours);
  w.kv("redirected_jobs", m.redirected_jobs);
  w.kv("clamped_jobs", m.clamped_jobs);
  w.end_object();
}

}  // namespace

std::string twin_to_json(const TwinConfig& cfg, const TwinResult& result,
                         const std::string& model_key, std::size_t real_rows,
                         std::size_t synth_rows) {
  util::JsonWriter w;
  w.begin_object();
  w.kv("kind", "twin_matrix");
  w.kv("version", 1);
  w.kv("simd_backend", linalg::simd::active_backend_name());
  w.kv("model", model_key);
  w.kv("real_rows", real_rows);
  w.kv("synth_rows", synth_rows);
  // 64-bit seeds ride as decimal strings (the REST precedent: JSON numbers
  // are doubles on the wire).
  w.kv("sim_seed", std::to_string(cfg.sim_seed));
  w.kv("bridge_seed", std::to_string(cfg.bridge.seed));
  w.kv("capacity_scale", cfg.sim.capacity_scale);
  w.kv("disruption_intensity", cfg.disruption.intensity);
  w.key("policies").begin_array();
  for (const auto& p : cfg.policies) w.value(p);
  w.end_array();
  w.key("disruptions").begin_array();
  for (const DisruptionKind d : cfg.disruptions) {
    w.value(disruption_kind_name(d));
  }
  w.end_array();
  w.key("drifts").begin_array();
  for (const stream::DriftKind d : cfg.drifts) {
    w.value(stream::drift_kind_name(d));
  }
  w.end_array();

  w.key("cells").begin_array();
  for (const TwinCell& cell : result.cells) {
    w.begin_object();
    w.kv("id", cell.id);
    w.kv("disruption", disruption_kind_name(cell.disruption));
    w.kv("drift", stream::drift_kind_name(cell.drift));
    w.kv("affected_rows_real", cell.affected_rows_real);
    w.kv("affected_rows_synth", cell.affected_rows_synth);
    w.key("outages").begin_array();
    for (const sched::Outage& o : cell.outages) {
      w.begin_object();
      w.kv("site", o.site);
      w.kv("start_day", o.start_day);
      w.kv("end_day", o.end_day);
      w.end_object();
    }
    w.end_array();
    w.kv("decision_fidelity", cell.decision_fidelity);
    w.kv("top1_match", cell.top1_match);
    w.kv("best_policy_real", cell.best_policy_real);
    w.kv("best_policy_synth", cell.best_policy_synth);
    w.key("policies").begin_array();
    for (const PolicyOutcome& o : cell.outcomes) {
      w.begin_object();
      w.kv("policy", o.policy);
      w.key("real");
      append_metrics_json(w, o.real);
      w.key("synth");
      append_metrics_json(w, o.synth);
      w.kv("outcome_gap", o.outcome_gap);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.kv("mean_decision_fidelity", result.mean_decision_fidelity);
  w.kv("mean_outcome_gap", result.mean_outcome_gap);
  w.kv("wall_seconds", result.wall_seconds);
  w.kv("outcome_digest", util::hex64(result.outcome_digest));
  w.end_object();
  return w.str();
}

std::string render_twin(const TwinResult& result) {
  std::string out;
  char buf[256];
  for (const TwinCell& cell : result.cells) {
    std::snprintf(buf, sizeof(buf),
                  "%s  (fidelity %.2f, best real=%s synth=%s%s)\n",
                  cell.id.c_str(), cell.decision_fidelity,
                  cell.best_policy_real.c_str(),
                  cell.best_policy_synth.c_str(),
                  cell.top1_match ? "" : " MISMATCH");
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  %-14s %11s %11s %11s %11s %8s\n", "policy",
                  "real wait h", "syn wait h", "real starve", "syn starve",
                  "gap");
    out += buf;
    for (const PolicyOutcome& o : cell.outcomes) {
      std::snprintf(buf, sizeof(buf),
                    "  %-14s %11.2f %11.2f %11.2f %11.2f %8.3f\n",
                    o.policy.c_str(), o.real.mean_wait_hours,
                    o.synth.mean_wait_hours, o.real.starvation_index,
                    o.synth.starvation_index, o.outcome_gap);
      out += buf;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "mean decision fidelity %.3f, mean outcome gap %.3f, "
                "digest %s\n",
                result.mean_decision_fidelity, result.mean_outcome_gap,
                util::hex64(result.outcome_digest).c_str());
  out += buf;
  return out;
}

}  // namespace surro::twin
