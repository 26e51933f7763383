#include "sched/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "panda/filters.hpp"
#include "util/hash.hpp"

namespace surro::sched {

ClusterSimulator::ClusterSimulator(const panda::SiteCatalog& catalog,
                                   SimConfig cfg)
    : catalog_(&catalog), cfg_(cfg) {
  if (cfg_.capacity_scale <= 0.0) {
    throw std::invalid_argument("simulator: capacity_scale must be > 0");
  }
  capacity_.reserve(catalog.size());
  bool any = false;
  for (const auto& site : catalog.sites()) {
    // No clamp: a site whose scaled capacity floors to zero cores is a
    // real configuration (tiny Tier-2 under an aggressive scale) and must
    // be excluded from placement, not silently rounded up to one core.
    const auto scaled = static_cast<std::size_t>(
        static_cast<double>(site.cores) * cfg_.capacity_scale);
    capacity_.push_back(scaled);
    any = any || scaled > 0;
  }
  if (!any) {
    throw std::invalid_argument(
        "simulator: capacity_scale leaves every site with zero cores");
  }
}

namespace {
struct Completion {
  double time;        // days
  std::size_t site;
  std::uint32_t cores;
  bool operator>(const Completion& other) const noexcept {
    return time > other.time;
  }
};
struct Waiting {
  SimJob job;
  std::size_t site;
};
}  // namespace

double starvation_index(std::span<const double> site_mean_wait_hours,
                        std::span<const std::size_t> site_completed) {
  if (site_mean_wait_hours.size() != site_completed.size()) {
    throw std::invalid_argument("starvation_index: length mismatch");
  }
  double weighted_sum = 0.0;
  double max_mean = 0.0;
  std::size_t total = 0;
  for (std::size_t s = 0; s < site_mean_wait_hours.size(); ++s) {
    if (site_completed[s] == 0) continue;
    weighted_sum +=
        site_mean_wait_hours[s] * static_cast<double>(site_completed[s]);
    max_mean = std::max(max_mean, site_mean_wait_hours[s]);
    total += site_completed[s];
  }
  if (total == 0) return 0.0;
  const double overall = weighted_sum / static_cast<double>(total);
  if (overall <= 0.0) return 1.0;  // nobody waited, nobody starved
  return max_mean / overall;
}

std::uint64_t metrics_digest(const SimMetrics& m) {
  std::uint64_t h = util::kFnvShortOffset;
  const auto mix_d = [&h](double v) {
    util::fnv_mix_u64(h, std::bit_cast<std::uint64_t>(v));
  };
  mix_d(m.mean_wait_hours);
  mix_d(m.p95_wait_hours);
  mix_d(m.mean_utilization);
  mix_d(m.transferred_bytes);
  mix_d(m.makespan_days);
  util::fnv_mix_u64(h, m.completed_jobs);
  mix_d(m.max_site_mean_wait_hours);
  mix_d(m.starvation_index);
  util::fnv_mix_u64(h, m.redirected_jobs);
  util::fnv_mix_u64(h, m.clamped_jobs);
  util::fnv_mix_u64(h, m.site_mean_wait_hours.size());
  for (const double v : m.site_mean_wait_hours) mix_d(v);
  for (const std::size_t c : m.site_completed) util::fnv_mix_u64(h, c);
  return h;
}

SimMetrics ClusterSimulator::run(std::vector<SimJob> jobs,
                                 AllocationPolicy& policy, std::uint64_t seed,
                                 const std::vector<Outage>& outages) {
  std::sort(jobs.begin(), jobs.end(),
            [](const SimJob& a, const SimJob& b) {
              return a.submit_time < b.submit_time;
            });
  for (const Outage& o : outages) {
    if (o.site >= capacity_.size()) {
      throw std::out_of_range("simulator: outage names unknown site");
    }
  }
  util::Rng rng(seed);

  const std::size_t n_sites = capacity_.size();
  ClusterState state;
  state.catalog = catalog_;
  state.busy_cores.assign(n_sites, 0);
  state.queued_jobs.assign(n_sites, 0);
  state.capacity = capacity_;
  state.available.assign(n_sites, 1);

  // Outage windows per site, plus the sorted end-boundary event list that
  // wakes queued jobs when a window closes (a completion may never come).
  std::vector<std::vector<Outage>> site_outages(n_sites);
  std::vector<Completion> outage_ends;  // reuse: time + site
  for (const Outage& o : outages) {
    if (o.end_day <= o.start_day) continue;
    site_outages[o.site].push_back(o);
    outage_ends.push_back({o.end_day, o.site, 0});
  }
  std::sort(outage_ends.begin(), outage_ends.end(),
            [](const Completion& a, const Completion& b) {
              return a.time < b.time;
            });
  const auto site_available = [&site_outages](std::size_t site, double t) {
    for (const Outage& o : site_outages[site]) {
      if (t >= o.start_day && t < o.end_day) return false;
    }
    return true;
  };
  const auto refresh_available = [&](double t) {
    for (std::size_t s = 0; s < n_sites; ++s) {
      state.available[s] = site_available(s, t) ? 1 : 0;
    }
  };

  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      completions;
  std::vector<std::vector<Waiting>> site_queues(n_sites);

  SimMetrics metrics;
  std::vector<double> waits;
  waits.reserve(jobs.size());
  std::vector<double> site_wait_sum(n_sites, 0.0);
  metrics.site_completed.assign(n_sites, 0);
  double busy_core_days = 0.0;
  double last_event_time = 0.0;
  std::size_t total_busy = 0;

  const double ref_hs23 = catalog_->reference_hs23();

  const auto account_busy = [&](double now) {
    busy_core_days += static_cast<double>(total_busy) *
                      (now - last_event_time);
    last_event_time = now;
  };

  const auto runtime_days = [&](const SimJob& job, std::size_t site,
                                std::uint32_t cores) {
    double speed = 1.0;
    if (cfg_.hs23_aware_runtime) {
      speed = catalog_->site(site).hs23_per_core / ref_hs23;
    }
    const double wall_hours =
        job.cpu_hours / (static_cast<double>(cores) * speed);
    return std::max(wall_hours, 0.001) / 24.0;
  };

  const auto try_start = [&](std::size_t site, double now) {
    if (!site_available(site, now)) return;
    auto& queue = site_queues[site];
    std::size_t i = 0;
    while (i < queue.size()) {
      const auto& w = queue[i];
      if (state.busy_cores[site] + w.job.cores <= capacity_[site]) {
        account_busy(now);
        state.busy_cores[site] += w.job.cores;
        total_busy += w.job.cores;
        const double wait_h = (now - w.job.submit_time) * 24.0;
        waits.push_back(wait_h);
        site_wait_sum[site] += wait_h;
        completions.push({now + runtime_days(w.job, site, w.job.cores), site,
                          w.job.cores});
        if (w.site != w.job.home_site) {
          metrics.transferred_bytes += w.job.input_bytes;
        }
        queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
        --state.queued_jobs[site];
        ++metrics.completed_jobs;
        ++metrics.site_completed[site];
      } else {
        ++i;
      }
    }
  };

  // Deterministic fallback when a policy returns an infeasible site: the
  // least-loaded feasible site (lowest index on ties). A job too wide for
  // every site is clamped to the widest feasible site's capacity so it
  // still completes instead of stalling forever.
  const auto fallback_site = [&](const SimJob& job) {
    std::size_t best = n_sites;  // sentinel: none feasible
    double best_load = 0.0;
    for (std::size_t s = 0; s < n_sites; ++s) {
      if (!state.placeable(job, s)) continue;
      const double load =
          (static_cast<double>(state.busy_cores[s]) +
           4.0 * static_cast<double>(state.queued_jobs[s])) /
          static_cast<double>(capacity_[s]);
      if (best == n_sites || load < best_load) {
        best = s;
        best_load = load;
      }
    }
    return best;
  };
  const auto widest_available = [&](double now) {
    std::size_t best = n_sites;
    for (std::size_t s = 0; s < n_sites; ++s) {
      if (capacity_[s] == 0 || !site_available(s, now)) continue;
      if (best == n_sites || capacity_[s] > capacity_[best]) best = s;
    }
    return best;
  };

  std::size_t next_job = 0;
  std::size_t next_outage_end = 0;
  while (next_job < jobs.size() || !completions.empty() ||
         next_outage_end < outage_ends.size()) {
    const double next_submit = next_job < jobs.size()
                                   ? jobs[next_job].submit_time
                                   : 1e300;
    const double next_done =
        completions.empty() ? 1e300 : completions.top().time;
    const double next_lift = next_outage_end < outage_ends.size()
                                 ? outage_ends[next_outage_end].time
                                 : 1e300;
    if (next_submit <= next_done && next_submit <= next_lift) {
      SimJob job = jobs[next_job++];
      state.now = job.submit_time;
      refresh_available(job.submit_time);
      std::size_t site = policy.place(job, state, rng);
      if (site >= n_sites) {
        throw std::out_of_range("simulator: policy returned bad site");
      }
      if (!state.placeable(job, site)) {
        std::size_t redirect = fallback_site(job);
        if (redirect >= n_sites) {
          // No site fits this core request right now: run it on the widest
          // available site with a clamped core count. If every site with
          // capacity is inside an outage, queue at the widest site overall
          // — the outage-end event will start it.
          redirect = widest_available(job.submit_time);
          if (redirect >= n_sites) {
            for (std::size_t s = 0; s < n_sites; ++s) {
              if (capacity_[s] == 0) continue;
              if (redirect >= n_sites || capacity_[s] > capacity_[redirect]) {
                redirect = s;
              }
            }
          }
          if (job.cores > capacity_[redirect]) {
            job.cores = static_cast<std::uint32_t>(capacity_[redirect]);
            ++metrics.clamped_jobs;
          }
        }
        site = redirect;
        ++metrics.redirected_jobs;
      }
      site_queues[site].push_back({job, site});
      ++state.queued_jobs[site];
      try_start(site, job.submit_time);
    } else if (next_done <= next_lift) {
      const Completion done = completions.top();
      completions.pop();
      account_busy(done.time);
      state.busy_cores[done.site] -= done.cores;
      total_busy -= done.cores;
      try_start(done.site, done.time);
      metrics.makespan_days = std::max(metrics.makespan_days, done.time);
    } else {
      const Completion lift = outage_ends[next_outage_end++];
      try_start(lift.site, lift.time);
    }
  }

  if (!waits.empty()) {
    std::sort(waits.begin(), waits.end());
    double sum = 0.0;
    for (const double w : waits) sum += w;
    metrics.mean_wait_hours = sum / static_cast<double>(waits.size());
    metrics.p95_wait_hours =
        waits[static_cast<std::size_t>(0.95 *
                                       static_cast<double>(waits.size() - 1))];
  }
  metrics.site_mean_wait_hours.assign(n_sites, 0.0);
  for (std::size_t s = 0; s < n_sites; ++s) {
    if (metrics.site_completed[s] > 0) {
      metrics.site_mean_wait_hours[s] =
          site_wait_sum[s] / static_cast<double>(metrics.site_completed[s]);
      metrics.max_site_mean_wait_hours = std::max(
          metrics.max_site_mean_wait_hours, metrics.site_mean_wait_hours[s]);
    }
  }
  metrics.starvation_index =
      starvation_index(metrics.site_mean_wait_hours, metrics.site_completed);
  std::size_t total_capacity = 0;
  for (const std::size_t c : capacity_) total_capacity += c;
  if (metrics.makespan_days > 0.0 && total_capacity > 0) {
    metrics.mean_utilization =
        busy_core_days /
        (static_cast<double>(total_capacity) * metrics.makespan_days);
  }
  return metrics;
}

std::vector<SimJob> jobs_from_table(const tabular::Table& table,
                                    const panda::SiteCatalog& catalog,
                                    std::uint64_t seed) {
  const auto& schema = table.schema();
  const std::size_t c_time = schema.index_of(panda::features::kCreationTime);
  const std::size_t c_site = schema.index_of(panda::features::kComputingSite);
  const std::size_t c_bytes =
      schema.index_of(panda::features::kInputFileBytes);
  const std::size_t c_workload = schema.index_of(panda::features::kWorkload);

  util::Rng rng(seed);
  const auto times = table.numerical(c_time);
  const auto bytes = table.numerical(c_bytes);
  const auto workloads = table.numerical(c_workload);
  const auto site_codes = table.categorical(c_site);
  const auto& site_vocab = table.vocabulary(c_site);

  // Map table site labels onto catalog indices (unknown labels scatter
  // uniformly so synthetic tables with rare invented labels still simulate).
  std::vector<std::size_t> site_map(site_vocab.size());
  for (std::size_t v = 0; v < site_vocab.size(); ++v) {
    try {
      site_map[v] = catalog.index_of(site_vocab[v]);
    } catch (const std::out_of_range&) {
      site_map[v] = static_cast<std::size_t>(rng.uniform_index(catalog.size()));
    }
  }

  std::vector<SimJob> jobs;
  jobs.reserve(table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    SimJob j;
    j.submit_time = times[r];
    j.home_site = site_map[static_cast<std::size_t>(site_codes[r])];
    j.input_bytes = std::max(bytes[r], 0.0);
    j.cores = rng.bernoulli(0.4) ? 8 : 1;
    // workload is GFLOP-hours; convert to CPU-hours at the home site rate.
    const double gflops = catalog.site(j.home_site).gflops_per_core;
    j.cpu_hours = std::max(workloads[r], 0.0) / std::max(gflops, 1.0);
    jobs.push_back(j);
  }
  return jobs;
}

}  // namespace surro::sched
