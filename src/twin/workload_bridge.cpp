#include "twin/workload_bridge.hpp"

#include <algorithm>
#include <stdexcept>

#include "panda/filters.hpp"
#include "serve/sample_service.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace surro::twin {

std::uint64_t row_derive(std::uint64_t seed, std::uint64_t row,
                         std::uint64_t salt) noexcept {
  std::uint64_t state = seed ^ (row * 0x9E3779B97F4A7C15ULL) ^
                        (salt * 0xBF58476D1CE4E5B9ULL);
  return util::splitmix64(state);
}

double row_uniform(std::uint64_t seed, std::uint64_t row,
                   std::uint64_t salt) noexcept {
  return static_cast<double>(row_derive(seed, row, salt) >> 11) * 0x1.0p-53;
}

WorkloadBridge::WorkloadBridge(const panda::SiteCatalog& catalog,
                               BridgeConfig cfg)
    : catalog_(&catalog), cfg_(cfg) {
  if (catalog.size() == 0) {
    throw std::invalid_argument("bridge: empty site catalog");
  }
}

std::vector<sched::SimJob> WorkloadBridge::jobs(
    const tabular::Table& table) const {
  const auto& schema = table.schema();
  const std::size_t c_time = schema.index_of(panda::features::kCreationTime);
  const std::size_t c_site = schema.index_of(panda::features::kComputingSite);
  const std::size_t c_bytes =
      schema.index_of(panda::features::kInputFileBytes);
  const std::size_t c_workload = schema.index_of(panda::features::kWorkload);

  const auto times = table.numerical(c_time);
  const auto bytes = table.numerical(c_bytes);
  const auto workloads = table.numerical(c_workload);
  const auto site_codes = table.categorical(c_site);
  const auto& site_vocab = table.vocabulary(c_site);

  // Vocab entry -> catalog index. Unknown labels scatter by an FNV-1a
  // hash of the label bytes, so the mapping is a pure function of the
  // label string, never of vocabulary order.
  std::vector<std::size_t> site_map(site_vocab.size());
  for (std::size_t v = 0; v < site_vocab.size(); ++v) {
    try {
      site_map[v] = catalog_->index_of(site_vocab[v]);
    } catch (const std::out_of_range&) {
      site_map[v] = static_cast<std::size_t>(
          util::fnv1a(site_vocab[v], util::kFnvShortOffset) %
          catalog_->size());
    }
  }

  std::vector<sched::SimJob> out;
  out.reserve(table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    sched::SimJob j;
    j.submit_time = times[r];
    j.home_site = site_map[static_cast<std::size_t>(site_codes[r])];
    j.input_bytes = std::max(bytes[r], 0.0);
    j.cores = row_uniform(cfg_.seed, r, 0) < cfg_.p_eight_core ? 8 : 1;
    const double gflops = catalog_->site(j.home_site).gflops_per_core;
    j.cpu_hours = std::max(workloads[r], 0.0) / std::max(gflops, 1.0);
    out.push_back(j);
  }
  return out;
}

tabular::Table sample_via_backend(serve::SampleBackend& backend,
                                  const std::string& model_key,
                                  std::size_t rows, std::uint64_t seed,
                                  std::size_t chunk_rows) {
  serve::SampleJob job;
  job.model_key = model_key;
  job.rows = rows;
  job.seed = seed;
  job.chunk_rows = chunk_rows;
  return backend.sample(std::move(job));
}

}  // namespace surro::twin
