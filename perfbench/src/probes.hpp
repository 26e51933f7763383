#pragma once
// Layer probes for traced runs: direct calls into linalg, nn and models at
// the shapes a workload uses, each wrapped in a span.

#include <cstdint>

#include "harness.hpp"
#include "models/generator.hpp"
#include "tabular/table.hpp"
#include "trace.hpp"

namespace perfbench {

/// Rows per TabDDPM denoiser forward: the sampler's chunk batch (1024)
/// capped by the 16-row chunks of ddpm-inproc.
inline constexpr std::size_t kDenoiserBatch = 16;

/// The fixed fit budget of every set-up and probe. Sampling cost depends
/// on the fitted shapes, not on the epoch count, so one epoch suffices.
[[nodiscard]] surro::models::TrainBudget fit_budget();

/// linalg.gemm_gflops, linalg.softmax_rows_per_s and
/// nn.denoiser_forward_ms, at the TabDDPM denoiser's shapes for `train`
/// (TabDdpmConfig hidden sizes and time embedding, encoded width of the
/// training table, kDenoiserBatch rows).
void probe_kernels(const surro::tabular::Table& train, Tracer& tracer,
                   Metrics& metrics);

/// models.<key>.fit_s and models.<key>.sample_rows_per_s for all four
/// registered surrogates: fit with fit_budget(), then sample_into with
/// threads = 1 at (rows, chunk_rows).
void probe_models(const surro::tabular::Table& train, std::uint64_t seed,
                  std::size_t rows, std::size_t chunk_rows, Tracer& tracer,
                  Metrics& metrics);

}  // namespace perfbench
