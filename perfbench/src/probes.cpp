#include "probes.hpp"

#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/ops.hpp"
#include "models/tabddpm.hpp"
#include "nn/mlp.hpp"
#include "preprocess/mixed_encoder.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace surro;

/// Each probe repeats its call until this much time has passed.
constexpr double kProbeSeconds = 0.25;

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             util::Rng& rng) {
  linalg::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = static_cast<float>(rng.normal());
  }
  return m;
}

}  // namespace

models::TrainBudget fit_budget() {
  models::TrainBudget budget;
  budget.epochs = 1;
  budget.batch_size = 256;
  return budget;
}

void probe_kernels(const tabular::Table& train, Tracer& tracer,
                   Metrics& metrics) {
  const models::TabDdpmConfig ddpm;
  preprocess::MixedEncoder encoder;
  encoder.fit(train, ddpm.num_quantiles);
  const std::size_t width = encoder.encoded_width();
  const std::size_t in_dim = width + ddpm.time_embed_dim;

  // The denoiser's layer chain: in_dim -> hidden... -> width.
  std::vector<std::size_t> dims{in_dim};
  dims.insert(dims.end(), ddpm.hidden.begin(), ddpm.hidden.end());
  dims.push_back(width);

  util::Rng rng(0x9E4DULL);
  {
    std::vector<linalg::Matrix> a;
    std::vector<linalg::Matrix> b;
    std::vector<linalg::Matrix> out;
    double flops_per_pass = 0.0;
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
      a.push_back(random_matrix(kDenoiserBatch, dims[l], rng));
      b.push_back(random_matrix(dims[l], dims[l + 1], rng));
      out.emplace_back(kDenoiserBatch, dims[l + 1]);
      flops_per_pass += 2.0 * static_cast<double>(kDenoiserBatch) *
                        static_cast<double>(dims[l] * dims[l + 1]);
    }
    const double t0 = now_s();
    double busy = 0.0;
    std::size_t passes = 0;
    while (passes == 0 || now_s() - t0 < kProbeSeconds) {
      for (std::size_t l = 0; l < a.size(); ++l) {
        const Span span(tracer, "linalg", "gemm");
        const double s = now_s();
        linalg::gemm(a[l], b[l], out[l]);
        busy += now_s() - s;
      }
      ++passes;
    }
    metrics.set("linalg.gemm_gflops",
                flops_per_pass * static_cast<double>(passes) / busy / 1e9);
  }
  {
    const linalg::Matrix logits = random_matrix(kDenoiserBatch, width, rng);
    linalg::Matrix m = logits;
    const double t0 = now_s();
    double busy = 0.0;
    std::size_t passes = 0;
    while (passes == 0 || now_s() - t0 < kProbeSeconds) {
      m = logits;
      const Span span(tracer, "linalg", "softmax_rows");
      const double s = now_s();
      linalg::softmax_rows(m, encoder.num_numerical(), width);
      busy += now_s() - s;
      ++passes;
    }
    metrics.set("linalg.softmax_rows_per_s",
                static_cast<double>(kDenoiserBatch * passes) / busy);
  }
  {
    nn::Mlp mlp = nn::make_mlp(in_dim, ddpm.hidden, width,
                               nn::Activation::kSiLU, rng);
    const linalg::Matrix input = random_matrix(kDenoiserBatch, in_dim, rng);
    std::vector<double> ms;
    const double t0 = now_s();
    while (ms.size() < 5 || now_s() - t0 < kProbeSeconds) {
      const Span span(tracer, "nn", "mlp_forward");
      const double s = now_s();
      (void)mlp.forward(input, /*train=*/false);
      ms.push_back((now_s() - s) * 1e3);
    }
    metrics.set("nn.denoiser_forward_ms", median(ms));
  }
}

void probe_models(const tabular::Table& train, std::uint64_t seed,
                  std::size_t rows, std::size_t chunk_rows, Tracer& tracer,
                  Metrics& metrics) {
  for (const char* key : {"tabddpm", "smote", "tvae", "ctabgan"}) {
    const std::string prefix = std::string("models.") + key;
    auto model = models::make_generator(key, fit_budget(), seed);
    {
      const Span span(tracer, "models", "fit");
      const double s = now_s();
      model->fit(train);
      metrics.set(prefix + ".fit_s", now_s() - s);
    }
    models::SampleRequest request;
    request.rows = rows;
    request.chunk_rows = chunk_rows;
    request.threads = 1;
    const double t0 = now_s();
    double busy = 0.0;
    std::size_t passes = 0;
    while (passes == 0 || now_s() - t0 < kProbeSeconds) {
      request.seed = job_seed(seed ^ 0x50BEULL, passes);
      tabular::Table out;
      const Span span(tracer, "models", "sample_into");
      const double s = now_s();
      model->sample_into(out, request);
      busy += now_s() - s;
      ++passes;
    }
    metrics.set(prefix + ".sample_rows_per_s",
                static_cast<double>(rows * passes) / busy);
  }
}

}  // namespace perfbench
