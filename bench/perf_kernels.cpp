// Kernel + end-to-end perf ledger (BENCH_kernels.json). Runs every kernel
// scenario under each available SIMD backend in one process (via
// force_backend), times encode + decode of one result page in both wire
// forms and the two stages of a TabDDPM diffusion step (denoiser forward,
// posterior) on a 16-row chunk, measures end-to-end fit/sample
// throughput for the four surrogate models, and verifies the thread-count
// bitwise-determinism contract per backend. CI runs `--quick` and diffs
// scalar-vs-vectorized throughput; see docs/PERFORMANCE.md for how to read
// the output.
//
// Exit status: 0 on success, 1 when any determinism check fails (the
// ledger is still written so the failure can be inspected).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "eval/experiment.hpp"
#include "linalg/matrix.hpp"
#include "linalg/ops.hpp"
#include "linalg/simd.hpp"
#include "models/generator.hpp"
#include "models/tabddpm.hpp"
#include "net/page_codec.hpp"
#include "net/rest.hpp"
#include "serve/replay.hpp"
#include "tabular/table.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

namespace {

using namespace surro;
namespace simd = linalg::simd;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-`reps` wall-clock of `body` after one untimed warmup call.
template <typename F>
double best_seconds(int reps, F&& body) {
  body();  // warmup
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body();
    const double s = seconds_since(t0);
    if (s < best) best = s;
  }
  return best;
}

linalg::Matrix random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::Matrix m(r, c);
  for (float& v : m.flat()) v = static_cast<float>(rng.normal());
  return m;
}

struct KernelRow {
  std::string name;
  std::string backend;
  double seconds = 0.0;      // best-of wall clock for one pass
  double throughput = 0.0;   // work units per second
  std::string unit;          // what "throughput" counts
};

struct Scenario {
  std::size_t gemm_n;
  std::size_t softmax_rows, softmax_cols;
  std::size_t vec_n;        // axpy / interp / jsd vector length
  std::size_t l2_rows, l2_dim;
  int reps;
  std::size_t fit_rows;
  std::size_t sample_rows;
  models::TrainBudget budget;
};

Scenario scenario_for(bench::Profile profile) {
  Scenario s;
  if (profile == bench::Profile::kQuick) {
    s.gemm_n = 192;
    s.softmax_rows = 2048;
    s.softmax_cols = 64;
    s.vec_n = 1u << 15;
    s.l2_rows = 2000;
    s.l2_dim = 32;
    s.reps = 5;
    s.fit_rows = 400;
    s.sample_rows = 4000;
    s.budget.epochs = 4;
    s.budget.batch_size = 64;
  } else if (profile == bench::Profile::kMedium) {
    s.gemm_n = 384;
    s.softmax_rows = 8192;
    s.softmax_cols = 128;
    s.vec_n = 1u << 18;
    s.l2_rows = 8000;
    s.l2_dim = 64;
    s.reps = 7;
    s.fit_rows = 2000;
    s.sample_rows = 20000;
    s.budget.epochs = 12;
    s.budget.batch_size = 128;
  } else {
    s.gemm_n = 512;
    s.softmax_rows = 16384;
    s.softmax_cols = 256;
    s.vec_n = 1u << 20;
    s.l2_rows = 16000;
    s.l2_dim = 64;
    s.reps = 9;
    s.fit_rows = 6000;
    s.sample_rows = 60000;
    s.budget.epochs = 30;
    s.budget.batch_size = 256;
  }
  return s;
}

/// Pinned mixed-type training table (same shape as the model test tables).
tabular::Table pinned_table(std::size_t n) {
  tabular::Schema schema({{"x", tabular::ColumnKind::kNumerical},
                          {"site", tabular::ColumnKind::kCategorical},
                          {"y", tabular::ColumnKind::kNumerical},
                          {"status", tabular::ColumnKind::kCategorical}});
  tabular::Table t(schema);
  util::Rng rng(2024);
  for (std::size_t i = 0; i < n; ++i) {
    const bool cluster_a = rng.bernoulli(0.65);
    auto row = t.make_row();
    row.set(0, rng.normal(cluster_a ? 0.0 : 5.0, 0.4));
    row.set(1, std::string(cluster_a ? "BNL" : "RAL"));
    row.set(2, rng.normal(cluster_a ? -2.0 : 3.0, 0.3));
    row.set(3, std::string(rng.bernoulli(0.8) ? "finished" : "failed"));
    t.append_row(row);
  }
  return t;
}

/// The first 2,000 training rows of the quick PanDA corpus (seed 42), the
/// set-up perfbench fits its models on.
tabular::Table panda_train() {
  eval::ExperimentConfig ec = eval::quick_experiment_config();
  ec.seed = 42;
  ec.data.seed = 42;
  return eval::prepare_data(ec).train.head(2000);
}

/// One default-size result page (1,000 rows) of SMOTE samples over the
/// quick PanDA corpus: the page smote-socket ships 20 of per job.
tabular::Table smote_page_rows(const tabular::Table& panda) {
  auto model = models::make_generator("smote", {}, 42);
  model->fit(panda);
  return model->sample(net::RestConfig{}.page_rows, 7);
}

/// TabDDPM with ddpm-inproc's one-epoch budget on the PanDA corpus: 4
/// numericals, blocks of 45/12/5/20/4 categories, T = 50.
std::unique_ptr<models::TabularGenerator> panda_tabddpm(
    const tabular::Table& panda) {
  models::TrainBudget budget;
  budget.epochs = 1;
  budget.batch_size = 256;
  auto model = models::make_generator("tabddpm", budget, 42);
  model->fit(panda);
  return model;
}

/// The two stages of one TabDDPM diffusion step on a 16-row chunk (the
/// service's chunk in ddpm-inproc): the denoiser forward and the
/// numerical + multinomial posterior. Best-of-reps mean over the T steps of
/// a fresh chain, as sample_chunk runs it (a chain run past t = 1 again is
/// in a state sampling never reaches, and times differently); `seconds` is
/// per step, throughput counts steps per second.
void run_ddpm_stages(const Scenario& sc, const std::string& backend,
                     const models::TabDdpm& model,
                     std::vector<KernelRow>& rows) {
  constexpr std::size_t kRows = 16;
  const std::size_t steps = model.alpha_bar().size() - 1;
  util::Rng rng(11);
  double forward_s = 1e300;
  double posterior_s = 1e300;
  for (int rep = 0; rep <= sc.reps; ++rep) {  // rep 0 warms up
    models::TabDdpm::Chain chain(model, kRows, rng);
    double forward = 0.0;
    double posterior = 0.0;
    for (std::size_t t = steps; t >= 1; --t) {
      auto t0 = Clock::now();
      chain.forward(t);
      forward += seconds_since(t0);
      t0 = Clock::now();
      chain.posterior(t, rng);
      posterior += seconds_since(t0);
    }
    if (rep == 0) continue;
    forward_s = std::min(forward_s, forward / static_cast<double>(steps));
    posterior_s =
        std::min(posterior_s, posterior / static_cast<double>(steps));
  }
  rows.push_back({"ddpm_step_forward", backend, forward_s, 1.0 / forward_s,
                  "steps_per_sec"});
  rows.push_back({"ddpm_step_posterior", backend, posterior_s,
                  1.0 / posterior_s, "steps_per_sec"});
}

/// Encode + decode of one result page in each wire form, rows per second.
void run_page_codecs(const Scenario& sc, const std::string& backend,
                     const tabular::Table& page,
                     std::vector<KernelRow>& rows) {
  net::PageHeader header;
  header.job_id = 1;
  header.model = "smote";
  header.end = page.num_rows();
  const double n = static_cast<double>(page.num_rows());
  std::size_t sink = 0;
  const double json_s = best_seconds(sc.reps, [&] {
    const std::string body = net::encode_json_page(header, page);
    sink += net::decode_json_page(util::parse_json(body)).rows.num_rows();
  });
  rows.push_back({"page_json", backend, json_s, n / json_s, "rows_per_sec"});
  const double colblock_s = best_seconds(sc.reps, [&] {
    const std::string body = net::encode_colblock_page(header, page);
    sink += net::decode_colblock_page(body).rows.num_rows();
  });
  rows.push_back(
      {"page_colblock", backend, colblock_s, n / colblock_s, "rows_per_sec"});
  (void)sink;
}

/// All kernel scenarios under the currently forced backend.
std::vector<KernelRow> run_kernels(const Scenario& sc,
                                   const std::string& backend) {
  std::vector<KernelRow> rows;
  const simd::Kernels& kern = simd::kernels();

  {  // blocked GEMM through the ops layer (what the NN engine calls)
    const auto a = random_matrix(sc.gemm_n, sc.gemm_n, 1);
    const auto b = random_matrix(sc.gemm_n, sc.gemm_n, 2);
    linalg::Matrix out;
    const double s =
        best_seconds(sc.reps, [&] { linalg::gemm(a, b, out); });
    const double flops = 2.0 * static_cast<double>(sc.gemm_n) *
                         static_cast<double>(sc.gemm_n) *
                         static_cast<double>(sc.gemm_n);
    rows.push_back({"gemm", backend, s, flops / s / 1e9, "gflops"});
  }
  {  // the TabDDPM denoiser's three GEMMs at the service's 16-row chunk:
     // (16 x 122) x (122 x 256), (16 x 256) x (256 x 256), and
     // (16 x 256) x (256 x 90) — the perfbench corpus is 90 encoded
     // columns plus a 32-wide time embedding, hidden 256 x 256
    constexpr std::size_t kRows = 16;
    const std::size_t dims[][2] = {{122, 256}, {256, 256}, {256, 90}};
    std::vector<linalg::Matrix> as, bs, outs(3);
    double flops = 0.0;
    for (std::size_t l = 0; l < 3; ++l) {
      as.push_back(random_matrix(kRows, dims[l][0], 10 + l));
      bs.push_back(random_matrix(dims[l][0], dims[l][1], 20 + l));
      flops += 2.0 * kRows * static_cast<double>(dims[l][0] * dims[l][1]);
    }
    constexpr int kPasses = 64;  // one pass is a few microseconds
    const double s = best_seconds(sc.reps, [&] {
      for (int pass = 0; pass < kPasses; ++pass) {
        for (std::size_t l = 0; l < 3; ++l) {
          linalg::gemm(as[l], bs[l], outs[l]);
        }
      }
    }) / kPasses;
    rows.push_back({"gemm_m16", backend, s, flops / s / 1e9, "gflops"});
  }
  {  // row softmax (attention/classifier head shape)
    auto m = random_matrix(sc.softmax_rows, sc.softmax_cols, 3);
    const auto pristine = m;
    const double s = best_seconds(sc.reps, [&] {
      m = pristine;
      linalg::softmax_rows(m, 0, sc.softmax_cols);
    });
    rows.push_back({"softmax_rows", backend, s,
                    static_cast<double>(sc.softmax_rows) / s, "rows_per_sec"});
  }
  {  // axpy (optimizer update shape)
    util::Rng rng(4);
    std::vector<float> x(sc.vec_n), y(sc.vec_n);
    for (auto& v : x) v = static_cast<float>(rng.normal());
    for (auto& v : y) v = static_cast<float>(rng.normal());
    const double s = best_seconds(sc.reps, [&] {
      kern.axpy_f32(1e-4f, x.data(), y.data(), sc.vec_n);
    });
    rows.push_back({"axpy", backend, s,
                    static_cast<double>(sc.vec_n) / s, "elems_per_sec"});
  }
  {  // SiLU (the TabDDPM denoiser's activation)
    const auto x = random_matrix(1, sc.vec_n, 9);
    std::vector<float> y(sc.vec_n);
    const double s = best_seconds(sc.reps, [&] {
      kern.silu_f32(x.data(), y.data(), sc.vec_n);
    });
    rows.push_back({"silu", backend, s,
                    static_cast<double>(sc.vec_n) / s, "elems_per_sec"});
  }
  {  // squared-L2 distances (k-NN / DCR inner loop)
    const auto data = random_matrix(sc.l2_rows, sc.l2_dim, 5);
    const auto q = random_matrix(1, sc.l2_dim, 6);
    float sink = 0.0f;
    const double s = best_seconds(sc.reps, [&] {
      float acc = 0.0f;
      for (std::size_t i = 0; i < sc.l2_rows; ++i) {
        acc += kern.sq_l2_f32(data.row(i).data(), q.row(0).data(), sc.l2_dim);
      }
      sink = acc;
    });
    (void)sink;
    rows.push_back({"sq_l2", backend, s,
                    static_cast<double>(sc.l2_rows * sc.l2_dim) / s,
                    "elems_per_sec"});
  }
  {  // quantile-grid interpolation (preprocessing inverse transform)
    util::Rng rng(7);
    std::vector<double> grid(1000);
    double acc = 0.0;
    for (auto& g : grid) g = (acc += rng.uniform());
    std::vector<double> p(sc.vec_n), out(sc.vec_n);
    for (auto& v : p) v = rng.uniform();
    const double s = best_seconds(sc.reps, [&] {
      kern.interp_grid_f64(grid.data(), grid.size(), p.data(), out.data(),
                           sc.vec_n);
    });
    rows.push_back({"interp_grid", backend, s,
                    static_cast<double>(sc.vec_n) / s, "elems_per_sec"});
  }
  {  // Jensen–Shannon accumulation (fidelity metrics)
    util::Rng rng(8);
    std::vector<double> p(sc.vec_n), q(sc.vec_n);
    double ps = 0.0, qs = 0.0;
    for (auto& v : p) ps += (v = rng.uniform());
    for (auto& v : q) qs += (v = rng.uniform());
    for (auto& v : p) v /= ps;
    for (auto& v : q) v /= qs;
    double sink = 0.0;
    const double s = best_seconds(sc.reps, [&] {
      sink = kern.jsd_acc_f64(p.data(), q.data(), sc.vec_n);
    });
    (void)sink;
    rows.push_back({"jsd_acc", backend, s,
                    static_cast<double>(sc.vec_n) / s, "elems_per_sec"});
  }
  return rows;
}

struct ModelRow {
  std::string key;
  std::string backend;
  double fit_seconds = 0.0;
  double sample_rows_per_sec = 0.0;
  bool deterministic_across_threads = false;
};

ModelRow run_model(const std::string& key, const std::string& backend,
                   const Scenario& sc, const tabular::Table& train) {
  ModelRow row;
  row.key = key;
  row.backend = backend;
  auto model = models::make_generator(key, sc.budget, 7);
  const auto t0 = Clock::now();
  model->fit(train);
  row.fit_seconds = seconds_since(t0);

  models::SampleRequest req;
  req.rows = sc.sample_rows;
  req.seed = 99;
  req.chunk_rows = 1024;
  req.threads = 4;
  tabular::Table out4;
  const auto t1 = Clock::now();
  model->sample_into(out4, req);
  row.sample_rows_per_sec =
      static_cast<double>(sc.sample_rows) / seconds_since(t1);

  req.threads = 1;
  tabular::Table out1;
  model->sample_into(out1, req);
  row.deterministic_across_threads =
      serve::hash_table(out1) == serve::hash_table(out4);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, bench::Profile::kQuick);
  const auto sc = scenario_for(opts.profile);
  const std::string json_path = opts.json_out.empty()
                                    ? opts.out_dir + "/BENCH_kernels.json"
                                    : opts.json_out;

  const simd::Backend startup = simd::active_backend();
  const auto backends = simd::available_backends();
  const char* gemm_tile = simd::gemm_tile_name(startup);
  std::printf("perf_kernels: profile=%s active=%s gemm_tile=%s\n",
              bench::profile_name(opts.profile), simd::backend_name(startup),
              gemm_tile);

  const auto train = pinned_table(sc.fit_rows);
  const auto panda = panda_train();
  const auto page = smote_page_rows(panda);
  const auto ddpm_model = panda_tabddpm(panda);
  const auto& ddpm = dynamic_cast<const models::TabDdpm&>(*ddpm_model);
  const auto model_keys = models::GeneratorRegistry::instance().keys();

  std::vector<KernelRow> kernel_rows;
  std::vector<ModelRow> model_rows;
  double gemm_gflops_scalar = 0.0;
  double gemm_gflops_active = 0.0;
  for (const simd::Backend b : backends) {
    simd::force_backend(b);
    const std::string name = simd::backend_name(b);
    std::printf("-- backend %s: kernels\n", name.c_str());
    auto rows = run_kernels(sc, name);
    run_page_codecs(sc, name, page, rows);
    run_ddpm_stages(sc, name, ddpm, rows);
    for (const auto& r : rows) {
      std::printf("   %-19s %10.3f %s", r.name.c_str(), r.throughput,
                  r.unit.c_str());
      if (r.unit == "steps_per_sec") {
        std::printf(" (%.1f us per 16-row step)", r.seconds * 1e6);
      }
      std::printf("\n");
      if (r.name == "gemm") {
        if (b == simd::Backend::kScalar) gemm_gflops_scalar = r.throughput;
        if (b == startup) gemm_gflops_active = r.throughput;
      }
    }
    kernel_rows.insert(kernel_rows.end(), rows.begin(), rows.end());
    for (const auto& key : model_keys) {
      std::printf("-- backend %s: model %s\n", name.c_str(), key.c_str());
      model_rows.push_back(run_model(key, name, sc, train));
    }
  }
  simd::force_backend(startup);

  const double speedup = gemm_gflops_scalar > 0.0
                             ? gemm_gflops_active / gemm_gflops_scalar
                             : 1.0;
  bool determinism_ok = true;
  for (const auto& m : model_rows) {
    determinism_ok = determinism_ok && m.deterministic_across_threads;
  }

  util::JsonWriter w;
  w.begin_object();
  w.kv("kind", "bench_kernels");
  w.kv("schema_version", 1);
  w.kv("profile", bench::profile_name(opts.profile));
  w.kv("active_backend", simd::backend_name(startup));
  w.kv("gemm_tile", gemm_tile);
  w.key("available_backends").begin_array();
  for (const simd::Backend b : backends) w.value(simd::backend_name(b));
  w.end_array();
  w.kv("gemm_speedup_vs_scalar", speedup);
  w.kv("determinism_ok", determinism_ok);
  w.key("kernels").begin_array();
  for (const auto& r : kernel_rows) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("backend", r.backend);
    w.kv("seconds", r.seconds);
    w.kv("throughput", r.throughput);
    w.kv("unit", r.unit);
    w.end_object();
  }
  w.end_array();
  w.key("models").begin_array();
  for (const auto& m : model_rows) {
    w.begin_object();
    w.kv("key", m.key);
    w.kv("backend", m.backend);
    w.kv("fit_seconds", m.fit_seconds);
    w.kv("sample_rows_per_sec", m.sample_rows_per_sec);
    w.kv("deterministic_across_threads", m.deterministic_across_threads);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  bench::write_text_file(json_path, w.str() + "\n");

  std::printf("gemm speedup vs scalar: %.2fx; determinism %s\n", speedup,
              determinism_ok ? "ok" : "FAILED");
  if (!determinism_ok) {
    std::fprintf(stderr,
                 "error: sampled bytes differ across thread counts\n");
    return 1;
  }
  return 0;
}
