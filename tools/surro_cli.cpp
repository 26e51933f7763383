// surro_cli — command-line front end for the surro library.
//
//   surro_cli models
//   surro_cli generate     --days 30 --rate 240 --seed 42 --out jobs.csv
//   surro_cli profile      --data jobs.csv
//   surro_cli synthesize   --data jobs.csv --model tabddpm --rows 5000
//                          --epochs 30 --seed 7 --threads 4 --out synth.csv
//   surro_cli save-model   --data jobs.csv --model tabddpm --epochs 30
//                          --seed 7 --out model.bin
//   surro_cli sample-model --model-file model.bin --rows 100000 --seed 9
//                          --threads 8 --out synth.csv
//   surro_cli evaluate     --real jobs.csv --synth synth.csv
//   surro_cli simulate     --data jobs.csv --policy hybrid
//   surro_cli twin         --data jobs.csv --model smote --rows 2000
//                          --policies "random,locality,least-loaded,hybrid"
//                          --scenarios "none,outage,burst,storm"
//                          --drifts none --json-out twin_matrix.json
//   surro_cli matrix       --axes "days=10,21;anomaly=0,0.05;rows=1000"
//                          --json-out matrix.json --threads 4 --epochs 12
//   surro_cli stream       --axes "stride=1,7;drift=none,mean_shift;
//                          refresh=cold,warm;models=smote,tvae"
//                          --window 7 --json-out stream.json
//   surro_cli serve        --models "smote=model.bin" --script reqs.jsonl
//                          --clients 4 --capacity 2 --admission reject
//                          --max-queue 8 --json-out serve.json
//   surro_cli serve        --models "smote=model.bin" --listen 8080
//                          --api-keys-file keys.txt --quota-rps 50
//                          --max-body-bytes 1048576 --http-workers 8
//   surro_cli request      --connect 127.0.0.1:8080 --method POST
//                          --path /v1/sample --body '{"model":"smote",...}'
//                          --key prod-1 --expect-status 202
//   surro_cli soak         --models "smote=model.bin" --load "0.5,1,2,4"
//                          --clients 4 --rows 1000 --duration 2
//                          --admission reject --max-queue 4
//                          --json-out soak.json [--over-socket]
//
// Tables are CSV files with the paper's 9-column schema (see
// panda::job_table_schema). Models are addressed by registry key; `models`
// lists everything that self-registered. `save-model` trains once and
// persists the fitted state; `sample-model` reloads it and synthesizes —
// chunked, parallel (--threads), and bitwise-identical for any thread
// count. `matrix` expands the --axes grid into scenarios (collection-window
// days × anomaly fraction × synthetic-row scale × model set), evaluates
// every scenario × model cell with concurrent scoring, and writes the JSON
// artifact CI archives. `stream` does the same for the streaming workload:
// its axes are window stride, drift family, and refresh regime (cold refit
// vs warm delta refresh), and its JSON carries per-window fidelity decay
// curves plus refresh timings. `serve` stands up the serving layer — a
// ShardPool of ModelHost LRU caches over saved archives, each with its
// batching SampleService (one shard unless --shards says more) — replays
// a request script against it from N concurrent clients, and writes the
// serve_stats JSON artifact; --admission/--max-queue/
// --max-queued-rows bound the admission queue (block, reject, or shed on
// overflow). With --listen, `serve` instead exposes the service as the
// HTTP/1.1 REST API (src/net) — POST /v1/sample, paginated
// GET /v1/jobs/{id}, DELETE for cancel, /v1/models, /v1/stats, /healthz —
// with optional API keys and token-bucket quotas; `request` is the
// matching command-line HTTP client. `soak` drives the bounded service
// with Poisson-arrival clients at a sweep of offered-load multipliers and
// verifies the overload SLOs plus per-job output determinism (serve_soak
// artifact); --over-socket runs the same sweep through the HTTP front end
// so the SLOs and the determinism digest are asserted over the wire.
// `twin` closes the loop the paper motivates: it trains a surrogate on the
// real stream, samples a synthetic twin stream, and runs BOTH through the
// cluster simulator under every (disruption scenario × drift family) cell
// and every allocation policy — scoring decision fidelity (would the
// surrogate have picked the same policy?) next to the per-policy outcome
// gap, and writing the twin_matrix JSON artifact with a thread-count-
// invariant outcome digest. --via-service samples through the serving
// tier's SampleBackend instead of the model directly (same bytes — the
// serving determinism contract is part of the loop).
// See docs/CLI.md for the full reference.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include <unistd.h>

#include "core/surro.hpp"
#include "eval/scenario.hpp"
#include "linalg/simd.hpp"
#include "net/client.hpp"
#include "net/rest.hpp"
#include "serve/worker_fleet.hpp"
#include "stream/stream_eval.hpp"
#include "twin/twin.hpp"
#include "util/logging.hpp"
#include "util/stringx.hpp"

namespace {

using namespace surro;

struct Args {
  std::map<std::string, std::string> kv;  // --key value
  std::set<std::string> bare;             // --flag with no value
  [[nodiscard]] bool has(const std::string& key) const {
    return kv.contains(key) || bare.contains(key);
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : std::stod(it->second);
  }
  /// Bare boolean flag (--verbose) or explicit --verbose true/false.
  [[nodiscard]] bool flag(const std::string& key) const {
    if (bare.contains(key)) return true;
    const auto it = kv.find(key);
    if (it == kv.end()) return false;
    return it->second != "false" && it->second != "0";
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const std::string key = argv[i] + 2;
    // A flag is boolean when it is the last token or the next token is
    // itself a --flag; otherwise it consumes the next token as its value.
    // (Values may start with a single '-': negative numbers still work.)
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.kv[key] = argv[i + 1];
      ++i;
    } else {
      args.bare.insert(key);
    }
  }
  return args;
}

std::string model_list() {
  std::string out;
  for (const auto& key : models::GeneratorRegistry::instance().keys()) {
    if (!out.empty()) out += "|";
    out += key;
  }
  return out;
}

int usage() {
  const std::string keys = model_list();
  std::fprintf(
      stderr,
      "usage: surro_cli <command> [--key value ...] [--flag]\n"
      "global: every command accepts --simd {auto|scalar|avx2|neon} to pin\n"
      "        the kernel backend (same names as SURRO_SIMD env var;\n"
      "        see docs/PERFORMANCE.md)\n"
      "  version               print version and active SIMD backend\n"
      "  models                list registered surrogate models\n"
      "  generate     --days D --rate R --seed S --out FILE\n"
      "  profile      --data FILE\n"
      "  synthesize   --data FILE --model {%s}\n"
      "               --rows N --epochs E --seed S --threads T --out FILE\n"
      "  save-model   --data FILE --model {%s}\n"
      "               --epochs E --seed S --out FILE [--verbose]\n"
      "  sample-model --model-file FILE --rows N --seed S --threads T\n"
      "               --chunk-rows C --out FILE\n"
      "  evaluate     --real FILE --synth FILE\n"
      "  simulate     --data FILE --policy {random|locality|least|hybrid}\n"
      "  twin         --data FILE | --days D --rate R\n"
      "               --model {%s}\n"
      "               --rows N --epochs E --seed S\n"
      "               --policies \"random,locality,least-loaded,"
      "hybrid[:T]\"\n"
      "               --scenarios \"none,outage,burst,storm\"\n"
      "               --drifts \"none,mean_shift,...\" --intensity I\n"
      "               --outage-sites K --capacity-scale C --threads T\n"
      "               --json-out FILE [--serial] [--via-service] "
      "[--verbose]\n"
      "  matrix       --axes \"days=D1,D2;anomaly=F1,F2;rows=N1,N2;"
      "models=K1,K2\"\n"
      "               --json-out FILE --threads T --epochs E --seed S\n"
      "               [--serial-score] [--verbose]\n"
      "  stream       --axes \"stride=S1,S2;drift=none,mean_shift;"
      "refresh=cold,warm;models=K1,K2\"\n"
      "               --window W --days D --rows N --intensity I\n"
      "               --json-out FILE --threads T --epochs E --seed S\n"
      "               [--score-dcr] [--serial-score] [--verbose]\n"
      "  serve        --models \"K1=FILE;K2=FILE\" | --models-dir DIR\n"
      "               --script FILE.jsonl | --requests "
      "\"model=K,rows=N,seed=S,repeat=R;...\"\n"
      "               --clients C --rounds R --capacity N --threads T\n"
      "               --chunk-rows C --max-batch B\n"
      "               --admission {block|reject|shed} --max-queue D\n"
      "               --max-queued-rows R --json-out FILE [--verbose]\n"
      "               [--shards N] [--replicas R] [--shard-ttl-ms MS]\n"
      "               [--remote-shards HOST:PORT,...]\n"
      "               HTTP mode: --listen PORT (0 = ephemeral)\n"
      "               [--api-keys-file FILE] [--quota-rps R] "
      "[--quota-burst B]\n"
      "               [--max-body-bytes N] [--page-rows N] "
      "[--http-workers T]\n"
      "               [--serve-seconds S] [--self-probe]\n"
      "               Worker mode: --worker [--port-file FILE]\n"
      "               (single-shard HTTP leaf on an ephemeral port;\n"
      "               SIGTERM drains in-flight jobs and exits 0)\n"
      "  request      --connect HOST:PORT --path /v1/... [--method M]\n"
      "               [--body JSON | --body-file FILE] [--key APIKEY]\n"
      "               [--expect-status CODE] [--max-time S]\n"
      "  soak         --models \"K1=FILE;K2=FILE\" | --models-dir DIR\n"
      "               --load \"0.5,1,2,4\" --clients C --rows N\n"
      "               --duration SECONDS --streams K --deadline-ms D\n"
      "               --admission {block|reject|shed} --max-queue D\n"
      "               --max-queued-rows R --capacity N --threads T\n"
      "               --chunk-rows C --max-batch B --seed S\n"
      "               --json-out FILE [--verbose] [--over-socket]\n"
      "               [--http-workers T] [--page-rows N] "
      "[--poll-wait-ms MS]\n"
      "               [--shards N] [--replicas R] [--shard-ttl-ms MS]\n"
      "               [--remote-shards HOST:PORT,...]\n"
      "  fleet        --workers N --models \"K1=FILE;...\" | "
      "--models-dir DIR\n"
      "               [--local-shards N] [--replicas R] [--rows N]\n"
      "               [--seed S] [--chunk-rows C] [--cli PATH]\n"
      "               (spawn N worker processes, probe mixed-pool\n"
      "               determinism vs in-process, tear down gracefully)\n",
      keys.c_str(), keys.c_str(), keys.c_str());
  return 2;
}

/// Validated registry lookup (keeps error messages uniform).
const models::GeneratorInfo& model_info_or_throw(const std::string& key) {
  auto& registry = models::GeneratorRegistry::instance();
  if (!registry.contains(key)) {
    throw std::invalid_argument("unknown model '" + key + "' (have: " +
                                model_list() + ")");
  }
  return registry.info(key);
}

int cmd_models(const Args& /*args*/) {
  auto& registry = models::GeneratorRegistry::instance();
  std::printf("%-10s %-10s %s\n", "key", "name", "description");
  for (const auto& key : registry.keys()) {
    const auto& info = registry.info(key);
    std::printf("%-10s %-10s %s\n", info.key.c_str(),
                info.display_name.c_str(), info.description.c_str());
  }
  return 0;
}

int cmd_generate(const Args& args) {
  panda::GeneratorConfig cfg;
  cfg.model.days = args.num("days", 30.0);
  cfg.model.base_jobs_per_day = args.num("rate", 240.0);
  cfg.seed = static_cast<std::uint64_t>(args.num("seed", 42.0));
  panda::RecordGenerator gen(cfg);
  panda::FilterFunnel funnel;
  const auto table = panda::build_job_table(gen.generate(), gen.catalog(),
                                            &funnel);
  for (const auto& line : funnel.describe()) {
    std::printf("%s\n", line.c_str());
  }
  const std::string out = args.get("out", "jobs.csv");
  tabular::write_csv(table, out);
  std::printf("wrote %s (%zu rows)\n", out.c_str(), table.num_rows());
  return 0;
}

int cmd_profile(const Args& args) {
  const auto table = tabular::read_csv(panda::job_table_schema(),
                                       args.get("data", "jobs.csv"));
  for (const auto& line : tabular::profile_lines(table)) {
    std::printf("%s\n", line.c_str());
  }
  return 0;
}

/// Shared by synthesize / save-model: load data, train the chosen model.
std::unique_ptr<models::TabularGenerator> train_from_args(
    const Args& args, tabular::Table* table_out = nullptr) {
  const auto table = tabular::read_csv(panda::job_table_schema(),
                                       args.get("data", "jobs.csv"));
  models::TrainBudget budget;
  budget.epochs = static_cast<std::size_t>(args.num("epochs", 30.0));
  budget.log_every_epochs = args.flag("verbose") ? 1 : 5;
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 7.0));
  const std::string key = args.get("model", "tabddpm");
  (void)model_info_or_throw(key);
  auto model = models::make_generator(key, budget, seed);
  std::printf("training %s on %zu rows...\n", model->name().c_str(),
              table.num_rows());
  model->fit(table);
  if (table_out != nullptr) *table_out = table;
  return model;
}

/// Shared by synthesize / sample-model: chunked parallel synthesis + CSV.
int sample_to_csv(models::TabularGenerator& model, const Args& args,
                  std::size_t default_rows) {
  models::SampleRequest request;
  request.rows = static_cast<std::size_t>(
      args.num("rows", static_cast<double>(default_rows)));
  request.seed = static_cast<std::uint64_t>(args.num("seed", 7.0)) ^
                 0xFEEDULL;
  request.threads = static_cast<std::size_t>(args.num("threads", 1.0));
  request.chunk_rows =
      static_cast<std::size_t>(args.num("chunk-rows", 4096.0));
  if (args.flag("verbose")) {
    request.on_progress = [](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "\r  sampled %zu/%zu rows", done, total);
      if (done == total) std::fprintf(stderr, "\n");
    };
  }
  tabular::Table synth;
  model.sample_into(synth, request);
  const std::string out = args.get("out", "synth.csv");
  tabular::write_csv(synth, out);
  std::printf("wrote %s (%zu rows)\n", out.c_str(), synth.num_rows());
  return 0;
}

int cmd_synthesize(const Args& args) {
  tabular::Table table;
  auto model = train_from_args(args, &table);
  return sample_to_csv(*model, args, table.num_rows());
}

int cmd_save_model(const Args& args) {
  auto model = train_from_args(args);
  const std::string out = args.get("out", "model.bin");
  models::save_model_file(*model, out);
  std::printf("wrote %s (%s, fitted)\n", out.c_str(),
              model->name().c_str());
  return 0;
}

int cmd_sample_model(const Args& args) {
  const std::string path = args.get("model-file", "model.bin");
  auto model = models::load_model_file(path);
  std::printf("loaded %s from %s\n", model->name().c_str(), path.c_str());
  return sample_to_csv(*model, args, 1000);
}

int cmd_evaluate(const Args& args) {
  const auto schema = panda::job_table_schema();
  const auto real = tabular::read_csv(schema, args.get("real", "jobs.csv"));
  const auto synth =
      tabular::read_csv(schema, args.get("synth", "synth.csv"));

  util::Rng rng(99);
  const auto split = tabular::train_test_split(real, 0.8, rng);

  metrics::ModelScore score;
  score.model = "synthetic";
  score.wd = metrics::mean_wasserstein(split.train, synth);
  score.jsd = metrics::mean_jsd(split.train, synth);
  score.diff_corr = metrics::diff_corr(split.train, synth);
  metrics::DcrConfig dcr;
  dcr.max_train_rows = 8000;
  dcr.max_synth_rows = 4000;
  score.dcr = metrics::mean_dcr(split.train, synth, dcr);
  metrics::MlefConfig mlef;
  const double train_mse = metrics::mlef_mse(split.train, split.test, mlef);
  score.diff_mlef =
      metrics::diff_mlef(metrics::mlef_mse(synth, split.test, mlef),
                         train_mse);
  std::printf("%s\n", metrics::render_table1({score}).c_str());
  return 0;
}

/// Parse the --axes grid: ';'-separated axes, each "name=v1,v2,...".
/// Axis names: days (collection-window size), anomaly (injected fraction),
/// rows (synthetic rows per model), models (registry keys).
eval::ScenarioAxes parse_axes(const std::string& spec) {
  eval::ScenarioAxes axes;
  if (spec.empty()) return axes;
  for (const auto axis : util::split(spec, ';')) {
    const auto trimmed = util::trim(axis);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("bad axis '" + std::string(trimmed) +
                                  "' (want name=v1,v2,...)");
    }
    const auto name = util::trim(trimmed.substr(0, eq));
    for (const auto raw : util::split(trimmed.substr(eq + 1), ',')) {
      const auto value = util::trim(raw);
      if (value.empty()) continue;
      double num = 0.0;
      if (name != "models" &&
          (!util::parse_double(value, num) || num < 0.0)) {
        throw std::invalid_argument("bad value '" + std::string(value) +
                                    "' for axis '" + std::string(name) + "'");
      }
      if (name == "days") {
        axes.window_days.push_back(num);
      } else if (name == "anomaly") {
        axes.anomaly_fractions.push_back(num);
      } else if (name == "rows") {
        axes.synth_rows.push_back(static_cast<std::size_t>(num));
      } else if (name == "models") {
        axes.model_keys.emplace_back(value);
      } else {
        throw std::invalid_argument(
            "unknown axis '" + std::string(name) +
            "' (have: days, anomaly, rows, models)");
      }
    }
  }
  return axes;
}

int cmd_matrix(const Args& args) {
  // Base operating point: the quick experiment profile (the CI smoke
  // config), with the load-bearing knobs overridable from the command line.
  auto cfg = eval::quick_experiment_config();
  cfg.budget.epochs =
      static_cast<std::size_t>(args.num("epochs",
                                        static_cast<double>(cfg.budget.epochs)));
  cfg.seed = static_cast<std::uint64_t>(args.num("seed", 42.0));
  const auto threads =
      static_cast<std::size_t>(args.num("threads", 0.0));
  cfg.sample_threads = threads;
  cfg.metric_threads = threads;
  cfg.verbose = args.flag("verbose");

  const auto axes = parse_axes(args.get("axes"));
  for (const auto& key : axes.model_keys) (void)model_info_or_throw(key);

  eval::ScenarioMatrixOptions opts;
  opts.concurrent_scoring = !args.flag("serial-score");
  opts.verbose = cfg.verbose;

  const auto result = eval::run_scenario_matrix(cfg, axes, opts);
  std::printf("matrix: %zu scenarios x %zu models\n", result.runs.size(),
              result.model_keys.size());
  std::printf("%s", eval::render_matrix(result).c_str());
  std::printf("total wall-clock: %.1fs\n", result.wall_seconds);

  const std::string out = args.get("json-out", "matrix_results.json");
  std::ofstream file(out, std::ios::binary);
  if (!file) {
    throw std::runtime_error("cannot write " + out);
  }
  file << eval::matrix_to_json(cfg, result) << '\n';
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

/// Parse the stream --axes grid: ';'-separated axes, each "name=v1,v2,...".
/// Axis names: stride (days between windows), drift (scenario family),
/// refresh (cold|warm), models (registry keys).
stream::StreamAxes parse_stream_axes(const std::string& spec) {
  stream::StreamAxes axes;
  if (spec.empty()) return axes;
  for (const auto axis : util::split(spec, ';')) {
    const auto trimmed = util::trim(axis);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("bad axis '" + std::string(trimmed) +
                                  "' (want name=v1,v2,...)");
    }
    const auto name = util::trim(trimmed.substr(0, eq));
    for (const auto raw : util::split(trimmed.substr(eq + 1), ',')) {
      const auto value = util::trim(raw);
      if (value.empty()) continue;
      if (name == "stride") {
        double num = 0.0;
        if (!util::parse_double(value, num) || !(num > 0.0)) {
          throw std::invalid_argument("bad value '" + std::string(value) +
                                      "' for axis 'stride'");
        }
        axes.stride_days.push_back(num);
      } else if (name == "drift") {
        axes.drifts.push_back(stream::parse_drift_kind(value));
      } else if (name == "refresh") {
        axes.refresh.push_back(stream::parse_refresh_mode(value));
      } else if (name == "models") {
        axes.model_keys.emplace_back(value);
      } else {
        throw std::invalid_argument(
            "unknown axis '" + std::string(name) +
            "' (have: stride, drift, refresh, models)");
      }
    }
  }
  return axes;
}

int cmd_stream(const Args& args) {
  // Base operating point: the quick experiment profile, with the stream's
  // load-bearing knobs overridable from the command line.
  auto cfg = eval::quick_experiment_config();
  cfg.budget.epochs = static_cast<std::size_t>(
      args.num("epochs", static_cast<double>(cfg.budget.epochs)));
  cfg.data.model.days = args.num("days", cfg.data.model.days);
  cfg.seed = static_cast<std::uint64_t>(args.num("seed", 42.0));
  const auto threads = static_cast<std::size_t>(args.num("threads", 0.0));
  cfg.sample_threads = threads;
  cfg.metric_threads = threads;
  cfg.verbose = args.flag("verbose");

  stream::StreamOptions opts;
  opts.window_days = args.num("window", 7.0);
  opts.drift_intensity = args.num("intensity", opts.drift_intensity);
  opts.synth_rows = static_cast<std::size_t>(args.num("rows", 1000.0));
  opts.score_dcr = args.flag("score-dcr");
  opts.concurrent_scoring = !args.flag("serial-score");
  opts.verbose = cfg.verbose;

  const auto axes = parse_stream_axes(args.get("axes"));
  for (const auto& key : axes.model_keys) (void)model_info_or_throw(key);

  const auto result = stream::run_stream_matrix(cfg, axes, opts);
  std::printf("stream: %zu scenarios x %zu models over %zu source rows\n",
              result.runs.size(), result.model_keys.size(),
              result.source_rows);
  std::printf("%s", stream::render_stream(result).c_str());
  std::printf("total wall-clock: %.1fs\n", result.wall_seconds);

  const std::string out = args.get("json-out", "stream_results.json");
  std::ofstream file(out, std::ios::binary);
  if (!file) {
    throw std::runtime_error("cannot write " + out);
  }
  file << stream::stream_to_json(cfg, opts, result) << '\n';
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

/// Register the serve model pool: --models "key=path;key=path" and/or
/// --models-dir DIR (every *.bin file, keyed by its stem, sorted).
void register_serve_models(serve::ModelHost& host, const Args& args) {
  const std::string models_spec = args.get("models");  // split() keeps views
  for (const auto raw : util::split(models_spec, ';')) {
    const auto entry = util::trim(raw);
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("bad --models entry '" +
                                  std::string(entry) +
                                  "' (want key=archive.bin)");
    }
    host.register_archive(std::string(util::trim(entry.substr(0, eq))),
                          std::string(util::trim(entry.substr(eq + 1))));
  }
  if (args.has("models-dir")) {
    const std::filesystem::path dir = args.get("models-dir");
    std::vector<std::filesystem::path> archives;
    for (const auto& file : std::filesystem::directory_iterator(dir)) {
      if (file.is_regular_file() && file.path().extension() == ".bin") {
        archives.push_back(file.path());
      }
    }
    std::sort(archives.begin(), archives.end());
    for (const auto& path : archives) {
      host.register_archive(path.stem().string(), path.string());
    }
  }
  if (host.keys().empty()) {
    throw std::invalid_argument(
        "serve: no models registered (use --models or --models-dir)");
  }
}

/// Range-checked count flag: a negative double → size_t cast is UB, so
/// reject bad input instead of wrapping (mirrors serve's script parser).
std::size_t count_flag(const Args& args, const std::string& key,
                       double fallback) {
  const double v = args.num(key, fallback);
  if (!(v >= 0.0) || v > 1e12) {
    throw std::invalid_argument("--" + key + " out of range");
  }
  return static_cast<std::size_t>(v);
}

/// SIGINT/SIGTERM flag for the blocking `serve --listen` mode.
std::atomic<bool> g_serve_stop{false};
void serve_signal_handler(int /*signum*/) { g_serve_stop.store(true); }

/// `serve --listen`: expose the shard pool as the HTTP REST API and run
/// until a signal, --serve-seconds elapse, or (with --self-probe) one
/// in-process round-trip across every endpoint finishes. --self-probe
/// exists so the documented example is executable: it binds an ephemeral
/// port, exercises the API end to end — including a digest comparison
/// against a direct in-process sample of the same job identity — and exits.
int cmd_serve_listen(const Args& args, serve::ShardPool& service,
                     serve::ModelHost& host) {
  const auto count = [&args](const std::string& key, double fallback) {
    return count_flag(args, key, fallback);
  };

  net::RestConfig rest_cfg;
  rest_cfg.max_body_bytes = count("max-body-bytes", 1 << 20);
  rest_cfg.quota_rps = args.num("quota-rps", 0.0);
  rest_cfg.quota_burst = args.num("quota-burst", 0.0);
  rest_cfg.page_rows = std::max<std::size_t>(count("page-rows", 1000.0), 1);

  net::ServerConfig server_cfg;
  const std::size_t port_flag = count("listen", 0.0);
  if (port_flag > 65535) {
    throw std::invalid_argument("serve: --listen port out of range");
  }
  server_cfg.port = static_cast<std::uint16_t>(port_flag);
  server_cfg.worker_threads = std::max<std::size_t>(
      count("http-workers", 8.0), 1);

  net::HttpEndpoint endpoint(service, rest_cfg, server_cfg);
  if (args.has("api-keys-file")) {
    endpoint.api.quotas().load_file(args.get("api-keys-file"));
  }
  endpoint.server.start();
  // Worker discovery: --port-file publishes the bound (possibly ephemeral)
  // port once the accept loop is live. Written before the banner so a
  // supervisor polling the file never beats the server to its own port.
  if (args.has("port-file")) {
    const std::string path = args.get("port-file");
    // Write to a temp file and rename() into place: the supervisor polling
    // the path either sees nothing or the complete "PORT\n", never a
    // partially-written prefix that parses as the wrong port.
    const std::string tmp = path + ".tmp";
    {
      std::ofstream port_file(tmp, std::ios::binary | std::ios::trunc);
      if (!port_file) {
        endpoint.server.stop();
        throw std::runtime_error("serve: cannot write --port-file " + path);
      }
      port_file << endpoint.server.port() << '\n';
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      endpoint.server.stop();
      throw std::runtime_error("serve: cannot publish --port-file " + path +
                               ": " + std::strerror(errno));
    }
  }
  if (args.flag("worker")) {
    std::printf("serve: worker ready on %s:%u — %zu models, simd %s\n",
                server_cfg.bind_address.c_str(),
                static_cast<unsigned>(endpoint.server.port()),
                host.keys().size(), linalg::simd::active_backend_name());
    std::fflush(stdout);
  }
  std::printf("serve: http on %s:%u — %zu models, %zu shard(s), %zu api "
              "keys%s, quota %.0f rps, %zu workers, simd %s\n",
              server_cfg.bind_address.c_str(),
              static_cast<unsigned>(endpoint.server.port()),
              host.keys().size(), service.shards(),
              endpoint.api.quotas().num_keys(),
              endpoint.api.quotas().open_access() ? " (open access)" : "",
              rest_cfg.quota_rps, server_cfg.worker_threads,
              linalg::simd::active_backend_name());

  if (args.flag("self-probe")) {
    // One loopback client across every endpoint; any failure throws and
    // surfaces as exit 1 via main()'s handler.
    net::ApiClient api("127.0.0.1", endpoint.server.port());
    if (!api.healthy()) throw std::runtime_error("self-probe: /healthz failed");
    const auto keys = api.models();
    if (keys.empty()) throw std::runtime_error("self-probe: no models");
    const std::size_t rows = std::max<std::size_t>(count("rows", 256.0), 1);
    const std::uint64_t seed = static_cast<std::uint64_t>(count("seed", 7.0));
    const std::size_t chunk_rows = service.config().chunk_rows;
    const std::uint64_t job = api.submit(keys.front(), rows, seed, chunk_rows);
    const net::RemoteResult remote = api.wait_result(job, rows / 3 + 1);
    // The determinism contract over the wire: the paginated pages must
    // reassemble to the exact bytes a direct in-process sample produces —
    // and with --shards, that the placement never changed the bytes.
    models::SampleRequest direct;
    direct.rows = rows;
    direct.seed = seed;
    direct.chunk_rows = chunk_rows;
    tabular::Table local;
    host.acquire(keys.front())->sample_into(local, direct);
    if (serve::hash_table(remote.table) != serve::hash_table(local)) {
      throw std::runtime_error("self-probe: socket digest != local digest");
    }
    (void)api.stats_json();  // and the stats document parses
    std::printf("self-probe: ok — %zu rows over %zu pages, digest %016llx "
                "matches in-process\n",
                remote.table.num_rows(), remote.pages,
                static_cast<unsigned long long>(
                    serve::hash_table(remote.table)));
    endpoint.server.stop();
    return 0;
  }

  const double serve_seconds = args.num("serve-seconds", 0.0);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  util::Stopwatch up;
  while (!g_serve_stop.load()) {
    if (serve_seconds > 0.0 && up.seconds() >= serve_seconds) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // Graceful shutdown: stop accepting new work first, then finish
  // everything already admitted — a SIGTERM'd worker never strands an
  // in-flight job, and exit 0 is the caller's proof of a clean drain
  // (WorkerFleet::shutdown asserts exactly that).
  std::printf("serve: shutting down after %.1fs — draining %zu queued "
              "job(s)\n",
              up.seconds(), service.queue_depth());
  endpoint.server.stop();
  service.drain();
  std::printf("serve: drained, exiting cleanly\n");
  return 0;
}

/// Command-line HTTP client for the REST API (the container has no curl;
/// CI and the docs drive the server with this).
int cmd_request(const Args& args) {
  const std::string connect = args.get("connect", "127.0.0.1:8080");
  const auto colon = connect.rfind(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument("request: --connect wants HOST:PORT");
  }
  const std::string host = connect.substr(0, colon);
  const std::string port_text = connect.substr(colon + 1);
  unsigned long port = 0;
  try {
    port = std::stoul(port_text);
  } catch (const std::exception&) {
    port = 0;
  }
  if (port == 0 || port > 65535) {
    throw std::invalid_argument("request: bad port in --connect");
  }

  std::string body = args.get("body");
  if (args.has("body-file")) {
    std::ifstream file(args.get("body-file"), std::ios::binary);
    if (!file) {
      throw std::runtime_error("cannot read " + args.get("body-file"));
    }
    body.assign(std::istreambuf_iterator<char>(file),
                std::istreambuf_iterator<char>());
  }
  std::map<std::string, std::string> headers;
  if (args.has("key")) headers["x-api-key"] = args.get("key");
  if (!body.empty()) headers["content-type"] = "application/json";

  net::HttpClient http(host, static_cast<std::uint16_t>(port),
                       args.num("max-time", 30.0));
  const net::HttpResponse response =
      http.request(args.get("method", body.empty() ? "GET" : "POST"),
                   args.get("path", "/healthz"), body, headers);

  // Status + headers to stderr, body to stdout, so pipelines can consume
  // the JSON directly.
  std::fprintf(stderr, "HTTP %d %s\n", response.status,
               net::status_reason(response.status));
  for (const auto& [name, value] : response.headers) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), value.c_str());
  }
  std::printf("%s\n", response.body.c_str());

  if (args.has("expect-status")) {
    return response.status ==
                   static_cast<int>(count_flag(args, "expect-status", 200.0))
               ? 0
               : 1;
  }
  return response.status >= 200 && response.status < 300 ? 0 : 1;
}

int cmd_serve(const Args& args) {
  const auto count = [&args](const std::string& key, double fallback) {
    return count_flag(args, key, fallback);
  };

  serve::HostConfig host_cfg;
  host_cfg.capacity = count("capacity", 4.0);
  serve::ModelHost host(host_cfg);
  register_serve_models(host, args);

  serve::ServiceConfig svc_cfg;
  svc_cfg.sample_threads = count("threads", 0.0);
  svc_cfg.chunk_rows = count("chunk-rows", 4096.0);
  svc_cfg.max_batch = count("max-batch", 8.0);
  svc_cfg.admission = serve::parse_admission_policy(
      args.get("admission", "block"));
  svc_cfg.max_queue_depth = count("max-queue", 0.0);
  svc_cfg.max_queued_rows = count("max-queued-rows", 0.0);

  // The backend is always a ShardPool: --shards N local shards (default 1,
  // each its own ModelHost + SampleService behind the consistent-hash
  // router), plus --remote-shards HOST:PORT,... worker *processes* as
  // shards of the same pool. The flat `host` stays the registry of record
  // — and, in --listen --self-probe, the unsharded reference the socket
  // digest is checked against, which is exactly the placement-invariance
  // contract (in-process and across processes).
  //
  // --worker pins the topology to one local shard: a worker is a leaf,
  // placement is its caller's concern.
  const bool worker = args.flag("worker");
  serve::ShardPoolConfig pool_cfg;
  pool_cfg.shards = worker ? 1 : std::max<std::size_t>(count("shards", 1.0), 1);
  pool_cfg.replication = std::max<std::size_t>(count("replicas", 1.0), 1);
  pool_cfg.host.capacity = host_cfg.capacity;
  pool_cfg.host.ttl_ms = args.num("shard-ttl-ms", 0.0);
  pool_cfg.service = svc_cfg;
  if (!worker && args.has("remote-shards")) {
    const std::string spec = args.get("remote-shards");
    for (const auto raw : util::split(spec, ',')) {
      const auto entry = util::trim(raw);
      if (entry.empty()) continue;
      pool_cfg.remotes.push_back(
          serve::parse_remote_endpoint(std::string(entry)));
    }
  }
  serve::ShardPool service(pool_cfg);
  for (const auto& key : host.keys()) {
    // Local owners load the archive by path; remote owners are verified to
    // already serve the key (their --models flags name the archives).
    service.register_archive(key, host.archive_path(key));
  }

  if (worker || args.has("listen")) {
    return cmd_serve_listen(args, service, host);
  }

  serve::ReplayScript script;
  if (args.has("script")) {
    const std::string path = args.get("script");
    std::ifstream file(path);
    if (!file) throw std::runtime_error("cannot read " + path);
    script = serve::parse_script_jsonl(file);
  } else if (args.has("requests")) {
    script = serve::parse_script_inline(args.get("requests"));
  } else {
    throw std::invalid_argument("serve: need --script or --requests");
  }

  serve::ReplayOptions opts;
  opts.clients = count("clients", 1.0);
  opts.rounds = count("rounds", 1.0);

  const auto result = serve::run_replay(service, script, opts);
  const auto& s = result.stats;
  std::printf("serve: %llu/%llu jobs completed (%llu rows) from %zu "
              "clients over %zu models, %.2fs wall, simd %s\n",
              static_cast<unsigned long long>(result.completed),
              static_cast<unsigned long long>(result.jobs),
              static_cast<unsigned long long>(result.rows), opts.clients,
              host.keys().size(), result.wall_seconds,
              linalg::simd::active_backend_name());
  std::printf("  throughput      %.0f rows/s  (%.1f jobs/s)\n",
              result.wall_seconds > 0.0
                  ? static_cast<double>(result.rows) / result.wall_seconds
                  : 0.0,
              result.wall_seconds > 0.0
                  ? static_cast<double>(result.completed) /
                        result.wall_seconds
                  : 0.0);
  std::printf("  latency         p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
              s.p50_latency_ms, s.p95_latency_ms, s.p99_latency_ms);
  if (result.rejected > 0 || result.shed > 0 ||
      result.deadline_missed > 0) {
    std::printf("  overload        %llu rejected, %llu shed, %llu "
                "deadline-missed\n",
                static_cast<unsigned long long>(result.rejected),
                static_cast<unsigned long long>(result.shed),
                static_cast<unsigned long long>(result.deadline_missed));
  }
  std::printf("  batching        %llu batches, %.2f jobs/batch\n",
              static_cast<unsigned long long>(s.batches),
              s.mean_batch_jobs);
  std::printf("  cache           %.0f%% hit rate, %llu loads, %llu "
              "evictions (capacity %zu)\n",
              s.host.hit_rate() * 100.0,
              static_cast<unsigned long long>(s.host.loads),
              static_cast<unsigned long long>(s.host.evictions),
              s.host.capacity);
  std::printf("  output hash     %016llx\n",
              static_cast<unsigned long long>(result.output_hash));
  if (result.failures > 0) {
    std::fprintf(stderr, "warning: %llu request(s) failed\n",
                 static_cast<unsigned long long>(result.failures));
  }

  const std::string out = args.get("json-out", "serve_stats.json");
  std::ofstream file(out, std::ios::binary);
  if (!file) throw std::runtime_error("cannot write " + out);
  file << serve::serve_stats_to_json(service, opts, result) << '\n';
  std::printf("wrote %s\n", out.c_str());
  return result.failures == 0 ? 0 : 1;
}

int cmd_soak(const Args& args) {
  const auto count = [&args](const std::string& key, double fallback) {
    return count_flag(args, key, fallback);
  };

  serve::HostConfig host_cfg;
  host_cfg.capacity = count("capacity", 4.0);
  serve::ModelHost host(host_cfg);
  register_serve_models(host, args);

  serve::SoakConfig soak;
  soak.models = host.keys();
  const std::string load_spec = args.get("load");  // split() keeps views
  if (args.has("load")) {
    soak.load_multipliers.clear();
    for (const auto raw : util::split(load_spec, ',')) {
      const auto value = util::trim(raw);
      if (value.empty()) continue;
      double m = 0.0;
      if (!util::parse_double(value, m) || !(m > 0.0)) {
        throw std::invalid_argument("soak: bad --load multiplier '" +
                                    std::string(value) + "'");
      }
      soak.load_multipliers.push_back(m);
    }
  }
  soak.clients = count("clients", 4.0);
  soak.rows_per_job = count("rows", 1000.0);
  soak.chunk_rows = count("chunk-rows", 1024.0);
  soak.seed_streams = count("streams", 4.0);
  // Range-checked like every count flag: a negative double → uint64 cast
  // is UB, not a wrap.
  soak.seed = static_cast<std::uint64_t>(count("seed", 42.0));
  soak.duration_seconds = args.num("duration", 2.0);
  soak.deadline_ms = args.num("deadline-ms", 0.0);
  soak.admission = serve::parse_admission_policy(
      args.get("admission", "reject"));
  soak.max_queue_depth = count("max-queue", 0.0);
  soak.max_queued_rows = count("max-queued-rows", 0.0);
  soak.sample_threads = count("threads", 0.0);
  soak.max_batch = count("max-batch", 8.0);
  soak.verbose = args.flag("verbose");
  soak.over_socket = args.flag("over-socket");
  soak.http_workers = count("http-workers", 0.0);
  soak.page_rows = count("page-rows", 0.0);
  soak.poll_wait_ms = args.num("poll-wait-ms", 250.0);
  soak.shards = std::max<std::size_t>(count("shards", 1.0), 1);
  soak.replicas = std::max<std::size_t>(count("replicas", 1.0), 1);
  soak.shard_ttl_ms = args.num("shard-ttl-ms", 0.0);
  if (args.has("remote-shards")) {
    const std::string spec = args.get("remote-shards");
    for (const auto raw : util::split(spec, ',')) {
      const auto entry = util::trim(raw);
      if (entry.empty()) continue;
      // Validate now so a typo fails before calibration, not mid-sweep.
      (void)serve::parse_remote_endpoint(std::string(entry));
      soak.remote_shards.push_back(std::string(entry));
    }
  }
  if (!(soak.duration_seconds > 0.0)) {
    throw std::invalid_argument("soak: --duration must be positive");
  }

  const auto result = serve::run_soak(host, soak);
  std::printf("soak: %zu models, capacity %.1f jobs/s, admission %s "
              "(depth %zu), transport %s\n",
              soak.models.size(), result.capacity_jobs_per_sec,
              serve::admission_policy_name(soak.admission),
              soak.effective_queue_depth(),
              soak.over_socket ? "socket" : "in-process");
  std::printf("%s", serve::render_soak(result).c_str());

  const std::string out = args.get("json-out", "serve_soak.json");
  std::ofstream file(out, std::ios::binary);
  if (!file) throw std::runtime_error("cannot write " + out);
  file << serve::soak_to_json(soak, result) << '\n';
  std::printf("wrote %s\n", out.c_str());
  return result.deterministic ? 0 : 1;
}

/// Absolute path to this binary, for fleet workers to exec (readlink on
/// /proc/self/exe; falls back to the launch name if /proc is odd).
std::string self_exe_path(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0 != nullptr ? argv0 : "surro_cli";
}

const char* g_argv0 = nullptr;  // set once in main(), read by cmd_fleet

/// `fleet`: spawn N worker processes, build a mixed local+remote ShardPool
/// over them, and machine-check the whole point of the topology — that a
/// job's bytes are identical whether it runs here or in a worker process —
/// before tearing the fleet down gracefully (workers must exit 0).
int cmd_fleet(const Args& args) {
  const auto count = [&args](const std::string& key, double fallback) {
    return count_flag(args, key, fallback);
  };

  // The reference registry: same --models/--models-dir the workers get,
  // loaded in-process for the unsharded expected digests.
  serve::HostConfig host_cfg;
  host_cfg.capacity = count("capacity", 4.0);
  serve::ModelHost host(host_cfg);
  register_serve_models(host, args);

  serve::WorkerFleetConfig fleet_cfg;
  fleet_cfg.cli_path =
      args.has("cli") ? args.get("cli") : self_exe_path(g_argv0);
  fleet_cfg.workers = std::max<std::size_t>(count("workers", 2.0), 1);
  fleet_cfg.ready_timeout_seconds = args.num("ready-timeout", 60.0);
  if (args.has("models")) {
    fleet_cfg.serve_args.push_back("--models");
    fleet_cfg.serve_args.push_back(args.get("models"));
  }
  if (args.has("models-dir")) {
    fleet_cfg.serve_args.push_back("--models-dir");
    fleet_cfg.serve_args.push_back(args.get("models-dir"));
  }
  fleet_cfg.serve_args.push_back("--capacity");
  fleet_cfg.serve_args.push_back(std::to_string(host_cfg.capacity));
  // Orphan protection: if this process dies uncleanly, workers still exit
  // on their own after the deadline instead of lingering forever.
  fleet_cfg.serve_args.push_back("--serve-seconds");
  fleet_cfg.serve_args.push_back(args.get("serve-seconds", "900"));

  serve::WorkerFleet fleet(fleet_cfg);
  fleet.start();
  std::printf("fleet: %zu worker(s) ready on ports", fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    std::printf(" %u", static_cast<unsigned>(fleet.port(i)));
  }
  std::printf(" (logs in %s)\n", fleet.scratch_dir().c_str());

  // Mixed pool: --local-shards in-process shards (0 = remote-only) plus
  // every worker as a remote shard.
  serve::ShardPoolConfig pool_cfg;
  pool_cfg.shards = count("local-shards", 1.0);
  pool_cfg.replication = std::max<std::size_t>(count("replicas", 2.0), 1);
  pool_cfg.host.capacity = host_cfg.capacity;
  pool_cfg.service.chunk_rows = count("chunk-rows", 1024.0);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    serve::RemoteShardConfig rc;
    rc.port = fleet.port(i);
    pool_cfg.remotes.push_back(rc);
  }
  serve::ShardPool pool(pool_cfg);
  for (const auto& key : host.keys()) {
    pool.register_archive(key, host.archive_path(key));
  }

  // The determinism probe: every model sampled through the mixed pool must
  // match a direct in-process sample of the same (rows, seed, chunk_rows)
  // identity bit for bit — placement (local shard, worker process, which
  // replica won the lease) never changes bytes.
  const std::size_t rows = std::max<std::size_t>(count("rows", 512.0), 1);
  const std::uint64_t seed = static_cast<std::uint64_t>(count("seed", 1234.0));
  const std::size_t chunk_rows =
      std::max<std::size_t>(count("chunk-rows", 1024.0), 1);
  bool all_ok = true;
  for (const auto& key : host.keys()) {
    serve::SampleJob job;
    job.model_key = key;
    job.rows = rows;
    job.seed = seed;
    job.chunk_rows = chunk_rows;
    const tabular::Table pooled = pool.sample(std::move(job));

    models::SampleRequest direct;
    direct.rows = rows;
    direct.seed = seed;
    direct.chunk_rows = chunk_rows;
    tabular::Table local;
    host.acquire(key)->sample_into(local, direct);

    const auto pooled_hash = serve::hash_table(pooled);
    const bool ok = pooled_hash == serve::hash_table(local);
    all_ok = all_ok && ok;
    std::printf("fleet: %-10s %zu rows, digest %016llx %s\n", key.c_str(),
                pooled.num_rows(),
                static_cast<unsigned long long>(pooled_hash),
                ok ? "== in-process" : "!= in-process (VIOLATION)");
  }
  const serve::ShardStats stats = pool.shard_stats();
  std::printf("fleet: pool %zu local + %zu remote shard(s), replication "
              "%zu — routed %llu, rerouted %llu (transport %llu)\n",
              pool.local_shards(), fleet.size(), pool_cfg.replication,
              static_cast<unsigned long long>(stats.routed),
              static_cast<unsigned long long>(stats.rerouted),
              static_cast<unsigned long long>(stats.rerouted_transport));

  const int worst = fleet.shutdown(args.num("shutdown-timeout", 20.0));
  if (worst != 0) {
    throw std::runtime_error(
        "fleet: worker exited with status " + std::to_string(worst) +
        " during graceful shutdown (see " + fleet.scratch_dir() + ")");
  }
  std::printf("fleet: %zu worker(s) shut down cleanly (exit 0)\n",
              fleet.size());
  if (!all_ok) throw std::runtime_error("fleet: determinism probe failed");
  return 0;
}

int cmd_simulate(const Args& args) {
  const auto table = tabular::read_csv(panda::job_table_schema(),
                                       args.get("data", "jobs.csv"));
  const auto catalog = panda::SiteCatalog::make_default();
  sched::SimConfig cfg;
  cfg.capacity_scale = args.num("capacity-scale", 0.0002);
  sched::ClusterSimulator sim(catalog, cfg);
  const auto jobs = sched::jobs_from_table(table, catalog, 3);

  const std::string name = args.get("policy", "hybrid");
  sched::RandomPolicy random;
  sched::DataLocalityPolicy locality;
  sched::LeastLoadedPolicy least;
  sched::HybridPolicy hybrid;
  sched::AllocationPolicy* policy = nullptr;
  if (name == "random") policy = &random;
  else if (name == "locality") policy = &locality;
  else if (name == "least") policy = &least;
  else if (name == "hybrid") policy = &hybrid;
  else throw std::invalid_argument("unknown policy '" + name + "'");

  const auto m = sim.run(jobs, *policy, 5);
  std::printf("policy %s over %zu jobs:\n", policy->name().c_str(),
              jobs.size());
  std::printf("  mean wait       %.2f h\n", m.mean_wait_hours);
  std::printf("  p95 wait        %.2f h\n", m.p95_wait_hours);
  std::printf("  utilization     %.3f\n", m.mean_utilization);
  std::printf("  data moved      %s\n",
              util::format_bytes(m.transferred_bytes).c_str());
  std::printf("  makespan        %.1f days\n", m.makespan_days);
  return 0;
}

/// Comma-separated CLI list -> trimmed entries (empty entries dropped).
std::vector<std::string> parse_list(const std::string& csv) {
  std::vector<std::string> out;
  for (const auto part : util::split(csv, ',')) {
    if (!part.empty()) out.emplace_back(part);
  }
  return out;
}

int cmd_twin(const Args& args) {
  // 1. The real stream: a CSV capture, or the PanDA record generator.
  tabular::Table real;
  if (args.kv.contains("data")) {
    real = tabular::read_csv(panda::job_table_schema(), args.get("data"));
  } else {
    panda::GeneratorConfig gcfg;
    gcfg.model.days = args.num("days", 14.0);
    gcfg.model.base_jobs_per_day = args.num("rate", 120.0);
    gcfg.seed = static_cast<std::uint64_t>(args.num("seed", 7.0));
    panda::RecordGenerator gen(gcfg);
    real = panda::build_job_table(gen.generate(), gen.catalog(), nullptr);
  }
  if (real.num_rows() == 0) {
    throw std::invalid_argument("twin: real stream is empty");
  }

  // 2. Fit the surrogate on the real stream.
  models::TrainBudget budget;
  budget.epochs = static_cast<std::size_t>(args.num("epochs", 12.0));
  budget.log_every_epochs = args.flag("verbose") ? 1 : 1000;
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 7.0));
  const std::string key = args.get("model", "smote");
  (void)model_info_or_throw(key);
  auto model = models::make_generator(key, budget, seed);
  std::printf("twin: training %s on %zu real rows...\n",
              model->name().c_str(), real.num_rows());
  model->fit(real);

  // 3. The surrogate stream — sampled directly, or through the serving
  // tier's SampleBackend (--via-service). Same bytes either way: the
  // serving determinism contract says a job's output depends only on
  // (model, rows, seed, chunk_rows).
  models::SampleRequest request;
  request.rows = static_cast<std::size_t>(
      args.num("rows", static_cast<double>(real.num_rows())));
  request.seed = seed ^ 0xFEEDULL;
  request.chunk_rows =
      static_cast<std::size_t>(args.num("chunk-rows", 4096.0));
  request.threads = static_cast<std::size_t>(args.num("threads", 0.0));
  tabular::Table synth;
  if (args.flag("via-service")) {
    serve::ModelHost host;
    host.register_fitted(key, std::shared_ptr<models::TabularGenerator>(
                                  std::move(model)));
    serve::SampleService service(host);
    synth = twin::sample_via_backend(service, key, request.rows,
                                     request.seed, request.chunk_rows);
  } else {
    model->sample_into(synth, request);
  }
  std::printf("twin: %zu synthetic rows (%s)\n", synth.num_rows(),
              args.flag("via-service") ? "via serving tier" : "direct");

  // 4. The scenario sweep.
  twin::TwinConfig cfg;
  cfg.sim.capacity_scale = args.num("capacity-scale", 0.0002);
  if (args.kv.contains("policies")) {
    cfg.policies = parse_list(args.get("policies"));
  }
  if (args.kv.contains("scenarios")) {
    cfg.disruptions.clear();
    for (const auto& name : parse_list(args.get("scenarios"))) {
      cfg.disruptions.push_back(twin::parse_disruption_kind(name));
    }
  }
  if (args.kv.contains("drifts")) {
    cfg.drifts.clear();
    for (const auto& name : parse_list(args.get("drifts"))) {
      cfg.drifts.push_back(stream::parse_drift_kind(name));
    }
  }
  cfg.disruption.intensity = args.num("intensity", 0.3);
  cfg.disruption.seed = seed;
  cfg.disruption.outage_sites =
      static_cast<std::size_t>(args.num("outage-sites", 2.0));
  cfg.drift.intensity = args.num("drift-intensity", 0.15);
  cfg.drift.seed = seed;
  cfg.bridge.seed = static_cast<std::uint64_t>(args.num("bridge-seed", 1.0));
  cfg.sim_seed = static_cast<std::uint64_t>(args.num("sim-seed", 7.0));
  cfg.threads = args.flag("serial")
                    ? 1
                    : static_cast<std::size_t>(args.num("threads", 0.0));
  cfg.verbose = args.flag("verbose");

  const auto catalog = panda::SiteCatalog::make_default();
  const twin::ScenarioTwin runner(catalog, cfg);
  const auto result = runner.run(real, synth);

  std::printf("twin matrix: %zu cells (%zu scenarios x %zu drifts), "
              "%zu policies, %.1f s\n",
              result.cells.size(), cfg.disruptions.size(),
              cfg.drifts.size(), cfg.policies.size(), result.wall_seconds);
  std::printf("%s", twin::render_twin(result).c_str());

  const std::string out = args.get("json-out", "twin_matrix.json");
  std::ofstream file(out, std::ios::binary);
  if (!file) throw std::runtime_error("cannot write " + out);
  file << twin::twin_to_json(cfg, result, key, real.num_rows(),
                             synth.num_rows())
       << '\n';
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace

int cmd_version() {
  namespace simd = linalg::simd;
  std::string available;
  for (const simd::Backend b : simd::available_backends()) {
    if (!available.empty()) available += ",";
    available += simd::backend_name(b);
  }
  std::printf("surro %s\n", kVersionString);
  std::printf("simd backend: %s, gemm tile %s (available: %s)\n",
              simd::active_backend_name(),
              simd::gemm_tile_name(simd::active_backend()),
              available.c_str());
  return 0;
}

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  g_argv0 = argv[0];
  const std::string cmd = argv[1];
  const Args args = parse_args(argc, argv, 2);
  try {
    // Global backend pin — same names as SURRO_SIMD, applied before any
    // kernel runs. A CLI flag (not an env prefix) so docs examples can
    // exercise it portably.
    if (args.kv.contains("simd")) {
      linalg::simd::force_backend(
          linalg::simd::parse_backend(args.get("simd")));
    }
    if (cmd == "version" || cmd == "--version") return cmd_version();
    if (cmd == "models") return cmd_models(args);
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "profile") return cmd_profile(args);
    if (cmd == "synthesize") return cmd_synthesize(args);
    if (cmd == "save-model") return cmd_save_model(args);
    if (cmd == "sample-model") return cmd_sample_model(args);
    if (cmd == "evaluate") return cmd_evaluate(args);
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "twin") return cmd_twin(args);
    if (cmd == "matrix") return cmd_matrix(args);
    if (cmd == "stream") return cmd_stream(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "request") return cmd_request(args);
    if (cmd == "soak") return cmd_soak(args);
    if (cmd == "fleet") return cmd_fleet(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
