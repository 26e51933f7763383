// Surrogate Model API v2: registry lookup/enumeration, fitted-model
// persistence (save -> load -> sample round trips), chunked parallel
// sampling equivalence, and fit progress/cancellation — for all four
// built-in models.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "models/generator.hpp"
#include "models/tvae.hpp"
#include "util/rng.hpp"

namespace surro::models {
namespace {

// Tiny mixed table with clear structure (mirrors test_models.cpp).
tabular::Table cluster_table(std::size_t n, std::uint64_t seed) {
  tabular::Schema schema({{"x", tabular::ColumnKind::kNumerical},
                          {"site", tabular::ColumnKind::kCategorical},
                          {"y", tabular::ColumnKind::kNumerical},
                          {"status", tabular::ColumnKind::kCategorical}});
  tabular::Table t(schema);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool cluster_a = rng.bernoulli(0.65);
    auto row = t.make_row();
    if (cluster_a) {
      row.set(0, rng.normal(0.0, 0.4));
      row.set(1, std::string(rng.bernoulli(0.9) ? "BNL" : "CERN"));
      row.set(2, rng.normal(-2.0, 0.3));
      row.set(3, std::string(rng.bernoulli(0.85) ? "finished" : "failed"));
    } else {
      row.set(0, rng.normal(5.0, 0.4));
      row.set(1, std::string(rng.bernoulli(0.8) ? "RAL" : "CERN"));
      row.set(2, rng.normal(3.0, 0.3));
      row.set(3, std::string(rng.bernoulli(0.6) ? "finished" : "failed"));
    }
    t.append_row(row);
  }
  return t;
}

TrainBudget tiny_budget() {
  TrainBudget b;
  b.epochs = 4;
  b.batch_size = 64;
  b.learning_rate = 1e-3f;
  return b;
}

/// Bitwise table equality: schema, numerical doubles, categorical labels.
void expect_tables_identical(const tabular::Table& a,
                             const tabular::Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_TRUE(a.schema() == b.schema());
  for (const std::size_t col : a.schema().numerical_indices()) {
    const auto va = a.numerical(col);
    const auto vb = b.numerical(col);
    for (std::size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(va[r], vb[r]) << "numerical col " << col << " row " << r;
    }
  }
  for (const std::size_t col : a.schema().categorical_indices()) {
    for (std::size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(a.label_at(col, r), b.label_at(col, r))
          << "categorical col " << col << " row " << r;
    }
  }
}

// ---------------------------------------------------------------- registry --

TEST(GeneratorRegistry, EnumeratesAllBuiltinModels) {
  const auto keys = GeneratorRegistry::instance().keys();
  const std::vector<std::string> expected{"ctabgan", "smote", "tabddpm",
                                          "tvae"};
  EXPECT_EQ(keys, expected);  // sorted enumeration
}

TEST(GeneratorRegistry, InfoIsComplete) {
  auto& registry = GeneratorRegistry::instance();
  for (const auto& key : registry.keys()) {
    const auto& info = registry.info(key);
    EXPECT_EQ(info.key, key);
    EXPECT_FALSE(info.display_name.empty());
    EXPECT_FALSE(info.description.empty());
    auto model = registry.create(key, tiny_budget(), 3);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->key(), key);
    EXPECT_EQ(model->name(), info.display_name);
    EXPECT_FALSE(model->fitted());
  }
}

TEST(GeneratorRegistry, UnknownKeyThrows) {
  auto& registry = GeneratorRegistry::instance();
  EXPECT_FALSE(registry.contains("copulagan"));
  EXPECT_THROW(static_cast<void>(registry.info("copulagan")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(registry.create("copulagan", tiny_budget(),
                                                 1)),
               std::invalid_argument);
  EXPECT_THROW(make_generator("", tiny_budget(), 1), std::invalid_argument);
}

TEST(GeneratorRegistry, DuplicateRegistrationThrows) {
  GeneratorInfo dup;
  dup.key = "smote";
  dup.display_name = "SMOTE2";
  dup.description = "duplicate";
  dup.factory = [](const TrainBudget&, std::uint64_t) {
    return std::unique_ptr<TabularGenerator>{};
  };
  EXPECT_THROW(GeneratorRegistry::instance().register_generator(dup),
               std::invalid_argument);
}

// ------------------------------------------------- fit options / progress --

TEST(FitOptions, ProgressReportsEveryEpoch) {
  const auto train = cluster_table(200, 11);
  TvaeConfig cfg;
  cfg.budget = tiny_budget();
  Tvae model(cfg);
  std::vector<FitProgress> seen;
  FitOptions opts;
  opts.on_progress = [&seen](const FitProgress& p) { seen.push_back(p); };
  model.fit(train, opts);
  ASSERT_EQ(seen.size(), cfg.budget.epochs);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].epoch, i + 1);
    EXPECT_EQ(seen[i].total_epochs, cfg.budget.epochs);
  }
}

TEST(FitOptions, CancellationAbortsTraining) {
  const auto train = cluster_table(200, 12);
  TvaeConfig cfg;
  cfg.budget = tiny_budget();
  Tvae model(cfg);
  std::atomic<bool> cancel{false};
  FitOptions opts;
  opts.cancel = &cancel;
  std::size_t epochs_seen = 0;
  opts.on_progress = [&](const FitProgress& p) {
    ++epochs_seen;
    if (p.epoch == 2) cancel.store(true);
  };
  EXPECT_THROW(model.fit(train, opts), FitCancelled);
  EXPECT_FALSE(model.fitted());
  EXPECT_EQ(epochs_seen, 2u);
}

// ------------------------------------------------- per-model API contract --

class AllGeneratorsV2 : public ::testing::TestWithParam<std::string> {};

TEST_P(AllGeneratorsV2, SaveLoadSampleRoundTripIsExact) {
  const auto train = cluster_table(300, 21);
  auto model = make_generator(GetParam(), tiny_budget(), 7);
  model->fit(train);
  const auto original = model->sample(120, 99);

  std::stringstream archive;
  save_model(*model, archive);
  auto reloaded = load_model(archive);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->key(), GetParam());
  EXPECT_TRUE(reloaded->fitted());

  const auto replayed = reloaded->sample(120, 99);
  expect_tables_identical(original, replayed);
}

TEST_P(AllGeneratorsV2, ParallelSamplingMatchesSerialBitwise) {
  const auto train = cluster_table(300, 22);
  auto model = make_generator(GetParam(), tiny_budget(), 7);
  model->fit(train);

  SampleRequest request;
  request.rows = 500;
  request.seed = 4242;
  request.chunk_rows = 128;

  request.threads = 1;
  tabular::Table serial;
  model->sample_into(serial, request);

  request.threads = 4;
  tabular::Table parallel4;
  model->sample_into(parallel4, request);

  request.threads = 0;  // every pool worker
  tabular::Table parallel_all;
  model->sample_into(parallel_all, request);

  EXPECT_EQ(serial.num_rows(), 500u);
  expect_tables_identical(serial, parallel4);
  expect_tables_identical(serial, parallel_all);
}

TEST_P(AllGeneratorsV2, SampleIntoReportsProgressAndAppends) {
  const auto train = cluster_table(250, 23);
  auto model = make_generator(GetParam(), tiny_budget(), 7);
  model->fit(train);

  SampleRequest request;
  request.rows = 200;
  request.seed = 5;
  request.chunk_rows = 64;
  request.threads = 2;
  std::size_t last_done = 0;
  request.on_progress = [&](std::size_t done, std::size_t total) {
    EXPECT_LE(done, total);
    EXPECT_GT(done, last_done);
    last_done = done;
  };
  tabular::Table out;
  model->sample_into(out, request);
  EXPECT_EQ(out.num_rows(), 200u);
  EXPECT_EQ(last_done, 200u);

  // A second request appends to the same table.
  request.on_progress = nullptr;
  model->sample_into(out, request);
  EXPECT_EQ(out.num_rows(), 400u);
}

TEST(SampleInto, AssembleChunksMatchesChunkByChunkAppends) {
  // Chunks whose vocabularies disagree, as independently sampled chunks
  // can: assembly must remap exactly like appending one by one.
  std::vector<tabular::Table> chunks;
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    chunks.push_back(cluster_table(40 + seed, seed));
  }
  ASSERT_TRUE(chunks[0].vocabulary(1) != chunks[1].vocabulary(1) ||
              chunks[0].vocabulary(1) != chunks[2].vocabulary(1));
  tabular::Table expected = chunks[0];
  for (std::size_t c = 1; c < chunks.size(); ++c) {
    expected.append_table(chunks[c]);
  }
  const std::size_t rows = expected.num_rows();
  tabular::Table out = assemble_chunks(chunks, rows);
  expect_tables_identical(expected, out);
  EXPECT_EQ(out.vocabulary(1), expected.vocabulary(1));

  std::vector<tabular::Table> none;
  EXPECT_EQ(assemble_chunks(none, 0).num_columns(), 0u);
}

TEST(SampleInto, ThrowingProgressCallbackDoesNotWedgeThePool) {
  const auto train = cluster_table(200, 25);
  auto model = make_generator("smote", tiny_budget(), 7);
  model->fit(train);
  SampleRequest request;
  request.rows = 300;
  request.seed = 6;
  request.chunk_rows = 64;
  request.threads = 4;
  request.on_progress = [](std::size_t, std::size_t) {
    throw std::runtime_error("abort sampling");
  };
  tabular::Table out;
  EXPECT_THROW(model->sample_into(out, request), std::runtime_error);
  // The pool stays serviceable afterwards.
  request.on_progress = nullptr;
  tabular::Table retry;
  model->sample_into(retry, request);
  EXPECT_EQ(retry.num_rows(), 300u);
}

TEST_P(AllGeneratorsV2, CloneSamplesIdentically) {
  const auto train = cluster_table(250, 24);
  auto model = make_generator(GetParam(), tiny_budget(), 7);
  model->fit(train);
  const auto copy = model->clone();
  expect_tables_identical(model->sample(80, 17), copy->sample(80, 17));
}

TEST_P(AllGeneratorsV2, SaveBeforeFitThrows) {
  auto model = make_generator(GetParam(), tiny_budget(), 7);
  std::stringstream buffer;
  EXPECT_THROW(save_model(*model, buffer), std::logic_error);
  EXPECT_THROW(model->save(buffer), std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(Keys, AllGeneratorsV2,
                         ::testing::Values("tvae", "ctabgan", "smote",
                                           "tabddpm"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------- archive --

TEST(ModelArchive, CorruptStreamIsRejected) {
  std::stringstream garbage("not a model archive at all");
  EXPECT_THROW(load_model(garbage), std::runtime_error);
}

TEST(ModelArchive, TruncatedStreamIsRejected) {
  const auto train = cluster_table(200, 31);
  auto model = make_generator("smote", tiny_budget(), 7);
  model->fit(train);
  std::stringstream archive;
  save_model(*model, archive);
  const std::string full = archive.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_model(truncated), std::runtime_error);
}

TEST(ModelArchive, PipelinePersistsFittedModel) {
  core::PipelineConfig cfg;
  cfg.experiment = eval::quick_experiment_config();
  cfg.experiment.data.model.days = 8.0;
  cfg.experiment.data.model.base_jobs_per_day = 120.0;
  cfg.model = "smote";
  core::SurrogatePipeline pipe(cfg);
  pipe.fit();

  std::stringstream archive;
  pipe.save_model(archive);

  core::SurrogatePipeline served(cfg);
  EXPECT_FALSE(served.fitted());
  served.load_model(archive);
  EXPECT_TRUE(served.fitted());
  expect_tables_identical(pipe.sample(300, 77), served.sample(300, 77));
  // Loaded pipelines can sample but have no train/test partitions.
  EXPECT_THROW(static_cast<void>(served.train_table()), std::logic_error);
}

}  // namespace
}  // namespace surro::models
