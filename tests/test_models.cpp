// Generative models: schema preservation, determinism, and model-specific
// invariants (SMOTE interpolation, VAE/GAN/DDPM training smoke) on small
// synthetic tables so the whole file runs in seconds.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "models/ctabgan.hpp"
#include "models/generator.hpp"
#include "models/smote.hpp"
#include "models/tabddpm.hpp"
#include "models/tvae.hpp"
#include "nn/layers.hpp"
#include "preprocess/mixed_encoder.hpp"
#include "util/rng.hpp"

namespace surro::models {
namespace {

// Tiny mixed table with clear structure: two clusters that differ in both
// numerical location and dominant category.
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
  b.epochs = 8;
  b.batch_size = 64;
  b.learning_rate = 1e-3f;
  return b;
}

// ------------------------------------------------------------------ common --

class AllGenerators : public ::testing::TestWithParam<std::string> {};

TEST_P(AllGenerators, SamplePreservesSchemaAndVocab) {
  const auto train = cluster_table(400, 1);
  auto model = make_generator(GetParam(), tiny_budget(), 7);
  model->fit(train);
  const auto synth = model->sample(100, 99);
  EXPECT_EQ(synth.num_rows(), 100u);
  EXPECT_TRUE(synth.schema() == train.schema());
  // All labels must come from the training vocabulary.
  for (const std::size_t col : train.schema().categorical_indices()) {
    for (std::size_t r = 0; r < synth.num_rows(); ++r) {
      EXPECT_TRUE(train.code_of(col, synth.label_at(col, r)).has_value())
          << "unknown label " << synth.label_at(col, r);
    }
  }
}

TEST_P(AllGenerators, SamplingIsDeterministicPerSeed) {
  const auto train = cluster_table(300, 2);
  auto model = make_generator(GetParam(), tiny_budget(), 7);
  model->fit(train);
  const auto a = model->sample(50, 42);
  const auto b = model->sample(50, 42);
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_DOUBLE_EQ(a.numerical(0)[r], b.numerical(0)[r]);
    EXPECT_EQ(a.label_at(1, r), b.label_at(1, r));
  }
}

TEST_P(AllGenerators, DifferentSeedsGiveDifferentSamples) {
  const auto train = cluster_table(300, 3);
  auto model = make_generator(GetParam(), tiny_budget(), 7);
  model->fit(train);
  const auto a = model->sample(50, 1);
  const auto b = model->sample(50, 2);
  int identical = 0;
  for (std::size_t r = 0; r < 50; ++r) {
    identical += a.numerical(0)[r] == b.numerical(0)[r];
  }
  EXPECT_LT(identical, 50);
}

TEST_P(AllGenerators, SampleBeforeFitThrows) {
  auto model = make_generator(GetParam(), tiny_budget(), 7);
  EXPECT_THROW(model->sample(10, 1), std::logic_error);
}

TEST_P(AllGenerators, NumericalValuesWithinTrainingRange) {
  // Quantile-based decoding clamps synthetic numericals to the observed
  // training range — an invariant of the shared preprocessing.
  const auto train = cluster_table(400, 4);
  auto model = make_generator(GetParam(), tiny_budget(), 7);
  model->fit(train);
  const auto synth = model->sample(200, 5);
  for (const std::size_t col : train.schema().numerical_indices()) {
    const auto tr = train.numerical(col);
    const double lo = *std::min_element(tr.begin(), tr.end());
    const double hi = *std::max_element(tr.begin(), tr.end());
    for (const double v : synth.numerical(col)) {
      EXPECT_GE(v, lo - 1e-9);
      EXPECT_LE(v, hi + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Keys, AllGenerators,
                         ::testing::Values("tvae", "ctabgan", "smote",
                                           "tabddpm"),
                         [](const auto& info) { return info.param; });

TEST(GeneratorFactory, RegistryNamesMatch) {
  auto& registry = GeneratorRegistry::instance();
  EXPECT_EQ(registry.info("tvae").display_name, "TVAE");
  EXPECT_EQ(registry.info("smote").display_name, "SMOTE");
  auto m = make_generator("tabddpm", tiny_budget(), 1);
  EXPECT_EQ(m->name(), "TabDDPM");
  EXPECT_EQ(m->key(), "tabddpm");
}

// ------------------------------------------------------------------- SMOTE --

TEST(SmoteModel, RecoverClusterProportions) {
  const auto train = cluster_table(600, 5);
  Smote model;
  model.fit(train);
  const auto synth = model.sample(2000, 6);
  // Cluster A has x near 0, cluster B near 5; interpolation between k=5
  // neighbours stays within clusters, so the mix is preserved.
  int cluster_a = 0;
  for (const double v : synth.numerical(0)) cluster_a += v < 2.5;
  EXPECT_NEAR(cluster_a / 2000.0, 0.65, 0.06);
}

TEST(SmoteModel, FitRequiresTwoRows) {
  Smote model;
  const auto t = cluster_table(1, 7);
  EXPECT_THROW(model.fit(t), std::invalid_argument);
}

TEST(SmoteModel, InvalidKThrows) {
  SmoteConfig cfg;
  cfg.k_neighbors = 0;
  EXPECT_THROW(Smote{cfg}, std::invalid_argument);
}

TEST(SmoteModel, SamplesStayNearTrainingManifold) {
  // With two tight, well-separated clusters, no interpolated sample can
  // appear between them (neighbours never straddle the gap).
  const auto train = cluster_table(600, 8);
  Smote model;
  model.fit(train);
  const auto synth = model.sample(1500, 9);
  for (const double v : synth.numerical(0)) {
    EXPECT_TRUE(v < 2.0 || v > 3.0) << "mid-gap sample at " << v;
  }
}

/// Every numerical bit pattern and every categorical code of `a` and `b`
/// agree (both tables come from one fitted encoder, so codes are comparable).
void expect_bitwise_equal(const tabular::Table& a, const tabular::Table& b,
                          const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  for (const std::size_t c : a.schema().numerical_indices()) {
    for (std::size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.numerical(c)[r]),
                std::bit_cast<std::uint64_t>(b.numerical(c)[r]))
          << what << " column " << c << " row " << r;
    }
  }
  for (const std::size_t c : a.schema().categorical_indices()) {
    for (std::size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(a.categorical(c)[r], b.categorical(c)[r])
          << what << " column " << c << " row " << r;
    }
  }
}

/// `model` round-tripped through its archive: load() rebuilds the k-d tree
/// over every row and the neighbour table.
std::unique_ptr<Smote> reloaded(const Smote& model) {
  std::stringstream archive;
  model.save(archive);
  auto copy = std::make_unique<Smote>();
  copy->load(archive);
  return copy;
}

TEST(SmoteModel, NeighbourTableSamplesWhatPerRowQueriesSample) {
  // A warm_fit drops the neighbour table, so the warm model queries
  // neighbors_of (k-d tree over the base + brute-force tail) per sampled
  // row. Its archive reloads with a table built over all 400 rows. A stale
  // or mis-ordered table would change the bytes.
  const auto table = cluster_table(400, 31);
  std::vector<std::size_t> head(300), tail(100);
  for (std::size_t r = 0; r < 300; ++r) head[r] = r;
  for (std::size_t r = 0; r < 100; ++r) tail[r] = 300 + r;
  Smote warm;
  warm.fit(table.select_rows(head));
  warm.warm_fit(table.select_rows(tail));  // 100-row tail < 300: no rebuild
  const auto loaded = reloaded(warm);

  for (const std::uint64_t seed : {1ull, 7ull, 0xFEEDFACECAFEBEEFull}) {
    for (const std::size_t chunk : {1u, 7u, 64u, 4096u}) {
      SampleRequest request;
      request.rows = 500;
      request.seed = seed;
      request.chunk_rows = chunk;
      tabular::Table per_row(table.schema()), from_table(table.schema());
      warm.sample_into(per_row, request);
      loaded->sample_into(from_table, request);
      expect_bitwise_equal(per_row, from_table,
                           "seed " + std::to_string(seed) + " chunk " +
                               std::to_string(chunk));
    }
  }
}

TEST(SmoteModel, NeighbourTableNarrowerThanKOnTinyFits) {
  // k = 5 over 2 and 3 rows: every row has only n − 1 neighbours.
  SmoteConfig cfg;
  cfg.k_neighbors = 5;
  const auto table = cluster_table(3, 41);

  for (const std::size_t n : {2u, 3u}) {
    const auto train = table.head(n);
    Smote model(cfg);
    model.fit(train);
    const auto x = train.numerical(0);
    const auto [lo, hi] = std::minmax_element(x.begin(), x.end());
    const auto synth = model.sample(300, 5);
    for (const double v : synth.numerical(0)) {
      ASSERT_GE(v, *lo);
      ASSERT_LE(v, *hi);
    }
    expect_bitwise_equal(synth, reloaded(model)->sample(300, 5),
                         std::to_string(n) + " rows");
  }

  // 2 rows + a 1-row warm delta: the per-row path over 3 rows, then the
  // table path over the same 3 rows after a reload.
  Smote warm(cfg);
  warm.fit(table.head(2));
  warm.warm_fit(table.select_rows(std::vector<std::size_t>{2}));
  const auto loaded = reloaded(warm);
  for (const std::uint64_t seed : {3ull, 4ull, 5ull}) {
    expect_bitwise_equal(warm.sample(200, seed), loaded->sample(200, seed),
                         "warm 2+1 seed " + std::to_string(seed));
  }
}

// -------------------------------------------------------------------- TVAE --

TEST(TvaeModel, LossDecreasesOverTraining) {
  const auto train = cluster_table(500, 10);
  TvaeConfig cfg;
  cfg.budget = tiny_budget();
  cfg.budget.epochs = 2;
  Tvae short_run(cfg);
  short_run.fit(train);
  const float early = short_run.last_epoch_loss();

  cfg.budget.epochs = 25;
  Tvae long_run(cfg);
  long_run.fit(train);
  EXPECT_LT(long_run.last_epoch_loss(), early);
}

TEST(TvaeModel, DoubleFitThrows) {
  const auto train = cluster_table(100, 11);
  TvaeConfig cfg;
  cfg.budget = tiny_budget();
  cfg.budget.epochs = 1;
  Tvae model(cfg);
  model.fit(train);
  EXPECT_THROW(model.fit(train), std::logic_error);
}

// ---------------------------------------------------------------- CTABGAN+ --

TEST(CtabganModel, RequiresCategoricalColumns) {
  tabular::Schema schema({{"x", tabular::ColumnKind::kNumerical}});
  tabular::Table t(schema);
  for (int i = 0; i < 50; ++i) {
    auto row = t.make_row();
    row.set(0, static_cast<double>(i));
    t.append_row(row);
  }
  CtabganConfig cfg;
  cfg.budget = tiny_budget();
  CtabganPlus model(cfg);
  EXPECT_THROW(model.fit(t), std::invalid_argument);
}

TEST(CtabganModel, TrainingProducesFiniteLosses) {
  const auto train = cluster_table(400, 12);
  CtabganConfig cfg;
  cfg.budget = tiny_budget();
  CtabganPlus model(cfg);
  model.fit(train);
  EXPECT_TRUE(std::isfinite(model.last_disc_loss()));
  EXPECT_TRUE(std::isfinite(model.last_gen_loss()));
}

// ----------------------------------------------------------------- TabDDPM --

TEST(TabDdpmModel, AlphaBarScheduleIsMonotoneDecreasing) {
  const auto train = cluster_table(200, 13);
  TabDdpmConfig cfg;
  cfg.budget = tiny_budget();
  cfg.budget.epochs = 1;
  cfg.timesteps = 20;
  TabDdpm model(cfg);
  model.fit(train);
  const auto& ab = model.alpha_bar();
  ASSERT_EQ(ab.size(), 21u);
  EXPECT_NEAR(ab[0], 1.0, 1e-9);
  for (std::size_t t = 1; t < ab.size(); ++t) {
    EXPECT_LT(ab[t], ab[t - 1]);
    EXPECT_GT(ab[t], 0.0);
  }
}

TEST(TabDdpmModel, TooFewTimestepsThrows) {
  TabDdpmConfig cfg;
  cfg.timesteps = 1;
  EXPECT_THROW(TabDdpm{cfg}, std::invalid_argument);
}

TEST(TabDdpmModel, LearnsBimodalStructure) {
  // After a modest training run the model should place most mass in the two
  // true clusters rather than the empty gap.
  const auto train = cluster_table(600, 14);
  TabDdpmConfig cfg;
  cfg.budget.epochs = 30;
  cfg.budget.batch_size = 128;
  cfg.budget.learning_rate = 1.5e-3f;
  cfg.timesteps = 30;
  TabDdpm model(cfg);
  model.fit(train);
  const auto synth = model.sample(600, 15);
  int in_gap = 0;
  for (const double v : synth.numerical(0)) {
    in_gap += v > 1.8 && v < 3.2;
  }
  EXPECT_LT(in_gap, 90) << "too much probability mass between clusters";
}

// The PanDA encoder's layout: 4 numericals, then one-hot blocks of
// 45/12/5/20/4 categories (90 encoded columns).
std::vector<preprocess::CategoricalBlock> panda_blocks() {
  std::vector<preprocess::CategoricalBlock> blocks;
  std::size_t offset = 4;
  for (const std::size_t k : {45u, 12u, 5u, 20u, 4u}) {
    blocks.push_back({blocks.size(), offset, k});
    offset += k;
  }
  return blocks;
}

TEST(TabDdpmSampler, GatherAddFirstLayerMatchesLinearOnTheOneHotRow) {
  constexpr std::size_t kNum = 4, kWidth = 90, kTemb = 32, kHidden = 256;
  const auto blocks = panda_blocks();
  util::Rng rng(5);
  nn::Linear first(kWidth + kTemb, kHidden, rng);
  for (float& b : first.bias().value.flat()) {
    b = static_cast<float>(rng.normal());
  }
  std::vector<float> num(kNum), temb(kTemb);
  for (float& v : num) v = static_cast<float>(rng.normal());
  for (float& v : temb) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<std::uint32_t> codes;
  for (const auto& b : blocks) {
    codes.push_back(static_cast<std::uint32_t>(
        rng.uniform_index(b.cardinality)));
  }

  std::vector<float> step_bias(kHidden), out(kHidden);
  ddpm_step_bias(first, temb, step_bias.data());
  linalg::Matrix row(1, kWidth + kTemb);
  linalg::Matrix ref;
  std::size_t cases = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (std::uint32_t c = 0; c < blocks[b].cardinality; ++c) {
      auto trial = codes;
      trial[b] = c;
      row.zero();
      std::copy(num.begin(), num.end(), row.data());
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        row(0, blocks[i].offset + trial[i]) = 1.0f;
      }
      std::copy(temb.begin(), temb.end(), row.data() + kWidth);
      first.infer(row, ref);
      ddpm_first_layer(first, step_bias.data(), num, trial, blocks,
                       out.data());
      for (std::size_t i = 0; i < kHidden; ++i) {
        ASSERT_NEAR(out[i], ref(0, i), 1e-5f * (1.0f + std::abs(ref(0, i))))
            << "block " << b << " code " << c << " unit " << i;
      }
      ++cases;
    }
  }
  EXPECT_EQ(cases, 86u);
}

TEST(TabDdpmSampler, F32PosteriorMatchesADoubleReference) {
  util::Rng rng(17);
  std::vector<float> logits, post;
  std::size_t cases = 0;
  for (const std::size_t T : {50u, 100u}) {
    const auto s = DdpmSchedule::cosine(T);
    for (std::size_t t = 1; t <= T; ++t) {
      const double alpha_t = s.alphas[t - 1];
      const double ab_prev = s.alpha_bar[t - 1];
      for (const std::size_t k : {1u, 2u, 4u, 5u, 12u, 20u, 45u, 100u}) {
        logits.resize(k);
        post.resize(k);
        for (float& v : logits) v = static_cast<float>(3.0 * rng.normal());
        const auto cur = static_cast<std::uint32_t>(rng.uniform_index(k));

        // Reference: the same posterior in double from the same logits.
        const float peak = *std::max_element(logits.begin(), logits.end());
        std::vector<double> x0(k), ref(k);
        double denom = 0.0;
        for (std::size_t j = 0; j < k; ++j) {
          x0[j] = std::exp(static_cast<double>(logits[j]) - peak);
          denom += x0[j];
        }
        const double unif = 1.0 / static_cast<double>(k);
        double norm = 0.0;
        for (std::size_t j = 0; j < k; ++j) {
          const double like =
              (j == cur ? alpha_t : 0.0) + (1.0 - alpha_t) * unif;
          const double prior = ab_prev * x0[j] / denom + (1.0 - ab_prev) * unif;
          ref[j] = like * prior;
          norm += ref[j];
        }

        const float total = ddpm_block_posterior(
            logits.data(), k, cur, static_cast<float>(alpha_t),
            static_cast<float>(ab_prev), post.data());
        ASSERT_TRUE(std::isfinite(total) && total > 0.0f);
        for (std::size_t j = 0; j < k; ++j) {
          ASSERT_NEAR(post[j] / total, ref[j] / norm, 1e-5)
              << "T " << T << " t " << t << " K " << k << " j " << j;
        }
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 8u * 150u);
}

TEST(TabDdpmSampler, NonFiniteLogitKeepsTheCodeAndDrawsNothing) {
  const auto s = DdpmSchedule::cosine(50);
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (const std::size_t k : {1u, 5u, 12u, 45u}) {
    for (const float v : bad) {
      for (std::size_t pos = 0; pos < k; pos += 4) {
        std::vector<float> logits(k, 0.5f), post(k);
        logits[pos] = v;
        const std::uint32_t cur = static_cast<std::uint32_t>(k - 1);
        const float total = ddpm_block_posterior(
            logits.data(), k, cur, static_cast<float>(s.alphas[10]),
            static_cast<float>(s.alpha_bar[10]), post.data());
        util::Rng rng(3);
        util::Rng untouched(3);
        EXPECT_EQ(ddpm_draw_code(post, total, cur, rng), cur)
            << "K " << k << " logit " << v << " at " << pos;
        EXPECT_EQ(rng.uniform(), untouched.uniform()) << "a draw was spent";
      }
    }
  }
}

TEST(TabDdpmSampler, DrawFollowsTheWeightsAndSkipsZeroWeights) {
  const std::vector<float> post = {0.0f, 1.0f, 0.0f, 3.0f, 0.0f};
  util::Rng rng(23);
  std::size_t hits[5] = {};
  for (int i = 0; i < 4000; ++i) {
    ++hits[ddpm_draw_code(post, 4.0f, 0, rng)];
  }
  EXPECT_EQ(hits[0] + hits[2] + hits[4], 0u);
  EXPECT_NEAR(static_cast<double>(hits[3]) / 4000.0, 0.75, 0.03);
  // A total above the weights' sum (rounding) falls back to the last
  // category with positive weight.
  util::Rng high(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(ddpm_draw_code(post, 1e6f, 0, high), 4u);
  }
}

}  // namespace
}  // namespace surro::models
