// Sharded & replicated model tier: the cross-layer conformance sweep.
//
//   * ShardRouter ring stability — adding a shard moves only ~K/N keys,
//     and every moved key moves TO the new shard (point addition never
//     reshuffles survivors); owners() returns R distinct shards.
//   * Routing invariance, the headline contract — a job's bytes are
//     bitwise-identical for every (shards, replicas) placement, for all
//     four models, and within every available SIMD backend.
//   * Replica re-route — an owner refusing at admission (injected row-bound
//     overload) transparently re-routes to the next replica, counted in
//     ShardStats::rerouted, and the re-routed job's bytes are unchanged.
//   * Archive-cache staleness — per-entry TTL expiry reloads (counted in
//     stale_reloads) and invalidate() fan-out drops every replica's
//     resident copy; bytes identical before and after either event.
//   * Aggregate stats arithmetic — ShardPool::stats() counters are the
//     strict sums of the per-shard counters, machine-checked, and the
//     "shards" stats JSON section carries the same numbers.
//   * The soak's single backend path — run_soak always drives a ShardPool,
//     and a 1-shard and a 3-shard sweep land on the same expected digest.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "linalg/simd.hpp"
#include "serve/model_host.hpp"
#include "serve/replay.hpp"
#include "serve/sample_service.hpp"
#include "serve/shard_pool.hpp"
#include "serve/shard_router.hpp"
#include "serve/soak.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

namespace surro::serve {
namespace {

// Tiny mixed table with clear structure (mirrors test_serve.cpp).
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

/// All four paper models, fitted once on the shared cluster table and
/// archived into one process-lifetime scratch directory. Every test in
/// this file routes the same archives, so the sweep really is cross-layer:
/// one set of bytes, many placements.
struct SharedArchives {
  std::filesystem::path dir;
  std::vector<std::string> keys{"smote", "tvae", "ctabgan", "tabddpm"};

  SharedArchives() {
    dir = std::filesystem::temp_directory_path() /
          ("surro_shard_test_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(dir);
    models::TrainBudget budget;
    budget.epochs = 4;
    budget.batch_size = 64;
    budget.learning_rate = 1e-3f;
    const auto train = cluster_table(300, 21);
    for (const auto& key : keys) {
      auto model = models::make_generator(key, budget, 7);
      model->fit(train);
      models::save_model_file(*model, path(key));
    }
  }
  ~SharedArchives() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  [[nodiscard]] std::string path(const std::string& key) const {
    return (dir / (key + ".bin")).string();
  }
};

const SharedArchives& archives() {
  static SharedArchives shared;
  return shared;
}

/// A pool over the shared archives with every config knob we sweep.
std::unique_ptr<ShardPool> make_pool(std::size_t shards,
                                     std::size_t replicas,
                                     double ttl_ms = 0.0) {
  ShardPoolConfig cfg;
  cfg.shards = shards;
  cfg.replication = replicas;
  cfg.host.capacity = archives().keys.size();
  cfg.host.ttl_ms = ttl_ms;
  auto pool = std::make_unique<ShardPool>(cfg);
  for (const auto& key : archives().keys) {
    pool->register_archive(key, archives().path(key));
  }
  return pool;
}

/// The job identity grid the invariance sweep samples: per model, a couple
/// of seeds at a chunk size small enough to exercise multi-chunk assembly.
struct JobId {
  std::string model;
  std::uint64_t seed = 0;
};

std::vector<JobId> job_grid() {
  std::vector<JobId> grid;
  for (const auto& key : archives().keys) {
    grid.push_back({key, 1000 + ShardRouter::key_hash(key) % 7});
    grid.push_back({key, 2000 + ShardRouter::key_hash(key) % 11});
  }
  return grid;
}

constexpr std::size_t kRows = 120;
constexpr std::size_t kChunkRows = 48;  // 3 chunks per job

/// Reference bytes: a direct, unsharded sample of the same identity.
tabular::Table direct_sample(const JobId& id) {
  ModelHost host;
  host.register_archive(id.model, archives().path(id.model));
  models::SampleRequest request;
  request.rows = kRows;
  request.seed = id.seed;
  request.chunk_rows = kChunkRows;
  tabular::Table out;
  host.acquire(id.model)->sample_into(out, request);
  return out;
}

tabular::Table pool_sample(ShardPool& pool, const JobId& id) {
  SampleJob job;
  job.model_key = id.model;
  job.rows = kRows;
  job.seed = id.seed;
  job.chunk_rows = kChunkRows;
  return pool.sample(std::move(job));
}

// ------------------------------------------------------------ ring layer --

TEST(ShardRouter, OwnersAreDistinctAndClamped) {
  ShardRouter router(RouterConfig{4, 3, 32});
  for (int i = 0; i < 64; ++i) {
    const auto owners = router.owners("model-" + std::to_string(i));
    ASSERT_EQ(owners.size(), 3u);
    EXPECT_EQ(std::set<std::size_t>(owners.begin(), owners.end()).size(),
              3u);
    for (const std::size_t s : owners) EXPECT_LT(s, 4u);
  }
  // Replication beyond the shard count clamps instead of failing.
  ShardRouter clamped(RouterConfig{2, 5, 16});
  EXPECT_EQ(clamped.config().replication, 2u);
  EXPECT_EQ(clamped.owners("anything").size(), 2u);
}

TEST(ShardRouter, RoutingIsDeterministicAcrossInstances) {
  const RouterConfig cfg{8, 2, 64};
  ShardRouter a(cfg);
  ShardRouter b(cfg);
  for (int i = 0; i < 256; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(a.owners(key), b.owners(key)) << key;
  }
}

TEST(ShardRouter, AddingAShardMovesOnlyItsShareOfKeys) {
  constexpr std::size_t kKeys = 2000;
  constexpr std::size_t kBefore = 8;
  ShardRouter before(RouterConfig{kBefore, 1, 64});
  ShardRouter after(RouterConfig{kBefore + 1, 1, 64});

  std::size_t moved = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::string key = "model-" + std::to_string(i);
    const std::size_t owner_before = before.primary(key);
    const std::size_t owner_after = after.primary(key);
    if (owner_after != owner_before) {
      ++moved;
      // The strict stability property: the new shard only ADDS ring
      // points, so any key that changed owners must belong to it now.
      // A surviving shard can never steal a key from another survivor.
      EXPECT_EQ(owner_after, kBefore)
          << key << " moved " << owner_before << " -> " << owner_after;
    }
  }
  // ~K/N keys move (the consistent-hashing bound). Generous slack for the
  // variance of 64 vnodes, but far below the K/2 a naive mod-N rehash
  // would churn.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, kKeys * 3 / (kBefore + 1));
}

TEST(ShardRouter, KeyHashIsStableAcrossCalls) {
  const std::uint64_t h = ShardRouter::key_hash("tabddpm");
  EXPECT_EQ(ShardRouter::key_hash("tabddpm"), h);
  EXPECT_NE(ShardRouter::key_hash("tabddpm"), ShardRouter::key_hash("tvae"));
}

// ------------------------------------------------- routing invariance --

TEST(RoutingInvariance, BytesIdenticalAcrossShardAndReplicaCounts) {
  const auto grid = job_grid();
  std::vector<tabular::Table> reference;
  reference.reserve(grid.size());
  for (const auto& id : grid) reference.push_back(direct_sample(id));

  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t replicas : {1u, 2u}) {
      if (replicas > shards) continue;
      auto pool = make_pool(shards, replicas);
      for (std::size_t j = 0; j < grid.size(); ++j) {
        SCOPED_TRACE("shards=" + std::to_string(shards) + " replicas=" +
                     std::to_string(replicas) + " model=" + grid[j].model);
        const auto table = pool_sample(*pool, grid[j]);
        expect_tables_identical(table, reference[j]);
      }
    }
  }
}

TEST(RoutingInvariance, HoldsWithinEveryAvailableSimdBackend) {
  // Within one backend, bytes are bitwise-identical whatever the placement
  // (the cross-backend guarantee is the SIMD layer's own contract, scoped
  // to the elementwise family — see docs/PERFORMANCE.md — so the shard
  // sweep pins one backend at a time).
  struct BackendGuard {
    linalg::simd::Backend saved = linalg::simd::active_backend();
    ~BackendGuard() { linalg::simd::force_backend(saved); }
  } guard;

  const JobId id{"tvae", 4242};
  for (const auto backend : linalg::simd::available_backends()) {
    linalg::simd::force_backend(backend);
    SCOPED_TRACE(linalg::simd::backend_name(backend));
    const auto reference = direct_sample(id);
    for (const std::size_t shards : {1u, 2u, 4u}) {
      auto pool = make_pool(shards, /*replicas=*/2);
      expect_tables_identical(pool_sample(*pool, id), reference);
    }
  }
}

TEST(RoutingInvariance, ReplayOutputHashMatchesUnshardedService) {
  // The replay harness (what the bench and the CLI drive) lands on the
  // same output hash through a pool as through a plain service.
  ReplayScript script;
  for (const auto& key : archives().keys) {
    ReplayRequest request;
    request.job.model_key = key;
    request.job.rows = kRows;
    request.job.seed = 77;
    request.job.chunk_rows = kChunkRows;
    request.repeat = 2;
    script.requests.push_back(request);
  }
  ReplayOptions opts;
  opts.clients = 4;

  ModelHost host;
  for (const auto& key : archives().keys) {
    host.register_archive(key, archives().path(key));
  }
  SampleService service(host);
  const auto flat = run_replay(service, script, opts);

  auto pool = make_pool(4, 2);
  const auto sharded = run_replay(*pool, script, opts);
  EXPECT_EQ(sharded.output_hash, flat.output_hash);
  EXPECT_EQ(sharded.failures, 0u);
  EXPECT_EQ(sharded.completed, flat.completed);
}

// ------------------------------------------------------- replica leases --

TEST(ReplicaLease, OverloadedOwnerReroutesToReplicaWithSameBytes) {
  ShardPoolConfig cfg;
  cfg.shards = 2;
  cfg.replication = 2;
  cfg.host.capacity = 2;
  cfg.service.admission = AdmissionPolicy::kReject;
  cfg.service.max_queue_depth = 8;
  cfg.service.max_queued_rows = 1000;
  ShardPool pool(cfg);
  const std::string key = "tvae";
  pool.register_archive(key, archives().path(key));
  const auto owners = pool.router().owners(key);
  ASSERT_EQ(owners.size(), 2u);
  const std::size_t primary = owners[0];
  const std::size_t secondary = owners[1];

  // Freeze both shards, then sculpt their queues so the least-depth owner
  // (the one the lease tries first) is over the row bound while the deeper
  // replica still has admission room:
  //   primary:   1 queued job, 2000 rows  -> depth 1, over max_queued_rows
  //   secondary: 2 queued jobs, 200 rows  -> depth 2, well under the bound
  pool.service(primary).pause();
  pool.service(secondary).pause();
  SampleJob big;
  big.model_key = key;
  big.rows = 2000;
  big.seed = 1;
  auto big_future = pool.service(primary).submit(big);
  SampleJob small;
  small.model_key = key;
  small.rows = 100;
  small.seed = 2;
  auto small_a = pool.service(secondary).submit(small);
  small.seed = 3;
  auto small_b = pool.service(secondary).submit(small);

  // The pool tries the primary (depth 1 < 2), which refuses at the row
  // bound; the lease re-routes to the secondary, which admits.
  SampleJob job;
  job.model_key = key;
  job.rows = kRows;
  job.seed = 99;
  job.chunk_rows = kChunkRows;
  auto submitted = pool.submit_job(job);
  const auto [landed_on, local_id] = pool.decode_job_id(submitted.job_id);
  EXPECT_EQ(landed_on, secondary);
  EXPECT_GT(local_id, 0u);
  EXPECT_EQ(pool.shard_stats().rerouted, 1u);

  pool.service(primary).resume();
  pool.service(secondary).resume();
  EXPECT_EQ(big_future.get().table.num_rows(), 2000u);
  EXPECT_EQ(small_a.get().table.num_rows(), 100u);
  EXPECT_EQ(small_b.get().table.num_rows(), 100u);
  // And the re-routed job's bytes are the placement-independent ones.
  expect_tables_identical(submitted.future.get().table,
                          direct_sample(JobId{key, 99}));
}

TEST(ReplicaLease, AllReplicasRefusingSurfacesTheOverloadError) {
  ShardPoolConfig cfg;
  cfg.shards = 2;
  cfg.replication = 2;
  cfg.service.admission = AdmissionPolicy::kReject;
  cfg.service.max_queue_depth = 1;
  ShardPool pool(cfg);
  const std::string key = "smote";
  pool.register_archive(key, archives().path(key));
  for (std::size_t s = 0; s < pool.shards(); ++s) pool.service(s).pause();

  const auto owners = pool.router().owners(key);
  SampleJob filler;
  filler.model_key = key;
  filler.rows = 40;
  std::vector<std::future<SampleResult>> queued;
  for (const std::size_t s : owners) {
    filler.seed = 100 + s;
    queued.push_back(pool.service(s).submit(filler));
  }

  SampleJob job;
  job.model_key = key;
  job.rows = 40;
  job.seed = 7;
  EXPECT_THROW((void)pool.submit_job(job), ServiceError);
  EXPECT_EQ(pool.shard_stats().rerouted, 0u);  // a refusal is not a reroute

  for (std::size_t s = 0; s < pool.shards(); ++s) pool.service(s).resume();
  for (auto& f : queued) EXPECT_EQ(f.get().table.num_rows(), 40u);
}

TEST(ReplicaLease, PoolJobIdsRoundTripAndCancelRoutesToTheRightShard) {
  auto pool = make_pool(4, 2);
  for (std::size_t s = 0; s < pool->shards(); ++s) pool->service(s).pause();

  SampleJob job;
  job.model_key = "smote";
  job.rows = 60;
  job.seed = 5;
  auto submitted = pool->submit_job(job);
  const auto [shard, local] = pool->decode_job_id(submitted.job_id);
  ASSERT_LT(shard, pool->shards());
  EXPECT_GT(local, 0u);

  EXPECT_TRUE(pool->cancel(submitted.job_id));
  EXPECT_FALSE(pool->cancel(submitted.job_id));  // already resolved
  EXPECT_FALSE(pool->cancel(0));                 // the no-job sentinel
  EXPECT_FALSE(pool->cancel(local));  // a bare local id is not a pool id
  EXPECT_EQ(pool->decode_job_id(0).first, pool->shards());
  EXPECT_THROW((void)submitted.future.get(), ServiceError);
  for (std::size_t s = 0; s < pool->shards(); ++s) pool->service(s).resume();
}

// --------------------------------------------------- cache staleness --

TEST(CacheStaleness, TtlExpiryReloadsWithIdenticalBytes) {
  ModelHost host;
  host.register_archive("m", archives().path("tvae"), /*ttl_ms=*/40.0);
  models::SampleRequest request;
  request.rows = 80;
  request.seed = 11;
  request.chunk_rows = 32;

  tabular::Table first;
  host.acquire("m")->sample_into(first, request);
  EXPECT_EQ(host.stats().stale_reloads, 0u);
  EXPECT_TRUE(host.resident("m"));

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  tabular::Table second;
  host.acquire("m")->sample_into(second, request);
  EXPECT_EQ(host.stats().stale_reloads, 1u);
  expect_tables_identical(first, second);  // staleness is about freshness,
                                           // never about bytes
}

TEST(CacheStaleness, ZeroTtlNeverExpiresAndRegistrationOverridesDefault) {
  HostConfig cfg;
  cfg.ttl_ms = 30.0;  // host default: everything goes stale fast...
  ModelHost host(cfg);
  host.register_archive("inherits", archives().path("smote"));
  host.register_archive("pinned_fresh", archives().path("smote"),
                        /*ttl_ms=*/0.0);  // ...except this entry
  (void)host.acquire("inherits");
  (void)host.acquire("pinned_fresh");
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  (void)host.acquire("inherits");
  (void)host.acquire("pinned_fresh");
  EXPECT_EQ(host.stats().stale_reloads, 1u);  // only the inheriting entry
}

TEST(CacheStaleness, InvalidateFansOutToEveryReplica) {
  auto pool = make_pool(2, 2);
  const std::string key = "ctabgan";
  // Make the model resident on both owner shards.
  const auto owners = pool->router().owners(key);
  ASSERT_EQ(owners.size(), 2u);
  for (const std::size_t s : owners) (void)pool->host(s).acquire(key);
  for (const std::size_t s : owners) EXPECT_TRUE(pool->host(s).resident(key));

  EXPECT_EQ(pool->invalidate(key), 2u);  // both replicas dropped a copy
  for (const std::size_t s : owners) {
    EXPECT_FALSE(pool->host(s).resident(key));
    EXPECT_EQ(pool->host(s).stats().invalidations, 1u);
  }
  EXPECT_EQ(pool->invalidate(key), 0u);  // nothing resident: no-op
  EXPECT_EQ(pool->invalidate("no-such-model"), 0u);

  // Reload-on-next-use, bytes unchanged.
  const JobId id{key, 31};
  expect_tables_identical(pool_sample(*pool, id), direct_sample(id));
}

// ------------------------------------------------- aggregate statistics --

TEST(AggregateStats, PoolCountersAreStrictSumsOfShardCounters) {
  auto pool = make_pool(4, 2);
  for (const auto& id : job_grid()) (void)pool_sample(*pool, id);

  const ShardStats ss = pool->shard_stats();
  ASSERT_EQ(ss.per_shard.size(), 4u);
  std::uint64_t submitted = 0, completed = 0, batches = 0, hits = 0,
                misses = 0, loads = 0;
  std::size_t depth = 0;
  for (const auto& s : ss.per_shard) {
    submitted += s.submitted;
    completed += s.completed;
    batches += s.batches;
    hits += s.host.hits;
    misses += s.host.misses;
    loads += s.host.loads;
    depth += s.queue_depth;
  }
  EXPECT_EQ(ss.aggregate.submitted, submitted);
  EXPECT_EQ(ss.aggregate.completed, completed);
  EXPECT_EQ(ss.aggregate.batches, batches);
  EXPECT_EQ(ss.aggregate.host.hits, hits);
  EXPECT_EQ(ss.aggregate.host.misses, misses);
  EXPECT_EQ(ss.aggregate.host.loads, loads);
  EXPECT_EQ(ss.aggregate.queue_depth, depth);
  EXPECT_EQ(ss.aggregate.completed, job_grid().size());
  EXPECT_EQ(ss.routed, job_grid().size());

  // Every model is placed on exactly R distinct shards.
  ASSERT_EQ(ss.placement.size(), archives().keys.size());
  for (const auto& [key, owners] : ss.placement) {
    EXPECT_EQ(owners.size(), 2u) << key;
    EXPECT_EQ(std::set<std::size_t>(owners.begin(), owners.end()).size(),
              owners.size())
        << key;
  }
}

TEST(AggregateStats, StatsJsonShardSectionCarriesTheSameNumbers) {
  auto pool = make_pool(2, 1);
  const JobId id{"smote", 12};
  (void)pool_sample(*pool, id);
  (void)pool_sample(*pool, id);

  util::JsonWriter w;
  w.begin_object();
  pool->append_stats_json(w);
  w.end_object();
  const auto doc = util::parse_json(w.str());
  const auto& shards = doc.at("shards");
  EXPECT_EQ(shards.at("count").as_number(), 2.0);
  EXPECT_EQ(shards.at("replication").as_number(), 1.0);
  EXPECT_EQ(shards.at("routed").as_number(), 2.0);
  const auto& per_shard = shards.at("per_shard").array;
  ASSERT_EQ(per_shard.size(), 2u);
  double submitted = 0.0, completed = 0.0;
  for (const auto& entry : per_shard) {
    submitted += entry.at("submitted").as_number();
    completed += entry.at("completed").as_number();
  }
  EXPECT_EQ(submitted, 2.0);
  EXPECT_EQ(completed, 2.0);
  const auto& placement = shards.at("placement").array;
  ASSERT_EQ(placement.size(), archives().keys.size());
}

// ------------------------------------------------------------- soak tier --

TEST(SoakTier, OneAndThreeShardSweepsAgreeOnTheExpectedHash) {
  // run_soak always drives a ShardPool; fitted in-memory models reach its
  // shards as clones. A 1-shard and a 3-shard sweep of the same config
  // must agree on every byte.
  ModelHost host;
  models::TrainBudget budget;
  budget.epochs = 2;
  for (const std::string key : {"smote", "tvae"}) {
    auto model = models::make_generator(key, budget, 7);
    model->fit(cluster_table(200, 5));
    host.register_fitted(key, std::move(model));
  }
  SoakConfig cfg;
  cfg.models = {"smote", "tvae"};
  cfg.load_multipliers = {0.5, 2.0};
  cfg.clients = 2;
  cfg.rows_per_job = kRows;
  cfg.chunk_rows = kChunkRows;
  cfg.seed_streams = 3;
  cfg.duration_seconds = 0.2;

  cfg.shards = 1;
  const SoakResult one = run_soak(host, cfg);
  cfg.shards = 3;
  const SoakResult three = run_soak(host, cfg);

  EXPECT_TRUE(one.deterministic);
  EXPECT_TRUE(three.deterministic);
  EXPECT_EQ(one.expected_hash, three.expected_hash);
  ASSERT_EQ(one.points.size(), cfg.load_multipliers.size());
  for (const SoakPoint& point : one.points) {
    EXPECT_EQ(point.shard_max_depths.size(), 1u);
  }
  EXPECT_EQ(one.shard_final_stats.size(), 1u);
  EXPECT_EQ(three.shard_final_stats.size(), 3u);
}

}  // namespace
}  // namespace surro::serve
