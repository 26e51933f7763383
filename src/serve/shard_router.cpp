#include "serve/shard_router.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace surro::serve {

namespace {

// Domain-separation salts so shard seeds, ring points, and key hashes live
// in unrelated SplitMix64 streams.
constexpr std::uint64_t kShardSeedSalt = 0x53484152445F5345ULL;  // "SHARD_SE"
constexpr std::uint64_t kVnodeSalt = 0x564E4F44455F5054ULL;      // "VNODE_PT"

std::uint64_t mix(std::uint64_t x) noexcept {
  std::uint64_t state = x;
  return util::splitmix64(state);
}

}  // namespace

std::uint64_t ShardRouter::key_hash(std::string_view key) noexcept {
  // FNV-1a over the bytes, then one SplitMix64 round to spread the FNV
  // output (whose low bits correlate for short keys) across all 64 bits.
  return mix(util::fnv1a(key, util::kFnvShortOffset));
}

ShardRouter::ShardRouter(RouterConfig cfg) : cfg_(cfg) {
  if (cfg_.shards == 0) {
    throw std::invalid_argument("shard router: shards must be positive");
  }
  if (cfg_.virtual_nodes == 0) cfg_.virtual_nodes = 1;
  cfg_.replication = std::max<std::size_t>(cfg_.replication, 1);
  cfg_.replication = std::min(cfg_.replication, cfg_.shards);

  // Ring points depend only on (shard index, vnode index): shard s owns the
  // same positions in an N-shard ring and an (N+1)-shard ring, which is
  // what bounds key movement to the new shard's arcs.
  ring_.reserve(cfg_.shards * cfg_.virtual_nodes);
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    const std::uint64_t shard_seed = mix(kShardSeedSalt + s);
    for (std::size_t v = 0; v < cfg_.virtual_nodes; ++v) {
      Point p;
      p.hash = mix(shard_seed ^ (kVnodeSalt * (v + 1)));
      p.shard = s;
      p.shard_seed = shard_seed;
      ring_.push_back(p);
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    return a.shard < b.shard;  // provisional; lookups re-break ties per key
  });
}

std::vector<std::size_t> ShardRouter::owners(std::string_view key) const {
  const std::uint64_t h = key_hash(key);
  const std::size_t n = ring_.size();

  // First ring point at or clockwise of the key's position (wrap at the
  // top of the hash space).
  std::size_t start = static_cast<std::size_t>(
      std::lower_bound(ring_.begin(), ring_.end(), h,
                       [](const Point& p, std::uint64_t value) {
                         return p.hash < value;
                       }) -
      ring_.begin());
  if (start == n) start = 0;

  std::vector<std::size_t> out;
  out.reserve(cfg_.replication);
  std::vector<bool> seen(cfg_.shards, false);
  std::size_t i = start;
  std::size_t visited = 0;
  while (out.size() < cfg_.replication && visited < n) {
    // Collect the run of equal-hash points and order it by rendezvous
    // weight for *this key*, so a hash collision between two shards'
    // vnodes does not systematically favor the lower shard index.
    std::size_t run_end = i;
    std::size_t run_len = 0;
    while (run_len < n && ring_[run_end % n].hash == ring_[i].hash) {
      ++run_len;
      ++run_end;
    }
    if (run_len == 1) {
      const Point& p = ring_[i];
      if (!seen[p.shard]) {
        seen[p.shard] = true;
        out.push_back(p.shard);
      }
    } else {
      std::vector<const Point*> run;
      run.reserve(run_len);
      for (std::size_t k = 0; k < run_len; ++k) run.push_back(&ring_[(i + k) % n]);
      std::sort(run.begin(), run.end(), [&](const Point* a, const Point* b) {
        const std::uint64_t wa = mix(h ^ a->shard_seed);
        const std::uint64_t wb = mix(h ^ b->shard_seed);
        if (wa != wb) return wa > wb;
        return a->shard < b->shard;
      });
      for (const Point* p : run) {
        if (out.size() >= cfg_.replication) break;
        if (!seen[p->shard]) {
          seen[p->shard] = true;
          out.push_back(p->shard);
        }
      }
    }
    visited += run_len;
    i = run_end % n;
  }
  return out;
}

}  // namespace surro::serve
