// Memoized block solves: a thread-safe, sharded, bounded-LRU table from
// canonical chain signatures (signature.hpp) to solved block results.
//
// The table exists because real models repeat themselves: hierarchies
// contain parameter-identical blocks, sweeps re-solve a model in which all
// but one block is unchanged, and sensitivity probes perturb one parameter
// at a time. A hit returns the exact chain, stationary vector, and
// measures the producing solve computed — results are bit-identical with
// and without the cache because a signature match guarantees the generator
// and solver would have performed the identical arithmetic.
//
// Concurrency: keys are striped over fixed shards by hash, each shard a
// mutex + LRU list + hash map. Lookups and inserts from exec::parallel_for
// workers contend only within a shard. Concurrent misses on one key may
// both compute; whoever inserts second simply overwrites with bit-identical
// content, so determinism is unaffected (only the hit/miss counters are
// scheduling-dependent).
//
// Interaction with the checked solves: a cached entry stores the
// SolveTrace of the solve episode that produced it, so solve
// reporting stays honest — consumers re-label the trace's provenance
// (SolveSource::kCacheHit) without discarding the original episode record.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "cache/signature.hpp"
#include "linalg/dense.hpp"
#include "markov/ctmc.hpp"
#include "markov/health.hpp"

namespace rascad::obs {
class Counter;
}  // namespace rascad::obs

namespace rascad::cache {

/// One memoized block solve: everything SystemModel needs to assemble a
/// BlockEntry without generating or solving anything.
struct CachedBlockSolve {
  std::shared_ptr<const markov::Ctmc> chain;
  markov::StateIndex initial = 0;
  double availability = 1.0;
  double eq_failure_rate = 0.0;
  /// Episode of the solve that filled this entry.
  markov::SolveTrace trace;
};

/// Aggregate counters for one table (blocks or curves). Produced by
/// SolveCache::block_counters / curve_counters as one consistent snapshot:
/// all shards are locked before any is read, so concurrent lookups can
/// never make `hits + misses` disagree with the number of completed finds.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  double hit_rate() const noexcept {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

class SolveCache {
 public:
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// `capacity` bounds each table (block solves and sampled curves); it is
  /// a total across shards, floored at one entry per shard.
  explicit SolveCache(std::size_t capacity = kDefaultCapacity);

  /// Block-solve table. find_block marks the entry most-recently-used.
  std::optional<CachedBlockSolve> find_block(const Signature& key);
  void put_block(const Signature& key, const CachedBlockSolve& value);

  /// Sampled-curve table (reward / survival curves keyed by chain
  /// signature + curve kind + horizon).
  std::shared_ptr<const linalg::Vector> find_curve(const Signature& key);
  void put_curve(const Signature& key,
                 std::shared_ptr<const linalg::Vector> curve);

  CacheCounters block_counters() const;
  CacheCounters curve_counters() const;

  /// Rebinds this instance's global-registry counter mirrors (construction
  /// binds every cache to "cache.block" / "cache.curve"). The serve daemon
  /// points its cross-request cache at "serve.cache.*" so daemon cache
  /// traffic stays separable from one-shot solves in metric dumps.
  void bind_metrics(const char* block_prefix, const char* curve_prefix);

  /// Drops every entry; counters are reset too.
  void clear();

  /// Process-global instance used by default SystemModel options.
  static SolveCache& global();

 private:
  template <typename Value>
  class Table {
   public:
    void set_capacity(std::size_t per_shard) { per_shard_ = per_shard; }
    /// Mirrors shard counter updates onto the global obs registry under
    /// `<prefix>.hits` / `.misses` / `.insertions` / `.evictions`
    /// (observability-gated; registry totals span every cache instance
    /// bound to the prefix).
    void bind_metrics(const char* prefix);
    std::optional<Value> find(const Signature& key);
    void put(const Signature& key, Value value);
    CacheCounters counters() const;
    void clear();

   private:
    struct Node {
      Signature key;
      Value value;
    };
    struct Shard {
      mutable std::mutex mutex;
      std::list<Node> lru;  // front = most recently used
      std::unordered_map<Signature, typename std::list<Node>::iterator,
                         SignatureHash>
          index;
      std::uint64_t hits = 0;
      std::uint64_t misses = 0;
      std::uint64_t insertions = 0;
      std::uint64_t evictions = 0;
    };
    Shard& shard_for(const Signature& key) {
      return shards_[key.hash() % kShards];
    }
    std::size_t per_shard_ = 1;
    Shard shards_[kShards];
    /// Global-registry mirrors of the shard counters; null until
    /// bind_metrics. Updated only while obs::enabled().
    obs::Counter* hits_metric_ = nullptr;
    obs::Counter* misses_metric_ = nullptr;
    obs::Counter* insertions_metric_ = nullptr;
    obs::Counter* evictions_metric_ = nullptr;
  };

  Table<CachedBlockSolve> blocks_;
  Table<std::shared_ptr<const linalg::Vector>> curves_;
};

}  // namespace rascad::cache
