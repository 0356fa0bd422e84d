#include "cache/solve_cache.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace rascad::cache {

template <typename Value>
void SolveCache::Table<Value>::bind_metrics(const char* prefix) {
  obs::Registry& registry = obs::Registry::global();
  const std::string p(prefix);
  hits_metric_ = &registry.counter(p + ".hits");
  misses_metric_ = &registry.counter(p + ".misses");
  insertions_metric_ = &registry.counter(p + ".insertions");
  evictions_metric_ = &registry.counter(p + ".evictions");
}

template <typename Value>
std::optional<Value> SolveCache::Table<Value>::find(const Signature& key) {
  obs::Span span("cache.lookup");
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    ++s.misses;
    if (obs::enabled() && misses_metric_) {
      misses_metric_->inc();
      span.set_detail("miss");
    }
    return std::nullopt;
  }
  ++s.hits;
  if (obs::enabled() && hits_metric_) {
    hits_metric_->inc();
    span.set_detail("hit");
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);
  return it->second->value;
}

template <typename Value>
void SolveCache::Table<Value>::put(const Signature& key, Value value) {
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    // Concurrent miss on the same key: the late writer's value is
    // bit-identical, so overwriting just refreshes recency.
    it->second->value = std::move(value);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  s.lru.push_front(Node{key, std::move(value)});
  s.index.emplace(key, s.lru.begin());
  ++s.insertions;
  if (obs::enabled() && insertions_metric_) insertions_metric_->inc();
  while (s.lru.size() > per_shard_) {
    s.index.erase(s.lru.back().key);
    s.lru.pop_back();
    ++s.evictions;
    if (obs::enabled() && evictions_metric_) evictions_metric_->inc();
  }
}

template <typename Value>
CacheCounters SolveCache::Table<Value>::counters() const {
  // Consistent snapshot: hold every shard lock before reading any field,
  // so a find/put that completes concurrently is either fully included or
  // fully excluded — per-field sums can never mix "before" and "after"
  // states of one operation. Shards are locked in index order (the only
  // multi-shard acquisition in the cache, so no ordering conflicts).
  std::array<std::unique_lock<std::mutex>, kShards> locks;
  for (std::size_t i = 0; i < kShards; ++i) {
    locks[i] = std::unique_lock<std::mutex>(shards_[i].mutex);
  }
  CacheCounters out;
  for (const Shard& s : shards_) {
    out.hits += s.hits;
    out.misses += s.misses;
    out.insertions += s.insertions;
    out.evictions += s.evictions;
    out.entries += s.lru.size();
  }
  return out;
}

template <typename Value>
void SolveCache::Table<Value>::clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.lru.clear();
    s.index.clear();
    s.hits = s.misses = s.insertions = s.evictions = 0;
  }
}

SolveCache::SolveCache(std::size_t capacity) {
  const std::size_t per_shard = std::max<std::size_t>(1, capacity / kShards);
  blocks_.set_capacity(per_shard);
  curves_.set_capacity(per_shard);
  blocks_.bind_metrics("cache.block");
  curves_.bind_metrics("cache.curve");
}

void SolveCache::bind_metrics(const char* block_prefix,
                              const char* curve_prefix) {
  blocks_.bind_metrics(block_prefix);
  curves_.bind_metrics(curve_prefix);
}

std::optional<CachedBlockSolve> SolveCache::find_block(const Signature& key) {
  return blocks_.find(key);
}

void SolveCache::put_block(const Signature& key,
                           const CachedBlockSolve& value) {
  blocks_.put(key, value);
}

std::shared_ptr<const linalg::Vector> SolveCache::find_curve(
    const Signature& key) {
  auto found = curves_.find(key);
  return found ? std::move(*found) : nullptr;
}

void SolveCache::put_curve(const Signature& key,
                           std::shared_ptr<const linalg::Vector> curve) {
  curves_.put(key, std::move(curve));
}

CacheCounters SolveCache::block_counters() const { return blocks_.counters(); }

CacheCounters SolveCache::curve_counters() const { return curves_.counters(); }

void SolveCache::clear() {
  blocks_.clear();
  curves_.clear();
}

SolveCache& SolveCache::global() {
  static SolveCache* cache = new SolveCache();  // leaked: outlives all users
  return *cache;
}

}  // namespace rascad::cache
