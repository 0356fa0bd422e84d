// Memoized block-solve cache + incremental rebuild: signature canonicality
// and masking, hit/miss/eviction counters, LRU bounding, provenance on
// SolveTrace, and the bit-identical-results contract — cold vs warm cache,
// incremental vs full rebuild, and across thread counts.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cache/signature.hpp"
#include "cache/solve_cache.hpp"
#include "core/library.hpp"
#include "core/sweep.hpp"
#include "mg/generator.hpp"
#include "markov/health.hpp"
#include "mg/system.hpp"
#include "robust/solve_error.hpp"
#include "spec/validate.hpp"
#include "fault_seam.hpp"

namespace {

using rascad::cache::CacheCounters;
using rascad::cache::CachedBlockSolve;
using rascad::cache::Signature;
using rascad::cache::SolveCache;
using rascad::core::SweepOptions;
using rascad::core::SweepPoint;
using rascad::mg::SystemModel;
using rascad::markov::SolveSource;
using rascad::spec::BlockSpec;
using rascad::spec::DiagramSpec;
using rascad::spec::ModelSpec;
using rascad::spec::Transparency;

BlockSpec simple_block(const std::string& name, double mtbf_h) {
  BlockSpec b;
  b.name = name;
  b.mtbf_h = mtbf_h;
  b.mttr_corrective_min = 90.0;
  b.service_response_h = 4.0;
  return b;
}

BlockSpec redundant_block(const std::string& name, double mtbf_h) {
  BlockSpec b = simple_block(name, mtbf_h);
  b.quantity = 2;
  b.min_quantity = 1;
  b.recovery = Transparency::kTransparent;
  b.repair = Transparency::kTransparent;
  return b;
}

/// Two-block model: a permanent-only Type 0 and a redundant pair.
ModelSpec small_model() {
  ModelSpec m;
  m.title = "cache-test";
  DiagramSpec d;
  d.name = "Root";
  d.blocks.push_back(simple_block("Solo", 120'000.0));
  d.blocks.push_back(redundant_block("Pair", 250'000.0));
  m.diagrams.push_back(std::move(d));
  return m;
}

SystemModel::Options options_with(SolveCache* cache, std::size_t threads = 0) {
  SystemModel::Options opts;
  opts.cache = cache;
  if (threads > 0) opts.parallel.threads = threads;
  return opts;
}

// ---------------------------------------------------------------------------
// Signatures

TEST(ChainSignature, IdenticalBlocksShareASignature) {
  const ModelSpec m = small_model();
  const Signature a =
      rascad::mg::chain_signature(m.root().blocks[0], m.globals);
  const Signature b =
      rascad::mg::chain_signature(m.root().blocks[0], m.globals);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(ChainSignature, RateChangeChangesTheSignature) {
  const ModelSpec m = small_model();
  BlockSpec changed = m.root().blocks[0];
  changed.mtbf_h *= 1.01;
  EXPECT_NE(rascad::mg::chain_signature(m.root().blocks[0], m.globals),
            rascad::mg::chain_signature(changed, m.globals));
}

TEST(ChainSignature, NameIsNotPartOfTheSignature) {
  // Parameter-identical blocks must share one memo entry regardless of
  // their names — that is what makes intra-model sharing work.
  const ModelSpec m = small_model();
  BlockSpec renamed = m.root().blocks[0];
  renamed.name = "Completely Different";
  EXPECT_EQ(rascad::mg::chain_signature(m.root().blocks[0], m.globals),
            rascad::mg::chain_signature(renamed, m.globals));
}

TEST(ChainSignature, MaskedGlobalEditLeavesSignatureUnchanged) {
  // A permanent-only Type 0 block never reboots (no transient faults), so
  // the generator ignores Tboot: editing the global must not dirty it.
  const ModelSpec m = small_model();
  rascad::spec::GlobalParams edited = m.globals;
  edited.reboot_time_h *= 3.0;
  EXPECT_EQ(rascad::mg::chain_signature(m.root().blocks[0], m.globals),
            rascad::mg::chain_signature(m.root().blocks[0], edited));
}

TEST(ChainSignature, ReachingGlobalEditChangesSignature) {
  // MTTM feeds the deferred-repair dwell of a redundant block with
  // permanent faults, but a Type 0 block repairs immediately (no deferred
  // cycle), so the same edit must dirty one block and not the other.
  const ModelSpec m = small_model();
  rascad::spec::GlobalParams edited = m.globals;
  edited.mttm_h += 24.0;
  EXPECT_EQ(rascad::mg::chain_signature(m.root().blocks[0], m.globals),
            rascad::mg::chain_signature(m.root().blocks[0], edited));
  EXPECT_NE(rascad::mg::chain_signature(m.root().blocks[1], m.globals),
            rascad::mg::chain_signature(m.root().blocks[1], edited));
}

TEST(ChainSignature, FullWordEqualityNotJustHash) {
  Signature a;
  a.append_word(1);
  a.append_word(2);
  Signature b;
  b.append_word(1);
  ASSERT_NE(a.words(), b.words());
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// The signature's masks against the generator

/// Everything generate returns for a block, bit for bit: its states and
/// rewards, Q's pattern and value bits, the initial state and the family
/// (rebuild reuses an entry's family with its chain, so the key carries
/// it), or only that it threw.
struct GeneratedBits {
  bool threw = false;
  std::vector<std::string> names;
  std::vector<std::uint64_t> rewards;
  std::vector<std::uint32_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<std::uint64_t> values;
  std::size_t initial = 0;
  rascad::mg::MarkovModelType type{};
  bool operator==(const GeneratedBits&) const = default;
};

GeneratedBits generated_bits(const BlockSpec& b,
                             const rascad::spec::GlobalParams& g,
                             rascad::mg::RewardKind reward) {
  GeneratedBits out;
  try {
    const auto model = rascad::mg::generate(b, g, {reward});
    const auto& q = model.chain.generator();
    for (std::size_t i = 0; i < model.chain.size(); ++i) {
      out.names.push_back(model.chain.state_name(i));
      out.rewards.push_back(std::bit_cast<std::uint64_t>(model.chain.reward(i)));
      const auto row = q.row(i);
      for (std::size_t k = 0; k < row.size; ++k) {
        out.values.push_back(std::bit_cast<std::uint64_t>(row.values[k]));
      }
    }
    out.row_ptr = q.row_ptr();
    out.col_idx = q.col_idx();
    out.initial = model.initial;
    out.type = model.type;
  } catch (const std::invalid_argument&) {
    out = GeneratedBits{};
    out.threw = true;
  }
  return out;
}

/// One point of the signature's input space: a block, the globals and the
/// reward kind.
struct SignatureInput {
  BlockSpec block;
  rascad::spec::GlobalParams globals;
  rascad::mg::RewardKind reward = rascad::mg::RewardKind::kAvailability;
};

/// True if a model of this one block passes spec::validate and asks for
/// the default reward: the inputs SystemModel hands chain_signature.
bool production_input(const SignatureInput& in) {
  if (in.reward != rascad::mg::RewardKind::kAvailability) return false;
  ModelSpec m;
  m.globals = in.globals;
  m.diagrams.push_back(DiagramSpec{"root", {in.block}});
  return rascad::spec::validate(m).ok();
}

/// Draws every input the signature reads, each with a fair chance of the
/// value the generator's gates test for (zero, one, or below the one-minute
/// stuck-failover floor).
class InputSampler {
 public:
  explicit InputSampler(std::uint64_t seed) : rng_(seed) {}

  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng_);
  }
  /// `gate` with probability 1/k, otherwise uniform in [lo, hi).
  double or_gate(double gate, unsigned k, double lo, double hi) {
    return rng_() % k == 0 ? gate : uniform(lo, hi);
  }
  bool coin() { return rng_() % 2 == 0; }

  double mtbf() { return or_gate(0.0, 4, 500.0, 2e5); }
  double transient_fit() { return or_gate(0.0, 3, 100.0, 1e5); }
  double mttr_part() { return or_gate(0.0, 3, 1.0, 120.0); }
  double response() { return or_gate(0.0, 3, 0.5, 8.0); }
  double pcd() { return or_gate(1.0, 2, 0.5, 1.0); }
  double plf() { return or_gate(0.0, 2, 0.01, 0.5); }
  double mttdlf() { return or_gate(0.0, 4, 1.0, 100.0); }
  double ar_time() { return or_gate(0.0, 4, 1.0, 20.0); }
  double pspf() { return or_gate(0.0, 2, 0.001, 0.2); }
  double t_spf() { return or_gate(0.0, 4, 1.0, 60.0); }
  double reint() { return or_gate(0.0, 4, 1.0, 30.0); }
  double failover() { return or_gate(0.0, 4, 0.5, 10.0); }
  double pfo() { return or_gate(1.0, 2, 0.5, 1.0); }
  double reboot() {
    return rng_() % 5 == 0 ? or_gate(0.0, 2, 0.001, 1.0 / 60.0)
                           : uniform(0.02, 1.0);
  }
  double mttm() { return or_gate(0.0, 5, 1.0, 72.0); }
  double mttrfid() { return uniform(1.0, 8.0); }
  Transparency transparency() {
    return coin() ? Transparency::kTransparent : Transparency::kNontransparent;
  }

  /// A block of family `family`: 0 is Type 0, 1-4 the redundant types
  /// (recovery and repair from the family's bits) and 5 primary/standby
  /// (N = 2, K = 1, the only pair validation admits).
  SignatureInput draw(unsigned family) {
    SignatureInput in;
    BlockSpec& b = in.block;
    b.name = "b";
    b.quantity = 1 + static_cast<unsigned>(rng_() % 4);
    b.min_quantity = b.quantity;
    if (family == 5) {
      b.quantity = 2;
      b.min_quantity = 1;
    }
    if (family >= 1 && family <= 4) {
      b.quantity += 1 + static_cast<unsigned>(rng_() % 3);
      b.recovery =
          family <= 2 ? Transparency::kTransparent : Transparency::kNontransparent;
      b.repair = family % 2 == 1 ? Transparency::kTransparent
                                 : Transparency::kNontransparent;
    } else {
      b.recovery = transparency();
      b.repair = transparency();
    }
    if (family == 5) b.mode = rascad::spec::RedundancyMode::kPrimaryStandby;
    b.mtbf_h = mtbf();
    b.transient_fit = transient_fit();
    b.mttr_diagnosis_min = mttr_part();
    b.mttr_corrective_min = mttr_part();
    b.mttr_verification_min = mttr_part();
    b.service_response_h = response();
    b.p_correct_diagnosis = pcd();
    b.p_latent_fault = plf();
    b.mttdlf_h = mttdlf();
    b.ar_time_min = ar_time();
    b.p_spf = pspf();
    b.t_spf_min = t_spf();
    b.reintegration_min = reint();
    b.failover_time_min = failover();
    b.p_failover = pfo();
    in.globals.reboot_time_h = reboot();
    in.globals.mttm_h = mttm();
    in.globals.mttrfid_h = mttrfid();
    in.reward = coin() ? rascad::mg::RewardKind::kAvailability
                       : rascad::mg::RewardKind::kCapacity;
    return in;
  }

 private:
  std::mt19937_64 rng_;
};

TEST(ChainSignature, EqualKeysIffBitIdenticalChains) {
  // Each signature input is perturbed alone, from blocks of every family.
  // Soundness, over every input: equal keys must mean the same generate
  // outcome (the same bits, or both rejected). Precision, over the inputs
  // production passes (validated specs, default reward): the same bits
  // must mean equal keys, so no mask is missing where reuse can happen.
  using Edit = void (*)(SignatureInput&, InputSampler&);
  const std::vector<std::pair<const char*, Edit>> edits = {
      {"quantity", [](SignatureInput& in, InputSampler&) { ++in.block.quantity; }},
      {"min_quantity+1",
       [](SignatureInput& in, InputSampler&) { ++in.block.min_quantity; }},
      {"min_quantity-1",
       [](SignatureInput& in, InputSampler&) { --in.block.min_quantity; }},
      {"mtbf", [](SignatureInput& in, InputSampler& s) { in.block.mtbf_h = s.mtbf(); }},
      {"transient_fit",
       [](SignatureInput& in, InputSampler& s) {
         in.block.transient_fit = s.transient_fit();
       }},
      {"mttr_diagnosis",
       [](SignatureInput& in, InputSampler& s) {
         in.block.mttr_diagnosis_min = s.mttr_part();
       }},
      {"mttr_corrective",
       [](SignatureInput& in, InputSampler& s) {
         in.block.mttr_corrective_min = s.mttr_part();
       }},
      {"mttr_verification",
       [](SignatureInput& in, InputSampler& s) {
         in.block.mttr_verification_min = s.mttr_part();
       }},
      {"service_response",
       [](SignatureInput& in, InputSampler& s) {
         in.block.service_response_h = s.response();
       }},
      {"p_correct_diagnosis",
       [](SignatureInput& in, InputSampler& s) {
         in.block.p_correct_diagnosis = s.pcd();
       }},
      {"p_latent_fault",
       [](SignatureInput& in, InputSampler& s) { in.block.p_latent_fault = s.plf(); }},
      {"mttdlf", [](SignatureInput& in, InputSampler& s) { in.block.mttdlf_h = s.mttdlf(); }},
      {"recovery",
       [](SignatureInput& in, InputSampler&) {
         in.block.recovery = in.block.recovery == Transparency::kTransparent
                                 ? Transparency::kNontransparent
                                 : Transparency::kTransparent;
       }},
      {"ar_time",
       [](SignatureInput& in, InputSampler& s) { in.block.ar_time_min = s.ar_time(); }},
      {"p_spf", [](SignatureInput& in, InputSampler& s) { in.block.p_spf = s.pspf(); }},
      {"t_spf", [](SignatureInput& in, InputSampler& s) { in.block.t_spf_min = s.t_spf(); }},
      {"repair",
       [](SignatureInput& in, InputSampler&) {
         in.block.repair = in.block.repair == Transparency::kTransparent
                               ? Transparency::kNontransparent
                               : Transparency::kTransparent;
       }},
      {"reintegration",
       [](SignatureInput& in, InputSampler& s) {
         in.block.reintegration_min = s.reint();
       }},
      {"mode",
       [](SignatureInput& in, InputSampler&) {
         in.block.mode =
             in.block.mode == rascad::spec::RedundancyMode::kSymmetric
                 ? rascad::spec::RedundancyMode::kPrimaryStandby
                 : rascad::spec::RedundancyMode::kSymmetric;
       }},
      {"failover_time",
       [](SignatureInput& in, InputSampler& s) {
         in.block.failover_time_min = s.failover();
       }},
      {"p_failover",
       [](SignatureInput& in, InputSampler& s) { in.block.p_failover = s.pfo(); }},
      {"reboot_time",
       [](SignatureInput& in, InputSampler& s) {
         in.globals.reboot_time_h = s.reboot();
       }},
      {"mttm", [](SignatureInput& in, InputSampler& s) { in.globals.mttm_h = s.mttm(); }},
      {"mttrfid",
       [](SignatureInput& in, InputSampler& s) { in.globals.mttrfid_h = s.mttrfid(); }},
      {"mission_time",
       [](SignatureInput& in, InputSampler& s) {
         in.globals.mission_time_h = s.uniform(1.0, 1e5);
       }},
      {"reward",
       [](SignatureInput& in, InputSampler&) {
         in.reward = in.reward == rascad::mg::RewardKind::kAvailability
                         ? rascad::mg::RewardKind::kCapacity
                         : rascad::mg::RewardKind::kAvailability;
       }},
  };

  InputSampler sampler(20261020);
  std::size_t same_key = 0;
  std::size_t new_key = 0;
  std::size_t precision_checked = 0;
  for (unsigned trial = 0; trial < 600; ++trial) {
    const SignatureInput base = sampler.draw(trial % 6);
    const Signature base_key =
        rascad::mg::chain_signature(base.block, base.globals, {base.reward});
    const GeneratedBits base_bits =
        generated_bits(base.block, base.globals, base.reward);
    const bool base_production = production_input(base);
    for (const auto& [what, edit] : edits) {
      SignatureInput in = base;
      edit(in, sampler);
      const bool equal_keys =
          rascad::mg::chain_signature(in.block, in.globals, {in.reward}) ==
          base_key;
      const GeneratedBits bits = generated_bits(in.block, in.globals, in.reward);
      const std::string where = std::string(what) + " from family " +
                                std::to_string(trial % 6) + ", trial " +
                                std::to_string(trial);
      if (equal_keys) {
        ++same_key;
        EXPECT_TRUE(bits == base_bits) << "unsound mask: " << where;
      } else {
        ++new_key;
      }
      if (base_production && production_input(in)) {
        ++precision_checked;
        if (bits == base_bits) {
          EXPECT_TRUE(equal_keys) << "missed mask: " << where;
        }
      }
    }
  }
  // Neither side of the property is vacuous.
  EXPECT_GT(same_key, 1000u);
  EXPECT_GT(new_key, 1000u);
  EXPECT_GT(precision_checked, 3000u);
}

// ---------------------------------------------------------------------------
// SolveCache table behaviour

Signature word_key(std::uint64_t w) {
  Signature s;
  s.append_word(w);
  return s;
}

TEST(SolveCache, HitAndMissCountersTrackLookups) {
  SolveCache cache;
  CachedBlockSolve value;
  value.availability = 0.5;
  cache.put_block(word_key(1), value);
  EXPECT_FALSE(cache.find_block(word_key(2)).has_value());
  const auto hit = cache.find_block(word_key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->availability, 0.5);
  const CacheCounters c = cache.block_counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.insertions, 1u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.5);
}

TEST(SolveCache, LruBoundsTheEntryCountAndEvicts) {
  // Capacity is floored at one entry per shard, so the tightest total
  // bound is max(kShards, capacity).
  SolveCache cache(SolveCache::kShards);
  CachedBlockSolve value;
  for (std::uint64_t i = 0; i < 64; ++i) {
    cache.put_block(word_key(i), value);
  }
  const CacheCounters c = cache.block_counters();
  EXPECT_EQ(c.insertions, 64u);
  EXPECT_LE(c.entries, SolveCache::kShards);
  EXPECT_GT(c.evictions, 0u);
  EXPECT_EQ(c.entries + c.evictions, 64u);
  // The most recent key in its shard survived the evictions.
  EXPECT_TRUE(cache.find_block(word_key(63)).has_value());
}

TEST(SolveCache, ClearDropsEntriesAndCounters) {
  SolveCache cache;
  cache.put_block(word_key(7), CachedBlockSolve{});
  cache.find_block(word_key(7));
  cache.clear();
  const CacheCounters c = cache.block_counters();
  EXPECT_EQ(c.entries, 0u);
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.insertions, 0u);
  EXPECT_FALSE(cache.find_block(word_key(7)).has_value());
}

// ---------------------------------------------------------------------------
// solve_block_cached provenance + bit-identical results

TEST(SolveBlockCached, SecondSolveIsACacheHitWithIdenticalNumbers) {
  const ModelSpec m = small_model();
  SolveCache cache;

  const auto first = rascad::mg::solve_block_cached(
      "Root", m.root().blocks[1], m.globals, {}, &cache);
  EXPECT_EQ(first.solve_trace.source, SolveSource::kFresh);

  const auto second = rascad::mg::solve_block_cached(
      "Root", m.root().blocks[1], m.globals, {}, &cache);
  EXPECT_EQ(second.solve_trace.source, SolveSource::kCacheHit);
  EXPECT_EQ(second.availability, first.availability);
  EXPECT_EQ(second.eq_failure_rate, first.eq_failure_rate);
  EXPECT_EQ(second.yearly_downtime_min, first.yearly_downtime_min);
  // The cached entry carries the producing episode's record.
  EXPECT_TRUE(second.solve_trace.ran);
  EXPECT_EQ(second.solve_trace.message, first.solve_trace.message);
  // Both entries share the one generated chain.
  EXPECT_EQ(second.chain.get(), first.chain.get());
  EXPECT_EQ(cache.block_counters().hits, 1u);
}

TEST(SolveBlockCached, NullCacheSolvesFreshWithIdenticalNumbers) {
  const ModelSpec m = small_model();
  SolveCache cache;
  const auto cached = rascad::mg::solve_block_cached(
      "Root", m.root().blocks[0], m.globals, {}, &cache);
  const auto uncached = rascad::mg::solve_block_cached(
      "Root", m.root().blocks[0], m.globals, {}, nullptr);
  EXPECT_EQ(uncached.solve_trace.source, SolveSource::kFresh);
  EXPECT_EQ(uncached.availability, cached.availability);
  EXPECT_EQ(uncached.eq_failure_rate, cached.eq_failure_rate);
}

// The post-solve seam is in no memo key. A stalled build (the answer
// intact, only late) fills the cache with the numbers a clean build
// computes, so the clean build that follows hits every block and is
// bit-identical. A NaN-hooked build is refused by the health check and
// inserts nothing, so the next healthy build solves the block afresh.
TEST(FaultSeam, HookedBuildsCannotPoisonTheCache) {
  const ModelSpec spec = rascad::core::library::entry_server();
  SolveCache cache;
  const auto stalled = [&] {
    const rascad::markov::ScopedPostSolveHook scope(
        rascad::testing::stall_hook(1.0));
    return SystemModel::build(spec, options_with(&cache));
  }();
  const std::uint64_t hits_before = cache.block_counters().hits;
  const SystemModel clean = SystemModel::build(spec, options_with(&cache));
  EXPECT_EQ(cache.block_counters().hits - hits_before,
            clean.blocks().size());
  ASSERT_EQ(clean.blocks().size(), stalled.blocks().size());
  for (std::size_t i = 0; i < clean.blocks().size(); ++i) {
    const auto& c = clean.blocks()[i];
    const auto& s = stalled.blocks()[i];
    EXPECT_EQ(c.solve_trace.source, SolveSource::kCacheHit) << i;
    EXPECT_EQ(c.availability, s.availability) << i;
    EXPECT_EQ(c.eq_failure_rate, s.eq_failure_rate) << i;
  }
  EXPECT_EQ(clean.availability(), stalled.availability());
  EXPECT_EQ(stalled.availability(),
            SystemModel::build(spec, options_with(nullptr)).availability());
  EXPECT_EQ(clean.interval_availability(8760.0),
            stalled.interval_availability(8760.0));

  // One edited block misses the cache; its solve is poisoned.
  ModelSpec edited = spec;
  for (auto& d : edited.diagrams) {
    for (auto& b : d.blocks) {
      if (b.name == "Boot Disk") b.mtbf_h *= 1.5;
    }
  }
  const std::uint64_t inserted = cache.block_counters().insertions;
  try {
    const rascad::markov::ScopedPostSolveHook scope(
        rascad::testing::nan_hook());
    (void)SystemModel::build(edited, options_with(&cache));
    FAIL() << "expected SolveError(kNanOrInf)";
  } catch (const rascad::robust::SolveError& e) {
    EXPECT_EQ(e.cause(), rascad::robust::SolveCause::kNanOrInf) << e.what();
  }
  EXPECT_EQ(cache.block_counters().insertions, inserted);

  const SystemModel healed = SystemModel::build(edited, options_with(&cache));
  std::size_t fresh = 0;
  for (const auto& b : healed.blocks()) {
    EXPECT_TRUE(b.solve_trace.success);
    EXPECT_TRUE(std::isfinite(b.availability));
    if (b.solve_trace.source == SolveSource::kFresh) ++fresh;
  }
  EXPECT_GE(fresh, 1u);
  EXPECT_EQ(healed.availability(),
            SystemModel::build(edited, options_with(nullptr)).availability());
}

TEST(SystemModelCache, DatacenterBuildHitsOnParameterIdenticalBlocks) {
  // The library datacenter contains parameter-identical FRU pairs (e.g.
  // Blower Assembly and Disk Controller), so even a single cold build
  // must produce block-cache hits.
  SolveCache cache;
  const auto system = SystemModel::build(
      rascad::core::library::datacenter_system(), options_with(&cache));
  const CacheCounters c = cache.block_counters();
  EXPECT_GT(c.hits, 0u);
  EXPECT_GT(c.misses, 0u);
  EXPECT_GT(c.hit_rate(), 0.0);
  EXPECT_GT(system.availability(), 0.0);
}

TEST(SystemModelCache, WarmBuildIsBitIdenticalToColdBuild) {
  const ModelSpec m = rascad::core::library::datacenter_system();
  SolveCache cache;
  const auto cold = SystemModel::build(m, options_with(&cache));
  const auto warm = SystemModel::build(m, options_with(&cache));
  const auto uncached = SystemModel::build(m, options_with(nullptr));
  EXPECT_EQ(warm.availability(), cold.availability());
  EXPECT_EQ(uncached.availability(), cold.availability());
  EXPECT_EQ(warm.eq_failure_rate(), cold.eq_failure_rate());
  EXPECT_EQ(uncached.eq_failure_rate(), cold.eq_failure_rate());
  // Every block of the warm build came from the memo table.
  for (const auto& b : warm.blocks()) {
    EXPECT_EQ(b.solve_trace.source, SolveSource::kCacheHit) << b.block.name;
  }
}

TEST(SystemModelCache, CurveQueriesHitTheCurveTable) {
  const ModelSpec m = small_model();
  SolveCache cache;
  const auto system = SystemModel::build(m, options_with(&cache));
  const double cold = system.interval_availability(8760.0);
  const auto after_cold = cache.curve_counters();
  EXPECT_GT(after_cold.insertions, 0u);
  const double warm = system.interval_availability(8760.0);
  const auto after_warm = cache.curve_counters();
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_EQ(warm, cold);
  // Reliability curves are keyed separately from availability curves.
  const double rel = system.reliability(8760.0);
  EXPECT_GT(rel, 0.0);
  EXPECT_LT(rel, 1.0);
  EXPECT_EQ(system.reliability(8760.0), rel);
}

// ---------------------------------------------------------------------------
// Incremental rebuild

TEST(Rebuild, UnchangedSpecReusesEveryBlock) {
  const ModelSpec m = small_model();
  SolveCache cache;
  const auto base = SystemModel::build(m, options_with(&cache));
  const auto rebuilt = SystemModel::rebuild(base, m);
  ASSERT_EQ(rebuilt.blocks().size(), base.blocks().size());
  for (const auto& b : rebuilt.blocks()) {
    EXPECT_EQ(b.solve_trace.source, SolveSource::kBaselineReuse)
        << b.block.name;
  }
  EXPECT_EQ(rebuilt.availability(), base.availability());
  EXPECT_EQ(rebuilt.eq_failure_rate(), base.eq_failure_rate());
  // Reused entries share the baseline's generated chains.
  for (std::size_t i = 0; i < rebuilt.blocks().size(); ++i) {
    EXPECT_EQ(rebuilt.blocks()[i].chain.get(), base.blocks()[i].chain.get());
  }
}

TEST(Rebuild, OnlyTheDirtyBlockIsResolved) {
  ModelSpec m = small_model();
  SolveCache cache;
  const auto base = SystemModel::build(m, options_with(&cache));

  ModelSpec changed = m;
  changed.find_block("Root", "Pair")->mtbf_h = 275'000.0;
  const auto rebuilt = SystemModel::rebuild(base, changed);

  ASSERT_EQ(rebuilt.blocks().size(), 2u);
  EXPECT_EQ(rebuilt.blocks()[0].solve_trace.source,
            SolveSource::kBaselineReuse);
  EXPECT_EQ(rebuilt.blocks()[1].solve_trace.source, SolveSource::kFresh);

  // Bit-identical to solving the changed spec from scratch, uncached.
  const auto direct = SystemModel::build(changed, options_with(nullptr));
  EXPECT_EQ(rebuilt.availability(), direct.availability());
  EXPECT_EQ(rebuilt.eq_failure_rate(), direct.eq_failure_rate());
}

TEST(Rebuild, DirtyBlockCanBeServedFromTheCache) {
  ModelSpec m = small_model();
  ModelSpec changed = m;
  changed.find_block("Root", "Pair")->mtbf_h = 275'000.0;

  SolveCache cache;
  // Prime the cache with the changed spec, then rebuild toward it: the
  // dirty block is not a baseline reuse, but its solve is memoized.
  SystemModel::build(changed, options_with(&cache));
  const auto base = SystemModel::build(m, options_with(&cache));
  const auto rebuilt = SystemModel::rebuild(base, changed);
  EXPECT_EQ(rebuilt.blocks()[1].solve_trace.source, SolveSource::kCacheHit);
}

TEST(Rebuild, StructureChangeFallsBackToFullBuild) {
  ModelSpec m = small_model();
  SolveCache cache;
  const auto base = SystemModel::build(m, options_with(&cache));

  ModelSpec changed = m;
  changed.diagrams[0].blocks.push_back(simple_block("Extra", 90'000.0));
  const auto rebuilt = SystemModel::rebuild(base, changed);
  ASSERT_EQ(rebuilt.blocks().size(), 3u);
  const auto direct = SystemModel::build(changed, options_with(nullptr));
  EXPECT_EQ(rebuilt.availability(), direct.availability());

  // A renamed block also breaks the pairing (no silent mis-diff).
  ModelSpec renamed = m;
  renamed.find_block("Root", "Pair")->name = "Pear";
  const auto rebuilt2 = SystemModel::rebuild(base, renamed);
  for (const auto& b : rebuilt2.blocks()) {
    EXPECT_NE(b.solve_trace.source, SolveSource::kBaselineReuse);
  }
}

// ---------------------------------------------------------------------------
// Sweeps: provenance columns + the determinism contract

void expect_bitwise_equal(const std::vector<SweepPoint>& a,
                          const std::vector<SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].value, b[i].value) << i;
    EXPECT_EQ(a[i].availability, b[i].availability) << i;
    EXPECT_EQ(a[i].yearly_downtime_min, b[i].yearly_downtime_min) << i;
    EXPECT_EQ(a[i].eq_failure_rate, b[i].eq_failure_rate) << i;
  }
}

SweepOptions sweep_options(SolveCache* cache, std::size_t threads) {
  SweepOptions opts;
  opts.model.cache = cache;
  opts.parallel.threads = threads;
  return opts;
}

/// The reference series: a from-scratch, uncached SystemModel::build of
/// every point.
std::vector<SweepPoint> full_builds(
    const ModelSpec& m, const std::function<void(ModelSpec&, double)>& mutate,
    const std::vector<double>& values) {
  SystemModel::Options opts;
  opts.cache = nullptr;
  std::vector<SweepPoint> out;
  for (const double v : values) {
    ModelSpec point = m;
    mutate(point, v);
    const SystemModel system = SystemModel::build(std::move(point), opts);
    SweepPoint p;
    p.value = v;
    p.availability = system.availability();
    p.yearly_downtime_min = system.yearly_downtime_min();
    p.eq_failure_rate = system.eq_failure_rate();
    out.push_back(p);
  }
  return out;
}

const std::vector<double> kMtbfValues =
    rascad::core::linspace(200'000.0, 400'000.0, 16);

std::vector<SweepPoint> mtbf_sweep(const ModelSpec& m,
                                   const SweepOptions& opts) {
  return rascad::core::sweep_block_parameter(
      m, "Root", "Pair",
      [](BlockSpec& b, double v) { b.mtbf_h = v; }, kMtbfValues, opts);
}

TEST(SweepCache, IncrementalSeriesMatchesFullRebuildBitwise) {
  const ModelSpec m = small_model();
  SolveCache cache;
  const auto incremental = mtbf_sweep(m, sweep_options(&cache, 1));
  const auto full = full_builds(
      m,
      [](ModelSpec& model, double v) {
        model.find_block("Root", "Pair")->mtbf_h = v;
      },
      kMtbfValues);
  expect_bitwise_equal(incremental, full);
  // Incremental points reuse the untouched block from the baseline and
  // re-solve only the swept one.
  for (const auto& p : incremental) {
    EXPECT_EQ(p.reused_blocks, 1u) << p.value;
    EXPECT_EQ(p.fresh_blocks + p.cached_blocks, 1u) << p.value;
    EXPECT_NE(p.solve_source, "baseline");
  }
}

TEST(SweepCache, WarmSweepIsServedFromTheCacheBitwise) {
  const ModelSpec m = small_model();
  SolveCache cache;
  const auto cold = mtbf_sweep(m, sweep_options(&cache, 1));
  const auto warm = mtbf_sweep(m, sweep_options(&cache, 1));
  expect_bitwise_equal(cold, warm);
  for (const auto& p : warm) {
    EXPECT_EQ(p.fresh_blocks, 0u) << p.value;
    EXPECT_TRUE(p.solve_source == "cache" || p.solve_source == "baseline")
        << p.solve_source;
  }
}

TEST(SweepCache, SeriesIsBitIdenticalAcrossThreadCounts) {
  const ModelSpec m = small_model();
  SolveCache c1, c2, c8;
  const auto t1 = mtbf_sweep(m, sweep_options(&c1, 1));
  const auto t2 = mtbf_sweep(m, sweep_options(&c2, 2));
  const auto t8 = mtbf_sweep(m, sweep_options(&c8, 8));
  expect_bitwise_equal(t1, t2);
  expect_bitwise_equal(t1, t8);
  // And warm reruns at a different thread count stay on the same bits.
  const auto warm8 = mtbf_sweep(m, sweep_options(&c1, 8));
  expect_bitwise_equal(t1, warm8);
}

TEST(SweepCache, GlobalSweepReusesBlocksTheEditCannotReach) {
  // Tboot feeds no block of small_model's "Solo" (permanent-only Type 0),
  // so a global reboot-time sweep must reuse it at every point.
  ModelSpec m = small_model();
  m.find_block("Root", "Pair")->transient_fit = 500.0;  // Tboot reaches Pair
  SolveCache cache;
  const auto points = rascad::core::sweep_global_parameter(
      m,
      [](rascad::spec::GlobalParams& g, double v) { g.reboot_time_h = v; },
      rascad::core::linspace(0.05, 0.5, 8), sweep_options(&cache, 1));
  const auto full = full_builds(
      m, [](ModelSpec& model, double v) { model.globals.reboot_time_h = v; },
      rascad::core::linspace(0.05, 0.5, 8));
  expect_bitwise_equal(points, full);
  for (const auto& p : points) {
    EXPECT_EQ(p.reused_blocks, 1u) << p.value;
  }
}

TEST(SweepCache, BlockProbeDoesNotRequireACopy) {
  const ModelSpec m = small_model();
  EXPECT_NE(m.find_block("Root", "Solo"), nullptr);
  EXPECT_EQ(m.find_block("Root", "Nope"), nullptr);
  EXPECT_EQ(m.find_block("Nope", "Solo"), nullptr);
  EXPECT_THROW(
      rascad::core::sweep_block_parameter(
          m, "Root", "Nope", [](BlockSpec&, double) {},
          rascad::core::linspace(1.0, 2.0, 2)),
      std::invalid_argument);
}

}  // namespace
