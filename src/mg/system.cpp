#include "mg/system.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "markov/absorbing.hpp"
#include "markov/transient.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "spec/validate.hpp"

namespace rascad::mg {

namespace {

using PendingBlocks =
    std::vector<std::pair<const spec::DiagramSpec*, const spec::BlockSpec*>>;

/// The one walk of the diagram hierarchy (paper Section 4): a diagram is
/// the series of its blocks, and a block with both a chain of its own and a
/// subdiagram is the series of the two. `leaf(diagram, block)` gives the
/// value of a block's own chain and is called in visit order (own chain
/// first, then the subdiagram's blocks), the order of the solved block
/// table; `series(name, parts)` combines. Validation guarantees a tree,
/// so every block is visited once.
template <typename T, typename Leaf, typename Series>
T walk(const spec::ModelSpec& model, const spec::DiagramSpec& diagram,
       Leaf& leaf, Series& series) {
  std::vector<T> children;
  children.reserve(diagram.blocks.size());
  for (const auto& block : diagram.blocks) {
    const spec::DiagramSpec* sub = nullptr;
    if (block.subdiagram) {
      sub = model.find_diagram(*block.subdiagram);
      if (!sub) {
        throw std::invalid_argument("SystemModel: dangling subdiagram '" +
                                    *block.subdiagram + "'");
      }
    }
    if (block.has_own_failures() && sub) {
      // A braced list runs its elements in order: the own chain first.
      children.push_back(series(block.name,
                                {leaf(diagram, block),
                                 walk<T>(model, *sub, leaf, series)}));
    } else if (block.has_own_failures()) {
      children.push_back(leaf(diagram, block));
    } else if (sub) {
      children.push_back(walk<T>(model, *sub, leaf, series));
    } else {
      throw std::invalid_argument("SystemModel: block '" + block.name +
                                  "' contributes nothing");
    }
  }
  return series(diagram.name, std::move(children));
}

/// The chain-bearing blocks in visit order.
PendingBlocks chain_blocks(const spec::ModelSpec& model) {
  PendingBlocks out;
  auto leaf = [&](const spec::DiagramSpec& d, const spec::BlockSpec& b) {
    out.emplace_back(&d, &b);
    return 0;
  };
  auto series = [](const std::string&, std::vector<int>) { return 0; };
  walk<int>(model, model.root(), leaf, series);
  return out;
}

/// The system probability of a series hierarchy whose i-th chain-bearing
/// block has probability `value(i)`. Products are taken in the diagram
/// tree's own association, left to right from 1, so the result is the one
/// the printed RbdNode tree evaluates, bit for bit.
template <typename ValueFn>
double series_product(const spec::ModelSpec& model, ValueFn&& value) {
  std::size_t cursor = 0;
  auto leaf = [&](const spec::DiagramSpec&, const spec::BlockSpec&) {
    return rbd::checked_probability(value(cursor++), "SystemModel");
  };
  auto series = [](const std::string&, const std::vector<double>& parts) {
    double acc = 1.0;
    for (const double p : parts) acc *= p;
    return acc;
  };
  return walk<double>(model, model.root(), leaf, series);
}

/// Grid resolution of interval availability: every block's point
/// availability is sampled on this many segments of the horizon.
constexpr std::size_t kCurveSteps = 256;

// Curve-kind discriminants for the sampled-curve memo key. A curve is a
// pure function of the generated chain, so the chain signature plus these
// fully determines the sampled values. The version word changes whenever
// the engine's arithmetic or the layout of a value does, so a cache that
// outlives a process never serves values from another engine.
// 4: small chains on the exact zero-sum basis, the average from the
// augmented exponential raised to the horizon.
constexpr std::uint64_t kCurveKeyVersion = 4;
// The kCurveSteps + 1 samples of A(t), then the exact average of A over
// the horizon.
constexpr std::uint64_t kCurveAvailability = 1;
// The single value R(horizon).
constexpr std::uint64_t kReliabilityAtHorizon = 3;

cache::Signature curve_key(const cache::Signature& block_sig,
                           std::uint64_t kind, double horizon) {
  cache::Signature key = block_sig;
  key.append_word(kCurveKeyVersion);
  key.append_word(kind);
  key.append_double(horizon);
  return key;
}

/// Memoized sampling of one block curve (or single value): consult
/// `cache` (may be null), otherwise run `sample(stats)` and insert the
/// result. The span detail of a sampled curve names the engine's basis
/// dimension and its error bound, or `exact` for a basis written down.
template <typename SampleFn>
std::shared_ptr<const linalg::Vector> sample_curve_cached(
    const SystemModel::BlockEntry& block, std::uint64_t kind, double horizon,
    cache::SolveCache* cache, SampleFn&& sample) {
  obs::Span span("curve.sample");
  cache::Signature key;
  if (cache) {
    key = curve_key(block.signature, kind, horizon);
    if (std::shared_ptr<const linalg::Vector> hit = cache->find_curve(key)) {
      if (span.active()) {
        span.set_detail(block.diagram + "/" + block.block.name + " hit");
      }
      return hit;
    }
  }
  markov::TransientStats stats;
  auto curve = std::make_shared<const linalg::Vector>(sample(stats));
  if (span.active()) {
    char bound[40] = "exact";
    if (!stats.exact_basis) {
      std::snprintf(bound, sizeof bound, "bound=%.3g", stats.error_bound);
    }
    span.set_detail(block.diagram + "/" + block.block.name +
                    " m=" + std::to_string(stats.krylov_dim) + " " + bound);
  }
  if (cache) cache->put_curve(key, curve);
  return curve;
}

}  // namespace

SystemModel::BlockEntry solve_block_cached(
    const std::string& diagram, const spec::BlockSpec& block,
    const spec::GlobalParams& globals, const robust::CancelToken& cancel,
    cache::SolveCache* cache) {
  obs::Span solve_span("block.solve");
  SystemModel::BlockEntry entry;
  entry.diagram = diagram;
  entry.block = block;
  // The stop token is not keyed: it never changes an accepted answer, only
  // whether the solve is allowed to finish. A failed solve inserts nothing.
  entry.signature = chain_signature(block, globals);

  if (cache) {
    if (std::optional<cache::CachedBlockSolve> hit =
            cache->find_block(entry.signature)) {
      entry.chain = std::move(hit->chain);
      entry.type = classify(block);
      entry.initial = hit->initial;
      entry.availability = hit->availability;
      entry.yearly_downtime_min = yearly_downtime_minutes(hit->availability);
      entry.eq_failure_rate = hit->eq_failure_rate;
      entry.solve_trace = std::move(hit->trace);
      entry.solve_trace.source = markov::SolveSource::kCacheHit;
      if (solve_span.active()) {
        solve_span.set_detail(diagram + "/" + block.name + " " +
                              to_string(entry.solve_trace.source));
      }
      return entry;
    }
  }

  GeneratedModel generated = [&] {
    obs::Span gen_span("mg.generate");
    if (gen_span.active()) gen_span.set_detail(diagram + "/" + block.name);
    return generate(block, globals, {}, cancel);
  }();
  const markov::SteadyStateResult steady =
      markov::solve_steady_state(generated.chain, cancel, &entry.solve_trace);
  if (solve_span.active()) {
    solve_span.set_detail(diagram + "/" + block.name + " " +
                          to_string(entry.solve_trace.source));
  }
  entry.type = generated.type;
  entry.initial = generated.initial;
  entry.availability = markov::expected_reward(generated.chain, steady.pi);
  entry.yearly_downtime_min = yearly_downtime_minutes(entry.availability);
  entry.eq_failure_rate =
      markov::equivalent_failure_rate(generated.chain, steady.pi);
  entry.chain =
      std::make_shared<const markov::Ctmc>(std::move(generated.chain));

  if (cache) {
    cache::CachedBlockSolve value;
    value.chain = entry.chain;
    value.initial = entry.initial;
    value.availability = entry.availability;
    value.eq_failure_rate = entry.eq_failure_rate;
    value.trace = entry.solve_trace;  // source == kFresh: the producer
    cache->put_block(entry.signature, value);
  }
  return entry;
}

namespace {

/// Solves the blocks at `indices` into `out` through solve_block_cached.
/// With a cache, the first block of each chain signature is solved before
/// any repeat of it, so the repeats are cache hits whatever the thread
/// count — the same provenance the serial visit order gives. Two
/// concurrent first lookups of one signature would otherwise both miss.
void solve_blocks(const std::vector<std::size_t>& indices,
                  const PendingBlocks& pending,
                  const spec::GlobalParams& globals,
                  const SystemModel::Options& opts,
                  std::vector<SystemModel::BlockEntry>& out) {
  const auto solve_all = [&](const std::vector<std::size_t>& which) {
    exec::parallel_for(
        which.size(),
        [&](std::size_t j) {
          const std::size_t i = which[j];
          out[i] = solve_block_cached(pending[i].first->name,
                                      *pending[i].second, globals,
                                      opts.parallel.cancel, opts.cache);
        },
        opts.parallel);
  };
  if (!opts.cache) {
    solve_all(indices);
    return;
  }
  std::unordered_set<cache::Signature, cache::SignatureHash> seen;
  std::vector<std::size_t> firsts;
  std::vector<std::size_t> repeats;
  for (std::size_t i : indices) {
    const bool first =
        seen.insert(chain_signature(*pending[i].second, globals)).second;
    (first ? firsts : repeats).push_back(i);
  }
  solve_all(firsts);
  if (!repeats.empty()) solve_all(repeats);
}

}  // namespace

SystemModel SystemModel::build(spec::ModelSpec model, const Options& opts) {
  obs::Span build_span("system.build");
  if (obs::enabled()) {
    static obs::Counter& builds =
        obs::Registry::global().counter("system.builds");
    builds.inc();
  }
  spec::validate_or_throw(model);
  SystemModel sm;
  sm.spec_ = std::move(model);
  sm.opts_ = opts;

  // Generate and solve every block chain in parallel. Entries are written
  // by visit index, so the block table — and each entry's SolveTrace —
  // is identical to the serial build's. Parameter-identical blocks share
  // one memo entry (and one Ctmc) through opts.cache.
  const PendingBlocks pending = chain_blocks(sm.spec_);
  if (build_span.active()) {
    build_span.set_detail("blocks=" + std::to_string(pending.size()));
  }
  sm.blocks_.resize(pending.size());
  std::vector<std::size_t> all(pending.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  solve_blocks(all, pending, sm.spec_.globals, opts, sm.blocks_);
  return sm;
}

SystemModel SystemModel::rebuild(const SystemModel& base,
                                 spec::ModelSpec changed,
                                 const Options& opts) {
  obs::Span rebuild_span("system.rebuild");
  spec::validate_or_throw(changed);

  SystemModel sm;
  sm.spec_ = std::move(changed);  // pending points into sm.spec_ below
  sm.opts_ = opts;

  // The diff pairs blocks by visit index, so the hierarchy must match the
  // baseline block-for-block.
  const PendingBlocks pending = chain_blocks(sm.spec_);
  bool compatible = pending.size() == base.blocks_.size();
  for (std::size_t i = 0; compatible && i < pending.size(); ++i) {
    compatible = pending[i].first->name == base.blocks_[i].diagram &&
                 pending[i].second->name == base.blocks_[i].block.name;
  }
  if (!compatible) {
    // Detail recorded before the fallback so the trace shows this rebuild
    // degenerated into a full build (whose own span nests underneath).
    if (rebuild_span.active()) rebuild_span.set_detail("incompatible");
    return build(std::move(sm.spec_), opts);
  }

  sm.blocks_.resize(pending.size());

  // Serial diff (cheap), then only the dirty blocks re-solve — in
  // parallel, written by index, so the result is bit-identical to a full
  // build for every thread count. Field-equal specs under unchanged
  // globals are provably clean without recomputing their signature; only
  // edited blocks (or every block, after a global edit) fall through to
  // the canonical-signature comparison, which is what applies the
  // per-family masking rules.
  const bool globals_same = sm.spec_.globals == base.spec_.globals;
  std::vector<std::size_t> dirty;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const bool clean =
        (globals_same && *pending[i].second == base.blocks_[i].block) ||
        chain_signature(*pending[i].second, sm.spec_.globals) ==
            base.blocks_[i].signature;
    if (clean) {
      BlockEntry entry = base.blocks_[i];
      entry.block = *pending[i].second;  // carry spec-only edits (names ok)
      entry.solve_trace.source = markov::SolveSource::kBaselineReuse;
      sm.blocks_[i] = std::move(entry);
    } else {
      dirty.push_back(i);
    }
  }
  if (obs::enabled()) {
    if (rebuild_span.active()) {
      rebuild_span.set_detail(
          "blocks=" + std::to_string(pending.size()) +
          " dirty=" + std::to_string(dirty.size()) +
          " reused=" + std::to_string(pending.size() - dirty.size()));
    }
    static obs::Counter& rebuilds =
        obs::Registry::global().counter("system.rebuilds");
    static obs::Counter& dirty_blocks =
        obs::Registry::global().counter("system.rebuild.dirty_blocks");
    static obs::Counter& reused_blocks =
        obs::Registry::global().counter("system.rebuild.reused_blocks");
    rebuilds.inc();
    dirty_blocks.inc(dirty.size());
    reused_blocks.inc(pending.size() - dirty.size());
  }
  solve_blocks(dirty, pending, sm.spec_.globals, opts, sm.blocks_);
  return sm;
}

rbd::RbdNodePtr SystemModel::tree() const {
  std::size_t cursor = 0;
  auto leaf = [&](const spec::DiagramSpec&, const spec::BlockSpec& b) {
    return rbd::RbdNode::leaf(b.name, blocks_.at(cursor++).availability);
  };
  auto series = [](const std::string& name,
                   std::vector<rbd::RbdNodePtr> parts) {
    return rbd::RbdNode::series(name, std::move(parts));
  };
  return walk<rbd::RbdNodePtr>(spec_, spec_.root(), leaf, series);
}

double SystemModel::eq_failure_rate() const {
  double acc = 0.0;
  for (const auto& b : blocks_) acc += b.eq_failure_rate;
  return acc;
}

double SystemModel::mtbf_h() const {
  const double rate = eq_failure_rate();
  return rate > 0.0 ? 1.0 / rate : 0.0;
}

double SystemModel::interval_availability(double horizon) const {
  obs::Span span("system.interval_availability");
  if (!(horizon > 0.0)) {
    throw std::invalid_argument(
        "SystemModel::interval_availability: horizon must be positive");
  }
  // Each block's point availability on a shared grid plus its exact
  // average; the transient solves are independent, so they run in
  // parallel by index.
  const std::size_t n = blocks_.size();
  std::vector<std::shared_ptr<const linalg::Vector>> sampled(n);
  markov::TransientOptions transient;
  transient.cancel = opts_.parallel.cancel;
  exec::parallel_for(
      n,
      [&](std::size_t i) {
        const auto& b = blocks_[i];
        sampled[i] = sample_curve_cached(
            b, kCurveAvailability, horizon, opts_.cache,
            [&](markov::TransientStats& stats) {
              const linalg::Vector pi0 =
                  markov::point_mass(*b.chain, b.initial);
              double average = 0.0;
              linalg::Vector curve =
                  markov::reward_curve(*b.chain, pi0, horizon, kCurveSteps,
                                       transient, &stats, &average);
              curve.push_back(average);
              return curve;
            });
      },
      opts_.parallel);
  // Composite Simpson over the composed samples. Its error is corrected to
  // first order: block i enters A_sys(t) = prod_j (A_j + d_j(t)) with
  // weight W_i = prod_{j != i} A_j, so adding W_i (IA_i - S_i), block i's
  // exact average less its Simpson average, leaves Simpson only the
  // second-order remainder (docs/numerics.md). The product runs over whole
  // sample vectors in the tree's association, one walk for the grid.
  const auto simpson = [](const linalg::Vector& f) {
    double acc = f[0] + f[kCurveSteps];
    for (std::size_t k = 1; k < kCurveSteps; ++k) {
      acc += f[k] * (k % 2 == 1 ? 4.0 : 2.0);
    }
    return acc / (3.0 * static_cast<double>(kCurveSteps));
  };
  std::vector<double> correction(n);
  std::size_t cursor = 0;
  auto leaf = [&](const spec::DiagramSpec&, const spec::BlockSpec&) {
    const linalg::Vector& curve = *sampled[cursor];
    linalg::Vector samples(kCurveSteps + 1);
    for (std::size_t k = 0; k <= kCurveSteps; ++k) {
      samples[k] = rbd::checked_probability(curve[k], "SystemModel");
    }
    correction[cursor++] = curve.back() - simpson(samples);
    return samples;
  };
  auto series = [](const std::string&,
                   const std::vector<linalg::Vector>& parts) {
    linalg::Vector acc(kCurveSteps + 1, 1.0);
    for (const linalg::Vector& p : parts) {
      for (std::size_t k = 0; k <= kCurveSteps; ++k) acc[k] *= p[k];
    }
    return acc;
  };
  double result =
      simpson(walk<linalg::Vector>(spec_, spec_.root(), leaf, series));
  // W_i from prefix and suffix products of the limits A_j.
  std::vector<double> suffix(n + 1, 1.0);
  for (std::size_t i = n; i-- > 0;) {
    suffix[i] = suffix[i + 1] * blocks_[i].availability;
  }
  double prefix = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    result += prefix * suffix[i + 1] * correction[i];
    prefix *= blocks_[i].availability;
  }
  return result;
}

double SystemModel::reliability(double horizon) const {
  obs::Span span("system.reliability");
  if (!(horizon > 0.0)) {
    throw std::invalid_argument(
        "SystemModel::reliability: horizon must be positive");
  }
  // Each block's R_i(horizon), read once from the engine on its absorbing
  // chain (down states absorbing), then composed like availabilities.
  std::vector<double> at_horizon(blocks_.size());
  markov::TransientOptions transient;
  transient.cancel = opts_.parallel.cancel;
  exec::parallel_for(
      blocks_.size(),
      [&](std::size_t i) {
        const auto& b = blocks_[i];
        at_horizon[i] = sample_curve_cached(
            b, kReliabilityAtHorizon, horizon, opts_.cache,
            [&](markov::TransientStats& stats) {
              const markov::Ctmc rel =
                  markov::make_down_states_absorbing(*b.chain);
              // A block that cannot fail survives with certainty.
              if (rel.down_states().empty()) return linalg::Vector{1.0};
              // Reward 1 on the up (stepped) states and 0 on the absorbed
              // down states: the reward at the horizon is the survival.
              const linalg::Vector pi0 = markov::point_mass(rel, b.initial);
              return linalg::Vector{markov::reward_curve(
                  rel, pi0, horizon, 1, transient, &stats)[1]};
            })->front();
      },
      opts_.parallel);
  return series_product(spec_, [&](std::size_t i) { return at_horizon[i]; });
}

double SystemModel::availability() const {
  return series_product(spec_,
                        [&](std::size_t i) { return blocks_[i].availability; });
}

double SystemModel::availability_with_override(const std::string& diagram,
                                               const std::string& block,
                                               double value) const {
  if (value < 0.0 || value > 1.0) {
    throw std::invalid_argument(
        "availability_with_override: value outside [0, 1]");
  }
  bool found = false;
  for (const auto& b : blocks_) {
    if (b.diagram == diagram && b.block.name == block) found = true;
  }
  if (!found) {
    throw std::invalid_argument("availability_with_override: no block '" +
                                block + "' in diagram '" + diagram + "'");
  }
  return series_product(spec_, [&](std::size_t i) {
    const BlockEntry& entry = blocks_[i];
    const bool target = entry.diagram == diagram && entry.block.name == block;
    return target ? value : entry.availability;
  });
}

std::size_t SystemModel::total_states() const {
  std::size_t acc = 0;
  for (const auto& b : blocks_) acc += b.chain->size();
  return acc;
}

std::size_t SystemModel::total_transitions() const {
  std::size_t acc = 0;
  for (const auto& b : blocks_) acc += b.chain->transition_count();
  return acc;
}

}  // namespace rascad::mg
