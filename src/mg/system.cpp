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

/// Piecewise-linear interpolation of a sampled curve over [0, horizon];
/// clamps outside the range.
rbd::TimeFunction interpolate(std::shared_ptr<const linalg::Vector> curve,
                              double horizon) {
  return [curve = std::move(curve), horizon](double t) {
    const auto& c = *curve;
    if (t <= 0.0) return c.front();
    if (t >= horizon) return c.back();
    const double pos =
        t / horizon * static_cast<double>(c.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    return c[lo] * (1.0 - frac) + c[lo + 1] * frac;
  };
}

/// Recursive tree construction shared by the steady-state build and the
/// per-query transient/reliability rebuilds: the leaf factory decides what
/// each block's own chain contributes.
class TreeBuilder {
 public:
  using LeafFactory = std::function<rbd::RbdNodePtr(
      const spec::DiagramSpec&, const spec::BlockSpec&)>;

  TreeBuilder(const spec::ModelSpec& model, LeafFactory factory)
      : model_(model), factory_(std::move(factory)) {}

  rbd::RbdNodePtr build(const spec::DiagramSpec& diagram) {
    std::vector<rbd::RbdNodePtr> children;
    children.reserve(diagram.blocks.size());
    for (const auto& block : diagram.blocks) {
      rbd::RbdNodePtr own;
      if (block.has_own_failures()) {
        own = factory_(diagram, block);
      }
      rbd::RbdNodePtr sub;
      if (block.subdiagram) {
        const spec::DiagramSpec* d = model_.find_diagram(*block.subdiagram);
        if (!d) {
          throw std::invalid_argument("SystemModel: dangling subdiagram '" +
                                      *block.subdiagram + "'");
        }
        sub = build(*d);
      }
      if (own && sub) {
        children.push_back(
            rbd::RbdNode::series(block.name, {std::move(own), std::move(sub)}));
      } else if (own) {
        children.push_back(std::move(own));
      } else if (sub) {
        children.push_back(std::move(sub));
      } else {
        throw std::invalid_argument("SystemModel: block '" + block.name +
                                    "' contributes nothing");
      }
    }
    return rbd::RbdNode::series(diagram.name, std::move(children));
  }

 private:
  const spec::ModelSpec& model_;
  LeafFactory factory_;
};

/// Collects the chain-bearing blocks in the exact order TreeBuilder's leaf
/// factory visits them (own chain first, then the subdiagram's blocks), so
/// a pre-solved vector can be consumed by a running cursor.
void collect_chain_blocks(
    const spec::ModelSpec& model, const spec::DiagramSpec& diagram,
    std::vector<std::pair<const spec::DiagramSpec*, const spec::BlockSpec*>>&
        out) {
  for (const auto& block : diagram.blocks) {
    if (block.has_own_failures()) out.emplace_back(&diagram, &block);
    if (block.subdiagram) {
      const spec::DiagramSpec* sub = model.find_diagram(*block.subdiagram);
      if (!sub) {
        throw std::invalid_argument("SystemModel: dangling subdiagram '" +
                                    *block.subdiagram + "'");
      }
      collect_chain_blocks(model, *sub, out);
    }
  }
}

/// Composes the serial RBD with `leaf(i, block)` as the leaf of the i-th
/// chain-bearing block in visit order, the order of the solved block
/// table. Validation guarantees a tree, so every block is visited once.
template <typename LeafFn>
rbd::RbdNodePtr compose_leaves(const spec::ModelSpec& spec, LeafFn&& leaf) {
  std::size_t cursor = 0;
  TreeBuilder builder(
      spec, [&](const spec::DiagramSpec&,
                const spec::BlockSpec& block) -> rbd::RbdNodePtr {
        return leaf(cursor++, block);
      });
  return builder.build(spec.root());
}

/// The steady-state RBD of a solved block table.
rbd::RbdNodePtr compose_tree(
    const spec::ModelSpec& spec,
    const std::vector<SystemModel::BlockEntry>& blocks) {
  return compose_leaves(spec, [&](std::size_t i, const spec::BlockSpec& b) {
    return rbd::RbdNode::leaf(b.name, blocks.at(i).availability);
  });
}

resilience::ResilienceConfig resolve_config(const SystemModel::Options& opts) {
  resilience::ResilienceConfig config = opts.resilience;
  // The loop-level stop token also fans into every solve episode, so one
  // request token cancels both the parallel_for scheduling and the
  // eliminations it already started. An explicit config token wins.
  if (!config.cancel.valid()) config.cancel = opts.parallel.cancel;
  return config;
}


// Curve-kind discriminants for the sampled-curve memo key. A curve is a
// pure function of the generated chain, so the chain signature (without
// the solver words) plus these fully determines the sampled values. The
// version word changes whenever the engine's arithmetic does, so a cache
// that outlives a process never serves values from another engine.
constexpr std::uint64_t kCurveKeyVersion = 2;  // 2: shift-and-invert Krylov
constexpr std::uint64_t kCurveAvailability = 1;
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
/// result. The span detail of a sampled curve names the engine's Krylov
/// dimension and error bound.
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
    char bound[32];
    std::snprintf(bound, sizeof bound, "%.3g", stats.error_bound);
    span.set_detail(block.diagram + "/" + block.block.name +
                    " m=" + std::to_string(stats.krylov_dim) +
                    " bound=" + bound);
  }
  if (cache) cache->put_curve(key, curve);
  return curve;
}

}  // namespace

cache::Signature solver_signature(const resilience::ResilienceConfig& config) {
  cache::Signature s;
  // The cancel token (and any deadline it carries) is deliberately NOT
  // keyed: it never changes the accepted numbers, only whether the episode
  // is allowed to finish.
  s.append_word(config.max_states);
  // Injected faults change results by design; keying on the plan keeps
  // fault-injection runs from contaminating (or consuming) healthy entries.
  if (config.fault_plan.active()) {
    s.append_word(static_cast<std::uint64_t>(config.fault_plan.kind));
    s.append_word(static_cast<std::uint64_t>(config.fault_plan.initial));
  }
  return s;
}

SystemModel::BlockEntry solve_block_cached(
    const std::string& diagram, const spec::BlockSpec& block,
    const spec::GlobalParams& globals,
    const resilience::ResilienceConfig& config,
    const cache::Signature& solver_sig, cache::SolveCache* cache) {
  obs::Span solve_span("block.solve");
  SystemModel::BlockEntry entry;
  entry.diagram = diagram;
  entry.block = block;
  entry.signature = chain_signature(block, globals);
  cache::Signature key = entry.signature;
  key.append(solver_sig);

  if (cache) {
    if (std::optional<cache::CachedBlockSolve> hit = cache->find_block(key)) {
      entry.chain = std::move(hit->chain);
      entry.type = classify(block);
      entry.initial = hit->initial;
      entry.availability = hit->availability;
      entry.yearly_downtime_min = yearly_downtime_minutes(hit->availability);
      entry.eq_failure_rate = hit->eq_failure_rate;
      entry.solve_trace = std::move(hit->trace);
      entry.solve_trace.source = resilience::SolveSource::kCacheHit;
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
    return generate(block, globals);
  }();
  resilience::ResilientResult solved =
      resilience::solve_steady_state_resilient(generated.chain, config);
  const markov::SteadyStateResult& steady = solved.result;
  entry.solve_trace = std::move(solved.trace);
  entry.solve_trace.source = resilience::SolveSource::kFresh;
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
    value.pi = std::make_shared<const linalg::Vector>(steady.pi);
    value.availability = entry.availability;
    value.eq_failure_rate = entry.eq_failure_rate;
    value.trace = entry.solve_trace;  // source == kFresh: the producer
    cache->put_block(key, value);
  }
  return entry;
}

namespace {

using PendingBlocks =
    std::vector<std::pair<const spec::DiagramSpec*, const spec::BlockSpec*>>;

/// Solves the blocks at `indices` into `out` through solve_block_cached.
/// With a cache, the first block of each chain signature is solved before
/// any repeat of it, so the repeats are cache hits whatever the thread
/// count — the same provenance the serial visit order gives. Two
/// concurrent first lookups of one signature would otherwise both miss.
void solve_blocks(const std::vector<std::size_t>& indices,
                  const PendingBlocks& pending,
                  const spec::GlobalParams& globals,
                  const resilience::ResilienceConfig& config,
                  const cache::Signature& solver_sig,
                  const SystemModel::Options& opts,
                  std::vector<SystemModel::BlockEntry>& out) {
  const auto solve_all = [&](const std::vector<std::size_t>& which) {
    exec::parallel_for(
        which.size(),
        [&](std::size_t j) {
          const std::size_t i = which[j];
          out[i] = solve_block_cached(pending[i].first->name,
                                      *pending[i].second, globals, config,
                                      solver_sig, opts.cache);
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

  const resilience::ResilienceConfig solve_config = resolve_config(opts);
  sm.solver_sig_ = solver_signature(solve_config);

  // Generate and solve every block chain in parallel. Entries are written
  // by visit index, so the block table — and each entry's SolveTrace —
  // is identical to the serial build's. Parameter-identical blocks share
  // one memo entry (and one Ctmc) through opts.cache.
  PendingBlocks pending;
  collect_chain_blocks(sm.spec_, sm.spec_.root(), pending);
  if (build_span.active()) {
    build_span.set_detail("blocks=" + std::to_string(pending.size()));
  }
  sm.blocks_.resize(pending.size());
  std::vector<std::size_t> all(pending.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  solve_blocks(all, pending, sm.spec_.globals, solve_config, sm.solver_sig_,
               opts, sm.blocks_);

  sm.root_ = compose_tree(sm.spec_, sm.blocks_);
  return sm;
}

SystemModel SystemModel::rebuild(const SystemModel& base,
                                 spec::ModelSpec changed,
                                 const Options& opts) {
  obs::Span rebuild_span("system.rebuild");
  spec::validate_or_throw(changed);
  const resilience::ResilienceConfig solve_config = resolve_config(opts);
  cache::Signature solver_sig = solver_signature(solve_config);

  SystemModel sm;
  sm.spec_ = std::move(changed);  // pending points into sm.spec_ below
  sm.opts_ = opts;

  // The diff pairs blocks by visit index, so the hierarchy must match the
  // baseline block-for-block (and the solver settings must match, or the
  // baseline's numbers would vouch for a different configuration).
  PendingBlocks pending;
  collect_chain_blocks(sm.spec_, sm.spec_.root(), pending);
  bool compatible = pending.size() == base.blocks_.size() &&
                    solver_sig == base.solver_sig_;
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

  sm.solver_sig_ = std::move(solver_sig);
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
      entry.solve_trace.source = resilience::SolveSource::kBaselineReuse;
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
  solve_blocks(dirty, pending, sm.spec_.globals, solve_config,
               sm.solver_sig_, opts, sm.blocks_);

  sm.root_ = compose_tree(sm.spec_, sm.blocks_);
  return sm;
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
  // Precompute each block's point-availability curve on a shared grid; the
  // transient solves are independent, so they run in parallel by index.
  std::vector<std::shared_ptr<const linalg::Vector>> sampled(blocks_.size());
  markov::TransientOptions transient;
  transient.cancel = opts_.parallel.cancel;
  exec::parallel_for(
      blocks_.size(),
      [&](std::size_t i) {
        const auto& b = blocks_[i];
        sampled[i] = sample_curve_cached(
            b, kCurveAvailability, horizon, opts_.cache,
            [&](markov::TransientStats& stats) {
              const linalg::Vector pi0 =
                  markov::point_mass(*b.chain, b.initial);
              return markov::reward_curve(*b.chain, pi0, horizon,
                                          kCurveSteps, transient, &stats);
            });
      },
      opts_.parallel);
  const rbd::RbdNodePtr tree = compose_leaves(
      spec_, [&](std::size_t i, const spec::BlockSpec& block) {
        return rbd::RbdNode::leaf(block.name, sampled.at(i)->back(),
                                  interpolate(sampled.at(i), horizon));
      });
  return tree->interval_availability(horizon, kCurveSteps);
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
  return compose_leaves(spec_,
                        [&](std::size_t i, const spec::BlockSpec& b) {
                          return rbd::RbdNode::leaf(b.name, at_horizon[i]);
                        })
      ->availability();
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
  return compose_leaves(spec_,
                        [&](std::size_t i, const spec::BlockSpec& blk) {
                          const BlockEntry& entry = blocks_.at(i);
                          const bool target = entry.diagram == diagram &&
                                              entry.block.name == block;
                          return rbd::RbdNode::leaf(
                              blk.name, target ? value : entry.availability);
                        })
      ->availability();
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
