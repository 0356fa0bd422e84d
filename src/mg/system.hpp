// Hierarchical translation of a diagram/block model (paper Section 4):
// each MG diagram becomes a serial RBD over its blocks, each block a
// generated Markov chain, blocks with subdiagrams compose their own chain
// (if any) in series with the subdiagram's RBD. The overall model is a
// hierarchy of RBDs and Markov chains, solved bottom-up: every system
// measure is a product over the solved block table.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>


#include "cache/signature.hpp"
#include "cache/solve_cache.hpp"
#include "exec/parallel.hpp"
#include "markov/health.hpp"
#include "markov/steady_state.hpp"
#include "mg/generator.hpp"
#include "mg/measures.hpp"
#include "rbd/rbd.hpp"
#include "spec/ast.hpp"

namespace rascad::mg {

/// A fully generated and solved system model.
class SystemModel {
 public:
  struct Options {
    /// Thread-count control for the per-block solves and curve
    /// sampling. Block order, measures, and every SolveTrace are
    /// bit-identical for any thread count. Its stop token also fans into
    /// every block solve, so one request token cancels both the loop and
    /// the eliminations it already started.
    exec::ParallelOptions parallel;
    /// Memo table consulted for block solves and sampled curves; nullptr
    /// disables memoization (every chain generated and solved fresh).
    /// Results are bit-identical either way — a signature match guarantees
    /// the cached solve performed the identical arithmetic.
    cache::SolveCache* cache = &cache::SolveCache::global();
  };

  /// One generated block chain with its solved measures.
  struct BlockEntry {
    std::string diagram;          // owning diagram name
    spec::BlockSpec block;        // full parameter copy
    std::shared_ptr<const markov::Ctmc> chain;  // null for pure wrappers
    MarkovModelType type = MarkovModelType::kType0;
    markov::StateIndex initial = 0;
    double availability = 1.0;
    double yearly_downtime_min = 0.0;
    double eq_failure_rate = 0.0;
    /// Solve episode that produced this block's stationary solution; its
    /// `source` records whether the numbers came from a fresh solve, the
    /// memo cache, or baseline reuse during an incremental rebuild.
    markov::SolveTrace solve_trace;
    /// Canonical chain signature (mg::chain_signature): the block-solve
    /// memo key.
    cache::Signature signature;
  };

  /// Validates the spec (throws std::invalid_argument on errors), then
  /// generates and solves every block chain.
  /// Taken by value: the model is stored in the result, so callers that
  /// are done with their copy can std::move it in (sweeps do).
  static SystemModel build(spec::ModelSpec model, const Options& opts);
  static SystemModel build(spec::ModelSpec model) {
    return build(std::move(model), Options{});
  }

  /// Incremental rebuild against a solved baseline: re-generates and
  /// re-solves only the blocks whose chain signature differs from the
  /// baseline's (a global edit therefore dirties only the blocks it
  /// actually feeds) and reuses every untouched BlockEntry (sharing the
  /// chain). Falls back to a full build when the
  /// hierarchy structure changed (block added / removed / renamed /
  /// reordered).
  /// Results are bit-identical to a full build of `changed`.
  static SystemModel rebuild(const SystemModel& base, spec::ModelSpec changed,
                             const Options& opts);
  static SystemModel rebuild(const SystemModel& base,
                             spec::ModelSpec changed) {
    return rebuild(base, std::move(changed), base.opts_);
  }

  /// Steady-state system availability (product over the serial hierarchy).
  double availability() const;
  double yearly_downtime_min() const {
    return mg::yearly_downtime_minutes(availability());
  }

  /// Equivalent steady-state system failure rate: the sum of the block
  /// up->down flow rates (series system of independent blocks).
  double eq_failure_rate() const;

  /// System MTBF implied by the equivalent failure rate (hours).
  double mtbf_h() const;

  /// Interval availability over (0, horizon): composite Simpson over the
  /// product of the per-block point-availability samples on a 256-segment
  /// grid, corrected to first order by each block's exact average.
  double interval_availability(double horizon) const;

  /// System reliability at `horizon`: the product of the per-block
  /// absorbing-chain survivals R_i(horizon).
  double reliability(double horizon) const;

  /// System availability with one block's availability forced to `value`
  /// (the rest of the tree unchanged) — the primitive behind Birnbaum /
  /// RAW / RRW importance measures. Throws std::invalid_argument if the
  /// block does not exist or carries no chain of its own.
  double availability_with_override(const std::string& diagram,
                                    const std::string& block,
                                    double value) const;

  /// The steady-state RBD of the hierarchy, composed on each call for
  /// printing. Every measure above is a product over the block table,
  /// taken in this tree's association; the tree itself does not integrate.
  rbd::RbdNodePtr tree() const;
  const std::vector<BlockEntry>& blocks() const noexcept { return blocks_; }
  const spec::ModelSpec& spec() const noexcept { return spec_; }
  const Options& options() const noexcept { return opts_; }

  /// Total generated chain states / transitions across all blocks.
  std::size_t total_states() const;
  std::size_t total_transitions() const;

 private:
  SystemModel() = default;

  spec::ModelSpec spec_;
  Options opts_;
  std::vector<BlockEntry> blocks_;
};

/// Generates and solves one block in one checked solve under `cancel`,
/// consulting `cache` (may be null) under the block's chain signature. The
/// shared primitive behind SystemModel::build / rebuild and the memoized
/// sensitivity probes.
SystemModel::BlockEntry solve_block_cached(
    const std::string& diagram, const spec::BlockSpec& block,
    const spec::GlobalParams& globals, const robust::CancelToken& cancel,
    cache::SolveCache* cache);

}  // namespace rascad::mg
