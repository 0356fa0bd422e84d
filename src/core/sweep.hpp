// Parametric analysis (paper Section 1: "graphical output and parametric
// analysis capability"): re-solve the model over a sweep of one block or
// global parameter and report the availability series.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "mg/system.hpp"
#include "robust/cancel.hpp"
#include "spec/ast.hpp"

namespace rascad::core {

struct SweepPoint {
  double value = 0.0;
  double availability = 1.0;
  double yearly_downtime_min = 0.0;
  double eq_failure_rate = 0.0;
  /// Dominant provenance of this point's block solves: "baseline" when
  /// every block was reused from the sweep's baseline, "cache" when
  /// everything else came from the memo table, "fresh" when at least one
  /// chain was generated and solved from scratch. Informational — the
  /// numeric series above is bit-identical regardless of provenance.
  std::string solve_source = "fresh";
  std::size_t fresh_blocks = 0;   // generated + solved this point
  std::size_t cached_blocks = 0;  // served from the memo table
  std::size_t reused_blocks = 0;  // carried over from the baseline model
  /// Graceful-degradation outcome. Always kOk on the strict paths (no
  /// request token in SweepOptions::parallel); under a cancel/deadline
  /// token a point that never completed carries the reason here, keeps NaN
  /// measures, and reports solve_source "none". A deadline-bounded sweep
  /// therefore returns every completed point plus per-point provenance for
  /// the rest instead of throwing the whole series away.
  robust::PointStatus status = robust::PointStatus::kOk;
  /// Cancellation / failure detail; empty when ok.
  std::string status_detail;

  bool ok() const noexcept { return status == robust::PointStatus::kOk; }
};

/// Knobs for the sweeps. A sweep solves the base spec once, then
/// rebuilds it per value, re-solving only the blocks that value actually
/// dirties; `model` flows into the baseline build and every rebuild
/// (threads, stop token, memo cache). The series is bit-identical to full
/// builds of every point.
struct SweepOptions {
  /// Thread count for the point loop. Setting `parallel.cancel`
  /// additionally opts the sweep into graceful degradation: the token fans
  /// into every build/rebuild (down to the solver iteration loops), and a
  /// stop no longer throws — unfinished points are returned with their
  /// PointStatus instead.
  exec::ParallelOptions parallel;
  mg::SystemModel::Options model;
};

/// Mutator applied to the targeted block for each sweep value.
using BlockMutator = std::function<void(spec::BlockSpec&, double)>;
/// Mutator applied to the global parameters for each sweep value.
using GlobalMutator = std::function<void(spec::GlobalParams&, double)>;

/// Sweeps a block parameter: for each value, copies the model, applies the
/// mutator to the named block (in the named diagram), re-generates, and
/// solves. Throws std::invalid_argument if the block does not exist.
///
/// The points are solved in parallel (`par` controls the thread count; the
/// mutator must therefore be reentrant — it is invoked concurrently on
/// distinct model copies). Results are written by index, so the series is
/// bit-identical for every thread count.
std::vector<SweepPoint> sweep_block_parameter(
    const spec::ModelSpec& base, const std::string& diagram,
    const std::string& block, const BlockMutator& mutate,
    const std::vector<double>& values, const SweepOptions& opts);
std::vector<SweepPoint> sweep_block_parameter(
    const spec::ModelSpec& base, const std::string& diagram,
    const std::string& block, const BlockMutator& mutate,
    const std::vector<double>& values, const exec::ParallelOptions& par = {});

/// Sweeps a global parameter over all values. Same parallelism and
/// determinism contract as sweep_block_parameter. A global edit re-solves
/// only the blocks whose derived rates it reaches (signature masking);
/// blocks it cannot affect are baseline reuses.
std::vector<SweepPoint> sweep_global_parameter(
    const spec::ModelSpec& base, const GlobalMutator& mutate,
    const std::vector<double>& values, const SweepOptions& opts);
std::vector<SweepPoint> sweep_global_parameter(
    const spec::ModelSpec& base, const GlobalMutator& mutate,
    const std::vector<double>& values, const exec::ParallelOptions& par = {});

/// Evenly spaced values in [lo, hi] (n >= 2 points).
std::vector<double> linspace(double lo, double hi, std::size_t n);

/// Logarithmically spaced values in [lo, hi], lo > 0 (n >= 2 points).
std::vector<double> logspace(double lo, double hi, std::size_t n);

}  // namespace rascad::core
