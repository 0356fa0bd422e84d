// Importance and sensitivity analysis.
//
// Which FRU should the RAS architect spend effort on? Classic importance
// measures over the generated hierarchy (Birnbaum, criticality, risk
// achievement/reduction worth) plus parameter elasticities computed by
// re-generating the block chain under perturbed parameters — the
// quantitative backbone of the "compare RAS quantities achievable by the
// architectures under design" use case (paper Section 2).
#pragma once

#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "mg/system.hpp"
#include "robust/cancel.hpp"

namespace rascad::core {

struct BlockImportance {
  std::string diagram;
  std::string block;
  double availability = 1.0;

  /// Birnbaum: dA_sys / dA_block = A(block perfect) - A(block failed).
  double birnbaum = 0.0;
  /// Criticality: Birnbaum scaled by block/system unavailability ratio —
  /// the probability the block is the cause of system failure.
  double criticality = 0.0;
  /// Risk achievement worth: U(block failed) / U(actual).
  double raw = 0.0;
  /// Risk reduction worth: U(actual) / U(block perfect).
  double rrw = 0.0;
  /// The block's own yearly downtime contribution (minutes).
  double yearly_downtime_min = 0.0;
  /// Provenance of the block's steady-state solve in the analysed system
  /// ("fresh", "cache-hit", or "baseline-reuse") — see markov::SolveSource.
  std::string solve_source = "fresh";
  /// Graceful-degradation outcome: kOk unless `cancel` carried a token and
  /// this block's what-if evaluation was skipped or failed. Degraded rows
  /// keep their identity (diagram/block) but zero measures.
  robust::PointStatus status = robust::PointStatus::kOk;
  std::string status_detail;

  bool ok() const noexcept { return status == robust::PointStatus::kOk; }
};

/// Importance of every chain-bearing block, sorted by descending
/// criticality. The what-ifs run serially: each is two products over the
/// solved block table, too little work for a pool to pay for. When
/// `cancel` carries a token the analysis degrades instead of throwing:
/// a token that has fired before a row skips that row and every later
/// one, and a row that throws is folded into its PointStatus. Such rows
/// keep zero measures, so they sort after every completed row.
std::vector<BlockImportance> block_importance(
    const mg::SystemModel& system, const robust::CancelToken& cancel = {});

struct ParameterSensitivity {
  std::string diagram;
  std::string block;
  /// Elasticity of system unavailability to the block MTBF:
  /// d ln U_sys / d ln MTBF (negative: longer MTBF lowers unavailability).
  double mtbf_elasticity = 0.0;
  /// d ln U_sys / d ln MTTR (positive).
  double mttr_elasticity = 0.0;
  /// d ln U_sys / d ln Tresp (positive; 0 if the block has no Tresp).
  double tresp_elasticity = 0.0;
};

/// Central-difference elasticities for every chain-bearing block with
/// permanent faults. `relative_step` is the multiplicative perturbation.
/// Blocks are processed in parallel (`par`) with index-ordered results.
std::vector<ParameterSensitivity> parameter_sensitivity(
    const mg::SystemModel& system, double relative_step = 0.05,
    const exec::ParallelOptions& par = {});

}  // namespace rascad::core
