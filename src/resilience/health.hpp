// Numerical health verification for solver outputs.
//
// Every solve episode's result passes through these checks before it is
// accepted: a NaN/Inf scan, negative-probability clamping with tolerance
// accounting, and a residual re-check computed independently of whatever
// metric the solver itself reported. Stationary vectors are judged by
// ||pi Q||; mean times to absorption by their componentwise backward
// error, which stays meaningful however large the times get.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "linalg/csr.hpp"
#include "markov/ctmc.hpp"
#include "resilience/solve_error.hpp"

namespace rascad::resilience {

/// Largest total negative probability mass clamped to zero without
/// failing the check. Mass beyond this indicates a wrong answer, not
/// round-off.
inline constexpr double kClampTolerance = 1e-9;
/// The independent residual re-check accepts
/// ||pi Q||_inf <= kResidualBound * max(1, max exit rate);
/// the rate scaling keeps the bound meaningful for stiff chains whose
/// generator entries span many orders of magnitude. Absorption times and
/// DTMC fixed points are held to kResidualBound unscaled.
inline constexpr double kResidualBound = 1e-9;

/// Outcome of verifying one candidate vector.
struct HealthReport {
  bool ok = true;
  std::optional<SolveCause> failure;  // set when !ok
  std::string detail;
  double clamped_mass = 0.0;   // negative mass clamped (absolute value)
  double residual_inf = 0.0;   // independently recomputed ||pi Q||_inf
                               // (backward error for absorption times)
};

/// True iff every entry is finite.
bool all_finite(const linalg::Vector& v) noexcept;

/// Distribution-only verification (no generator residual): NaN/Inf scan,
/// clamp-and-account of negative entries, and renormalization in place
/// when (and only when) negative mass was clamped: an unclamped vector is
/// kept bit for bit. Used by the DTMC/SMP paths whose residual metric
/// differs from ||pi Q||.
HealthReport check_distribution(linalg::Vector& pi);

/// Verifies (and repairs, where legitimate) a candidate stationary vector:
/// NaN/Inf scan, clamp-and-account of negative entries, renormalization
/// after a clamp, then a residual re-check of ||pi Q||_inf. `pi` is modified in
/// place (clamping + renormalization) only when the checks pass far enough
/// to make that meaningful.
HealthReport check_stationary(const markov::Ctmc& chain, linalg::Vector& pi);

/// Verifies candidate mean times to absorption `tau` against the
/// fundamental system a tau = 1, where a = -Q_TT is the generator
/// restricted to the transient states: NaN/Inf and negative-value scans,
/// then the componentwise backward error
///   max_i |a tau - 1|_i / (|a| |tau| + 1)_i <= kResidualBound.
/// Round-off in a tau grows with |a| |tau|, so an absolute bound on
/// ||a tau - 1|| would reject exact answers once tau reaches ~1e9.
HealthReport check_absorption_times(const linalg::CsrMatrix& a,
                                    const linalg::Vector& tau);

}  // namespace rascad::resilience
