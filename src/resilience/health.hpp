// Numerical health verification for solver outputs.
//
// Every ladder rung's result passes through these checks before it is
// accepted: a NaN/Inf scan, negative-probability clamping with tolerance
// accounting, and a residual re-check computed independently of whatever
// metric the solver itself reported. The MTTF direct rung additionally gets
// a cheap 1-norm condition estimate (Hager/Higham) from its LU factors, so
// silently inaccurate solves on ill-conditioned systems are caught instead
// of propagated into availability numbers. (The stationary direct rung is
// GTH elimination, accurate componentwise, so it needs no estimate.)
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "linalg/dense.hpp"
#include "linalg/lu.hpp"
#include "markov/ctmc.hpp"
#include "resilience/solve_error.hpp"

namespace rascad::resilience {

struct HealthCheckConfig {
  /// Largest total negative probability mass clamped to zero without
  /// failing the check. Mass beyond this indicates a wrong answer, not
  /// round-off.
  double clamp_tolerance = 1e-9;
  /// The independent residual re-check accepts
  /// ||pi Q||_inf <= residual_factor * tolerance * max(1, max exit rate);
  /// the rate scaling keeps the bound meaningful for stiff chains whose
  /// generator entries span many orders of magnitude.
  double residual_factor = 1e4;
  /// MTTF direct-rung conditioning threshold: a 1-norm condition estimate
  /// above this fails the rung with kBadConditioning.
  double max_condition = 1e14;
};

/// Outcome of verifying one candidate stationary vector.
struct HealthReport {
  bool ok = true;
  std::optional<SolveCause> failure;  // set when !ok
  std::string detail;
  double clamped_mass = 0.0;   // negative mass clamped (absolute value)
  double residual_inf = 0.0;   // independently recomputed ||pi Q||_inf
  double residual_l1 = 0.0;    // independently recomputed ||pi Q||_1
};

/// True iff every entry is finite.
bool all_finite(const linalg::Vector& v) noexcept;

/// Distribution-only verification (no generator residual): NaN/Inf scan,
/// clamp-and-account of negative entries, renormalization in place. Used
/// by the DTMC/SMP/transient paths whose residual metric differs from
/// ||pi Q||.
HealthReport check_distribution(linalg::Vector& pi,
                                const HealthCheckConfig& config);

/// Verifies (and repairs, where legitimate) a candidate stationary vector:
/// NaN/Inf scan, clamp-and-account of negative entries, renormalization,
/// then a residual re-check of ||pi Q|| in two norms. `pi` is modified in
/// place (clamping + renormalization) only when the checks pass far enough
/// to make that meaningful.
HealthReport check_stationary(const markov::Ctmc& chain, linalg::Vector& pi,
                              const HealthCheckConfig& config,
                              double tolerance);

/// 1-norm of a dense matrix (max absolute column sum).
double dense_norm_1(const linalg::DenseMatrix& a);

/// Hager/Higham estimate of cond_1(A) = ||A||_1 * ||A^{-1}||_1 using the
/// already-computed LU factors (a handful of solves, O(n^2) each — cheap
/// next to the O(n^3) factorization it piggybacks on). `a_norm_1` is the
/// 1-norm of the original matrix.
double condition_estimate_1(const linalg::LuFactorization& lu,
                            double a_norm_1);

}  // namespace rascad::resilience
