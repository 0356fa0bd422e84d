// Iterative linear and eigen solvers for sparse systems.
//
// Large generated chains (high redundancy depth, deep hierarchies) are
// solved with Gauss-Seidel / SOR sweeps or power iteration rather than a
// dense factorization. All solvers report convergence diagnostics instead
// of failing silently.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "robust/cancel.hpp"

namespace rascad::linalg {

struct IterativeOptions {
  double tolerance = 1e-12;      // infinity-norm change / residual threshold
  std::size_t max_iterations = 200'000;
  double relaxation = 1.0;       // SOR omega; 1.0 == plain Gauss-Seidel
  /// Cooperative stop: checked every cancel_check_interval iterations at
  /// the top of the solver loop. A stopped token throws
  /// SolveError(kCancelled / kDeadlineExceeded) carrying the iteration
  /// count reached. Checkpoints never change arithmetic — an uncancelled
  /// run is bitwise identical to one without a token (default token is
  /// inert and costs one branch per check).
  robust::CancelToken cancel;
  std::size_t cancel_check_interval = 64;
};

struct IterativeResult {
  Vector solution;
  std::size_t iterations = 0;
  double residual = 0.0;  // final convergence metric
  bool converged = false;
};

/// Solves A x = b with Jacobi iteration. Requires a nonzero diagonal;
/// throws resilience::SolveError(kSingular) otherwise (historically
/// std::domain_error).
IterativeResult jacobi_solve(const CsrMatrix& a, const Vector& b,
                             const IterativeOptions& opts = {});

/// Solves A x = b with Gauss-Seidel / SOR (opts.relaxation = omega).
/// Requires a nonzero diagonal; throws resilience::SolveError(kSingular)
/// otherwise (historically std::domain_error).
IterativeResult sor_solve(const CsrMatrix& a, const Vector& b,
                          const IterativeOptions& opts = {});

/// Solves A x = b with BiCGSTAB (no preconditioner). Suitable for the
/// nonsymmetric singular-shifted systems arising from CTMC analysis.
IterativeResult bicgstab_solve(const CsrMatrix& a, const Vector& b,
                               const IterativeOptions& opts = {});

/// Stationary distribution of a row-stochastic matrix P (pi = pi P) by
/// power iteration on the transpose. `start` defaults to uniform.
IterativeResult power_stationary(const CsrMatrix& p,
                                 const IterativeOptions& opts = {},
                                 std::optional<Vector> start = std::nullopt);

}  // namespace rascad::linalg
