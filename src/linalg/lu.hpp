// LU factorization with partial pivoting — the direct linear solver behind
// MTTF and absorption analysis of generated Markov chains (steady state
// uses the GTH elimination in markov/steady_state.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense.hpp"

namespace rascad::linalg {

/// PA = LU factorization with partial (row) pivoting.
///
/// Throws resilience::SolveError with cause kSingular (an is-a
/// std::runtime_error; historically this was a std::domain_error) if the
/// matrix is numerically singular, i.e. a pivot below the singularity
/// threshold is encountered.
class LuFactorization {
 public:
  explicit LuFactorization(DenseMatrix a, double pivot_tolerance = 1e-13);

  std::size_t size() const noexcept { return lu_.rows(); }

  /// Solves A x = b. Throws std::invalid_argument on size mismatch.
  Vector solve(const Vector& b) const;

  /// Solves A^T x = b (forward/backward sweep on the same factors).
  Vector solve_transpose(const Vector& b) const;

  /// det(A), computed from the pivots (sign-adjusted for row swaps).
  double determinant() const noexcept;

  /// Number of row exchanges performed during factorization.
  std::size_t swap_count() const noexcept { return swaps_; }

 private:
  DenseMatrix lu_;               // L (unit lower, below diag) and U (upper)
  std::vector<std::size_t> perm_;  // row permutation: row i of PA is perm_[i] of A
  std::size_t swaps_ = 0;
};

/// One-shot convenience: solve A x = b via LU. Throws
/// resilience::SolveError(kSingular) on a singular matrix.
Vector lu_solve(DenseMatrix a, const Vector& b);

}  // namespace rascad::linalg
