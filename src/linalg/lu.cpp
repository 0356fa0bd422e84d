#include "linalg/lu.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "resilience/solve_error.hpp"

namespace rascad::linalg {

LuFactorization::LuFactorization(DenseMatrix a, double pivot_tolerance)
    : lu_(std::move(a)) {
  if (lu_.rows() != lu_.cols()) {
    throw std::invalid_argument("LuFactorization: matrix must be square");
  }
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: bring the largest remaining column entry to (k, k).
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(lu_(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < pivot_tolerance) {
      throw resilience::SolveError(resilience::SolveCause::kSingular,
                                   "LuFactorization",
                                   "matrix is singular (pivot " +
                                       std::to_string(pivot_mag) +
                                       " at column " + std::to_string(k) +
                                       ")");
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(k, c), lu_(pivot_row, c));
      }
      std::swap(perm_[k], perm_[pivot_row]);
      ++swaps_;
    }
    const double pivot = lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) / pivot;
      lu_(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) {
        lu_(r, c) -= factor * lu_(k, c);
      }
    }
  }
}

Vector LuFactorization::solve(const Vector& b) const {
  const std::size_t n = size();
  if (b.size() != n) {
    throw std::invalid_argument("LuFactorization::solve: size mismatch");
  }
  // L y = P b (unit lower triangular, forward).
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * y[j];
    y[i] = acc;
  }
  // U x = y (backward).
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

Vector LuFactorization::solve_transpose(const Vector& b) const {
  const std::size_t n = size();
  if (b.size() != n) {
    throw std::invalid_argument(
        "LuFactorization::solve_transpose: size mismatch");
  }
  // A^T = U^T L^T P, so solve U^T y = b, L^T w = y, then undo the permutation.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(j, i) * y[j];
    y[i] = acc / lu_(i, i);
  }
  Vector w(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(j, ii) * w[j];
    w[ii] = acc;  // L has unit diagonal
  }
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = w[i];
  return x;
}

double LuFactorization::determinant() const noexcept {
  double det = (swaps_ % 2 == 0) ? 1.0 : -1.0;
  for (std::size_t i = 0; i < size(); ++i) det *= lu_(i, i);
  return det;
}

Vector lu_solve(DenseMatrix a, const Vector& b) {
  return LuFactorization(std::move(a)).solve(b);
}

}  // namespace rascad::linalg
