// Test-local reference solver: dense LU with partial pivoting. The library
// has no dense factorization (its exact solvers are banded GTH
// elimination), so the oracles that need an independent answer to A x = b
// use this one.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "dense_matrix.hpp"

namespace rascad::testing {

/// Solves A x = b by Gaussian elimination with row pivoting. Throws
/// std::domain_error on a zero pivot.
inline linalg::Vector dense_lu_solve(linalg::DenseMatrix a, linalg::Vector b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    throw std::invalid_argument("dense_lu_solve: shape mismatch");
  }
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::abs(a(i, k)) > std::abs(a(p, k))) p = i;
    }
    if (a(p, k) == 0.0) throw std::domain_error("dense_lu_solve: singular");
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(p, j));
      std::swap(b[k], b[p]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = a(i, k) / a(k, k);
      if (f == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= f * a(k, j);
      b[i] -= f * b[k];
    }
  }
  linalg::Vector x(n);
  for (std::size_t k = n; k-- > 0;) {
    double acc = b[k];
    for (std::size_t j = k + 1; j < n; ++j) acc -= a(k, j) * x[j];
    x[k] = acc / a(k, k);
  }
  return x;
}

}  // namespace rascad::testing
