// Test-local reference solver: unpreconditioned BiCGSTAB on a sparse
// system. The library solves every linear system by banded GTH
// elimination; a Krylov solve shares none of that code, so it is an
// independent oracle for systems too large for dense_lu.hpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "linalg/csr.hpp"
#include "linalg/dense.hpp"

namespace rascad::testing {

struct BicgstabResult {
  linalg::Vector solution;
  std::size_t iterations = 0;
  double residual = 0.0;  // ||b - A x||_2 / ||b||_2 at exit
  bool converged = false;
};

/// Solves A x = b from x = 0 until the relative residual drops below
/// `tolerance`, the method breaks down, or `max_iterations` pass.
inline BicgstabResult bicgstab_solve(const linalg::CsrMatrix& a,
                                     const linalg::Vector& b,
                                     double tolerance = 1e-12,
                                     std::size_t max_iterations = 200'000) {
  using linalg::axpy;
  using linalg::dot;
  using linalg::norm2;
  const std::size_t n = a.rows();
  if (a.rows() != a.cols() || b.size() != n) {
    throw std::invalid_argument("bicgstab_solve: size mismatch");
  }
  BicgstabResult result;
  linalg::Vector x(n, 0.0);
  linalg::Vector r = b;  // r = b - A*0
  const linalg::Vector r_hat = r;
  linalg::Vector p(n, 0.0);
  linalg::Vector v(n, 0.0);
  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;
  const double b_norm = std::max(norm2(b), 1e-300);
  for (std::size_t it = 1; it <= max_iterations; ++it) {
    const double rho_next = dot(r_hat, r);
    if (std::abs(rho_next) < 1e-300) break;  // breakdown
    const double beta = (rho_next / rho) * (alpha / omega);
    rho = rho_next;
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = r[i] + beta * (p[i] - omega * v[i]);
    }
    v = a.mul(p);
    const double rhv = dot(r_hat, v);
    if (std::abs(rhv) < 1e-300) break;  // breakdown
    alpha = rho / rhv;
    linalg::Vector s = r;
    axpy(-alpha, v, s);
    result.iterations = it;
    if (norm2(s) / b_norm < tolerance) {
      axpy(alpha, p, x);
      result.residual = norm2(s) / b_norm;
      result.converged = true;
      break;
    }
    const linalg::Vector t = a.mul(s);
    const double tt = dot(t, t);
    if (tt < 1e-300) break;  // breakdown
    omega = dot(t, s) / tt;
    axpy(alpha, p, x);
    axpy(omega, s, x);
    r = s;
    axpy(-omega, t, r);
    result.residual = norm2(r) / b_norm;
    if (!std::isfinite(result.residual)) break;
    if (result.residual < tolerance) {
      result.converged = true;
      break;
    }
  }
  result.solution = std::move(x);
  return result;
}

}  // namespace rascad::testing
