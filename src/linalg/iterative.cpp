#include "linalg/iterative.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "resilience/solve_error.hpp"

namespace rascad::linalg {

namespace {

Vector checked_diagonal(const CsrMatrix& a, const char* who) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument(std::string(who) + ": matrix must be square");
  }
  Vector d = a.diagonal();
  for (double x : d) {
    if (x == 0.0) {
      // The diagonal splitting is singular: the sweep cannot even start.
      throw resilience::SolveError(resilience::SolveCause::kSingular, who,
                                   "zero diagonal entry");
    }
  }
  return d;
}

/// Cooperative checkpoint at the top of a solver loop: polls the token on
/// iteration 1 and then every opts.cancel_check_interval iterations.
/// Throws kCancelled/kDeadlineExceeded; never touches solver state, so an
/// uncancelled run is bitwise identical to a token-free one.
inline void checkpoint(const IterativeOptions& opts, std::size_t it,
                       const char* who, double residual) {
  if (!opts.cancel.valid()) return;
  const std::size_t interval =
      opts.cancel_check_interval > 0 ? opts.cancel_check_interval : 1;
  if (it != 1 && it % interval != 0) return;
  robust::throw_if_stopped(opts.cancel, who, it - 1, residual);
}

}  // namespace

IterativeResult jacobi_solve(const CsrMatrix& a, const Vector& b,
                             const IterativeOptions& opts) {
  const Vector diag = checked_diagonal(a, "jacobi_solve");
  const std::size_t n = a.rows();
  if (b.size() != n) {
    throw std::invalid_argument("jacobi_solve: size mismatch");
  }
  Vector x(n, 0.0);
  Vector next(n, 0.0);
  IterativeResult result;
  for (std::size_t it = 1; it <= opts.max_iterations; ++it) {
    checkpoint(opts, it, "jacobi_solve", result.residual);
    for (std::size_t r = 0; r < n; ++r) {
      double acc = b[r];
      const auto row = a.row(r);
      for (std::size_t k = 0; k < row.size; ++k) {
        if (row.cols[k] != r) acc -= row.values[k] * x[row.cols[k]];
      }
      next[r] = acc / diag[r];
    }
    const double change = max_abs_diff(next, x);
    x.swap(next);
    result.iterations = it;
    result.residual = change;
    if (change < opts.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.solution = std::move(x);
  return result;
}

IterativeResult sor_solve(const CsrMatrix& a, const Vector& b,
                          const IterativeOptions& opts) {
  const Vector diag = checked_diagonal(a, "sor_solve");
  const std::size_t n = a.rows();
  if (b.size() != n) {
    throw std::invalid_argument("sor_solve: size mismatch");
  }
  const double omega = opts.relaxation;
  Vector x(n, 0.0);
  IterativeResult result;
  for (std::size_t it = 1; it <= opts.max_iterations; ++it) {
    checkpoint(opts, it, "sor_solve", result.residual);
    double change = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      double acc = b[r];
      const auto row = a.row(r);
      for (std::size_t k = 0; k < row.size; ++k) {
        if (row.cols[k] != r) acc -= row.values[k] * x[row.cols[k]];
      }
      const double gs = acc / diag[r];
      const double updated = x[r] + omega * (gs - x[r]);
      change = std::max(change, std::abs(updated - x[r]));
      x[r] = updated;
    }
    result.iterations = it;
    result.residual = change;
    if (change < opts.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.solution = std::move(x);
  return result;
}

IterativeResult bicgstab_solve(const CsrMatrix& a, const Vector& b,
                               const IterativeOptions& opts) {
  const std::size_t n = a.rows();
  if (a.rows() != a.cols() || b.size() != n) {
    throw std::invalid_argument("bicgstab_solve: size mismatch");
  }
  IterativeResult result;
  Vector x(n, 0.0);
  Vector r = b;  // r = b - A*0
  Vector r_hat = r;
  Vector p(n, 0.0);
  Vector v(n, 0.0);
  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;
  const double b_norm = std::max(norm2(b), 1e-300);

  for (std::size_t it = 1; it <= opts.max_iterations; ++it) {
    checkpoint(opts, it, "bicgstab_solve", result.residual);
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
    Vector s = r;
    axpy(-alpha, v, s);
    if (norm2(s) / b_norm < opts.tolerance) {
      axpy(alpha, p, x);
      result.iterations = it;
      result.residual = norm2(s) / b_norm;
      result.converged = true;
      break;
    }
    const Vector t = a.mul(s);
    const double tt = dot(t, t);
    if (tt < 1e-300) break;  // breakdown
    omega = dot(t, s) / tt;
    axpy(alpha, p, x);
    axpy(omega, s, x);
    r = s;
    axpy(-omega, t, r);
    result.iterations = it;
    result.residual = norm2(r) / b_norm;
    if (!std::isfinite(result.residual)) {
      // A NaN/Inf residual never recovers; bail out as non-converged so
      // the resilience ladder can escalate instead of burning the full
      // iteration budget on poisoned arithmetic.
      result.converged = false;
      break;
    }
    if (result.residual < opts.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.solution = std::move(x);
  return result;
}

IterativeResult power_stationary(const CsrMatrix& p,
                                 const IterativeOptions& opts,
                                 std::optional<Vector> start) {
  if (p.rows() != p.cols()) {
    throw std::invalid_argument("power_stationary: matrix must be square");
  }
  const std::size_t n = p.rows();
  Vector pi = start ? std::move(*start)
                    : Vector(n, n ? 1.0 / static_cast<double>(n) : 0.0);
  if (pi.size() != n) {
    throw std::invalid_argument("power_stationary: start size mismatch");
  }
  IterativeResult result;
  // Transpose once, then every iteration is a forward SpMV.
  const CsrMatrix pt = p.transposed();
  for (std::size_t it = 1; it <= opts.max_iterations; ++it) {
    checkpoint(opts, it, "power_stationary", result.residual);
    Vector next = pt.mul(pi);
    normalize_sum(next);
    const double change = max_abs_diff(next, pi);
    pi = std::move(next);
    result.iterations = it;
    result.residual = change;
    if (change < opts.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.solution = std::move(pi);
  return result;
}

}  // namespace rascad::linalg
