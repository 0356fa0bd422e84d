// Test-local reference for the transient engine: the textbook per-step
// uniformization loop (Jensen's method), run afresh for every grid step
// (P, P^T and every Poisson weight rebuilt each time). The library's
// engine is shift-and-invert Krylov; this loop shares none of its
// arithmetic. Stepping pi itself, the loop drifts by rounding over its
// ~10^4 terms per step; stepping the deviation pi - pi_inf (which the loop
// handles like any vector) shrinks that drift by the size of the
// deviation, and the difference of the two is the oracle's own drift.
#pragma once

#include <cmath>
#include <cstddef>

#include "linalg/dense.hpp"
#include "markov/ctmc.hpp"

namespace rascad::testing {

/// pi0 advanced by t with truncation mass `tolerance`.
inline linalg::Vector oracle_transient(const markov::Ctmc& chain,
                                       const linalg::Vector& pi0, double t,
                                       double tolerance = 1e-12) {
  const auto [p, q] = chain.uniformized();
  const double a = q * t;
  const linalg::CsrMatrix pt = p.transposed();
  linalg::Vector v = pi0;
  linalg::Vector pit(chain.size(), 0.0);
  double cumulative = 0.0;
  const auto cutoff =
      static_cast<std::size_t>(a + 12.0 * std::sqrt(a) + 64.0);
  for (std::size_t k = 0;; ++k) {
    const double w =
        std::exp(-a + static_cast<double>(k) * std::log(a) -
                 std::lgamma(static_cast<double>(k) + 1.0));
    if (w > 0.0) linalg::axpy(w, v, pit);
    cumulative += w;
    if ((cumulative >= 1.0 - tolerance && static_cast<double>(k) >= a) ||
        k >= cutoff) {
      linalg::axpy(1.0 - cumulative, v, pit);
      return pit;
    }
    v = pt.mul(v);
  }
}

/// Expected reward at k * horizon / steps, one oracle_transient per step.
inline linalg::Vector oracle_reward_curve(const markov::Ctmc& chain,
                                          const linalg::Vector& pi0,
                                          double horizon, std::size_t steps) {
  const double h = horizon / static_cast<double>(steps);
  const linalg::Vector r = chain.reward_vector();
  linalg::Vector curve(steps + 1);
  linalg::Vector pi = pi0;
  curve[0] = linalg::dot(r, pi);
  for (std::size_t k = 1; k <= steps; ++k) {
    pi = oracle_transient(chain, pi, h);
    curve[k] = linalg::dot(r, pi);
  }
  return curve;
}

/// oracle_reward_curve stepping the deviation pi - pi_inf instead of pi:
/// r . pi(t) = r . pi_inf + r . (pi0 - pi_inf) advanced by t.
inline linalg::Vector oracle_deviation_curve(const markov::Ctmc& chain,
                                             const linalg::Vector& pi0,
                                             const linalg::Vector& pi_inf,
                                             double horizon,
                                             std::size_t steps) {
  const double h = horizon / static_cast<double>(steps);
  const linalg::Vector r = chain.reward_vector();
  const double base = linalg::dot(r, pi_inf);
  linalg::Vector delta = pi0;
  linalg::axpy(-1.0, pi_inf, delta);
  linalg::Vector curve(steps + 1);
  curve[0] = linalg::dot(r, pi0);
  for (std::size_t k = 1; k <= steps; ++k) {
    delta = oracle_transient(chain, delta, h);
    curve[k] = base + linalg::dot(r, delta);
  }
  return curve;
}

}  // namespace rascad::testing
