// Transient analysis of CTMCs by uniformization (Jensen's method), the
// standard numerically robust approach (Reibman/Trivedi 1989 — reference
// [6] of the paper). Provides point-in-time state probabilities and the
// time-averaged accumulated reward, i.e. interval availability over (0, T).
//
// Every function here runs on one engine: for a chain and a step length it
// builds P^T and the Poisson weights once, then advances pi step by step
// and stops stepping once pi is stationary (docs/numerics.md states the
// test and its error bound).
#pragma once

#include <cstddef>

#include "linalg/dense.hpp"
#include "markov/ctmc.hpp"
#include "robust/cancel.hpp"

namespace rascad::markov {

struct TransientOptions {
  /// Admissible Poisson truncation mass per step; also the stationarity
  /// threshold: stepping stops once one step moves pi by at most this
  /// much in the 1-norm.
  double tolerance = 1e-12;
  /// Hard cap on Poisson terms (sparse matrix-vector products) per call.
  std::size_t max_terms = 20'000'000;
  /// Request token, polled at every step and every 64 terms within it;
  /// when it fires the call throws SolveError(kCancelled /
  /// kDeadlineExceeded). An inert token never changes a result.
  robust::CancelToken cancel;
};

/// State-probability vector at time t, starting from distribution pi0.
/// Throws std::invalid_argument for negative t / bad pi0, and
/// resilience::SolveError(kBudgetExceeded) — an is-a std::runtime_error —
/// if max_terms is exceeded before pi is stationary or t is reached.
linalg::Vector transient_distribution(const Ctmc& chain,
                                      const linalg::Vector& pi0, double t,
                                      const TransientOptions& opts = {});

/// Expected accumulated reward over (0, t): integral of r . pi(u) du.
double accumulated_reward(const Ctmc& chain, const linalg::Vector& pi0,
                          double t, const TransientOptions& opts = {});

/// Interval availability over (0, t): accumulated 0/1 reward divided by t.
double interval_availability(const Ctmc& chain, const linalg::Vector& pi0,
                             double t, const TransientOptions& opts = {});

/// Expected number of up->down transitions over (0, t): the integral of
/// the instantaneous up->down probability flow. With `up_to_down` false,
/// counts down->up (recovery) transitions instead.
double expected_crossings(const Ctmc& chain, const linalg::Vector& pi0,
                          double t, bool up_to_down = true,
                          const TransientOptions& opts = {});

/// The paper's Section 4 interval measures over (0, t), from one pass that
/// integrates the reward, both crossing flows and the down time together.
/// The down time is integrated directly (down states: reward <= 0), so the
/// recovery rate keeps its digits when 1 - A is small.
struct IntervalMeasures {
  double availability = 1.0;   // accumulated reward / t
  double failure_rate = 0.0;   // up->down crossings / expected up time
  double recovery_rate = 0.0;  // down->up crossings / expected down time
};
IntervalMeasures interval_measures(const Ctmc& chain,
                                   const linalg::Vector& pi0, double t,
                                   const TransientOptions& opts = {});

/// Interval equivalent failure rate over (0, t): expected up->down
/// crossings divided by expected up time (paper Section 4's "interval ...
/// failure and recovery rates for (0, T)").
double interval_failure_rate(const Ctmc& chain, const linalg::Vector& pi0,
                             double t, const TransientOptions& opts = {});

/// Interval equivalent recovery rate over (0, t): expected down->up
/// crossings divided by expected down time. Returns 0 when no down time
/// is accumulated.
double interval_recovery_rate(const Ctmc& chain, const linalg::Vector& pi0,
                              double t, const TransientOptions& opts = {});

/// Point availability at time t: expected reward of pi(t).
double point_availability(const Ctmc& chain, const linalg::Vector& pi0,
                          double t, const TransientOptions& opts = {});

/// Initial distribution concentrated on `state`.
linalg::Vector point_mass(const Ctmc& chain, StateIndex state);

/// Expected reward at each grid point k * (horizon / steps), k = 0..steps.
/// One engine steps pi from grid point to grid point, so the whole curve
/// costs one uniformization pass (the curves feed hierarchical RBD
/// composition, which samples every block on a shared grid). Once pi is
/// stationary the remaining points repeat the last value; `stop_step`
/// (optional) receives the grid index where that happened, or `steps`
/// when every point was stepped.
linalg::Vector reward_curve(const Ctmc& chain, const linalg::Vector& pi0,
                            double horizon, std::size_t steps,
                            const TransientOptions& opts = {},
                            std::size_t* stop_step = nullptr);

}  // namespace rascad::markov
