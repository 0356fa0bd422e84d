// Transient analysis of CTMCs: point-in-time state probabilities, the
// time-averaged accumulated reward (interval availability over (0, T)),
// crossing counts and reward curves. Stiff transient solution is the hard
// part of availability modelling (Reibman/Trivedi 1989, reference [6] of
// the paper).
//
// Every function here runs on one engine: pi0 - pi_inf (pi_inf from GTH)
// stepped on a small basis through one small matrix exponential per call.
// A chain whose stepped space has at most 12 dimensions takes zero-sum
// (or unit) coordinates of that whole space, which are exact; a larger
// one factors I - gamma Q once with the banded GTH code and grows a
// shift-and-invert Arnoldi basis until a residual bound certifies the
// whole horizon (docs/numerics.md states the method and the bound).
#pragma once

#include <cstddef>

#include "linalg/dense.hpp"
#include "markov/ctmc.hpp"
#include "robust/cancel.hpp"

namespace rascad::markov {

struct TransientOptions {
  /// Bound on the 1-norm error of pi(t) over the whole horizon: the Krylov
  /// dimension grows until its residual bound meets it.
  double tolerance = 1e-12;
  /// Request token, polled once on the exact basis, and at every banded
  /// solve and Arnoldi step (and every 64 states of the factorization) on
  /// the Krylov path; when it fires the call throws
  /// SolveError(kCancelled / kDeadlineExceeded). An inert token never
  /// changes a result.
  robust::CancelToken cancel;
};

/// The work one engine did: its basis dimension (0 when pi is constant),
/// the certified bound on the 1-norm error of pi(t) over the horizon, and
/// whether the basis was written down exactly (bound 0, no Arnoldi).
struct TransientStats {
  std::size_t krylov_dim = 0;
  double error_bound = 0.0;
  bool exact_basis = false;
};

/// State-probability vector at time t, starting from distribution pi0.
/// Throws std::invalid_argument for negative t / bad pi0, and
/// robust::SolveError(kBudgetExceeded) — an is-a std::runtime_error —
/// if, on the Krylov path, the residual bound is still above `tolerance`
/// at the largest Krylov dimension (128).
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
/// One basis serves the whole grid (SystemModel samples every block on a
/// shared grid); each point is one small-space step. `stats` (optional)
/// receives the engine's work; `average` (optional) receives the
/// time-averaged reward over (0, horizon), integrated exactly by the
/// augmented exponential of the small space raised from one grid step to
/// the horizon, not by quadrature.
linalg::Vector reward_curve(const Ctmc& chain, const linalg::Vector& pi0,
                            double horizon, std::size_t steps,
                            const TransientOptions& opts = {},
                            TransientStats* stats = nullptr,
                            double* average = nullptr);

}  // namespace rascad::markov
