// Deterministic fault injection for the checked solve episodes.
//
// Two families of faults, both fully deterministic so tests are exactly
// reproducible:
//
//  * Result faults (FaultPlan): the episode consults the plan after the
//    solve and either throws a structured SolveError, corrupts the output
//    (NaN seeding, negative mass) *before* the health checks run, or
//    delays the answer. This is how the test suite proves that the health
//    layer, not just the solver's own error paths, catches bad answers, and
//    that deadlines and the stall watchdog fire.
//
//  * Generator perturbations: rebuild a chain with scaled rates, a zeroed
//    transition, or an extreme stiffness spread. These produce *genuinely*
//    sick inputs (reducible chains, masses spanning many decades) rather
//    than simulated failures.
#pragma once

#include <atomic>
#include <memory>

#include "markov/ctmc.hpp"
#include "resilience/solve_error.hpp"
#include "robust/cancel.hpp"

namespace rascad::resilience {

/// What to do to an episode's solve.
enum class FaultKind {
  kNone,
  kThrowNonConverged,  // throw SolveError(kNonConverged)
  kNanResult,          // overwrite one entry of the result with NaN
  kNegativeResult,     // subtract a large negative mass from one entry
  kTimeout,            // burn wall-clock until the episode token stops
                       // (capped by timeout_cap_ms), then throw
                       // kDeadlineExceeded: a solve that blows its budget
  kStall,              // sleep stall_ms while *ignoring* the token, then
                       // return the result intact: a solve that never
                       // reaches a checkpoint (a serve request's stall
                       // watchdog guard flags it)
};

/// Fault schedule: one kind plus an optional consumable budget.
/// fail_times(kind, n) injects at most n times, after which solves behave
/// healthily. The budget is shared state, so copies of a plan (per-point
/// configs, per-thread configs) draw from one count. The default plan
/// injects nothing.
struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  /// Remaining injections; null = unlimited.
  std::shared_ptr<std::atomic<long long>> budget;
  /// Budget as configured (-1 = unlimited); stable input for cache
  /// signatures while `budget` counts down.
  long long initial = -1;
  /// kStall sleep duration.
  double stall_ms = 25.0;
  /// kTimeout sleeps until the episode token stops, but never longer than
  /// this (so a plan without any deadline still terminates).
  double timeout_cap_ms = 50.0;

  bool active() const noexcept { return kind != FaultKind::kNone; }

  /// Consumes one budget unit and returns the fault to inject, or kNone
  /// when nothing is scheduled or the budget is spent.
  FaultKind take_fault() const {
    if (budget && budget->fetch_sub(1, std::memory_order_acq_rel) <= 0) {
      return FaultKind::kNone;
    }
    return kind;
  }

  /// Schedules `fault` on every solve (unlimited budget).
  FaultPlan& fail(FaultKind fault) {
    kind = fault;
    budget = nullptr;
    initial = -1;
    return *this;
  }

  /// Schedules `fault` on the first `times` solves.
  FaultPlan& fail_times(FaultKind fault, long long times) {
    kind = fault;
    budget = std::make_shared<std::atomic<long long>>(times);
    initial = times;
    return *this;
  }
};

/// Applies a result fault to a candidate vector (kNanResult /
/// kNegativeResult); the other kinds leave it alone.
void corrupt_result(linalg::Vector& pi, FaultKind kind);

/// Consumes and applies `plan`'s fault against an already-computed result
/// `pi`. kThrowNonConverged raises SolveError; corrupt kinds poison `pi`
/// (the health checks must catch it); kTimeout waits on `token` until it
/// stops (capped by timeout_cap_ms) and throws kDeadlineExceeded; kStall
/// sleeps stall_ms ignoring `token` and returns with `pi` intact.
void apply_fault(const FaultPlan& plan, linalg::Vector& pi,
                 const robust::CancelToken& token = {});

/// Copy of `chain` with every transition rate multiplied by `factor`
/// (> 0). Scaling is availability-neutral in exact arithmetic, so the
/// solved distribution must not move.
markov::Ctmc with_scaled_rates(const markov::Ctmc& chain, double factor);

/// Copy of `chain` with the (from, to) transition removed. Zeroing the only
/// exit of a state produces an absorbing state: reducible-chain input the
/// solvers must refuse. Throws SolveError(kInvalidInput) if the
/// transition does not exist.
markov::Ctmc with_transition_zeroed(const markov::Ctmc& chain,
                                    markov::StateIndex from,
                                    markov::StateIndex to);

/// A stiff birth-death availability chain of 2 * `pairs` + 1 states whose
/// adjacent rates alternate between 1 and `spread` (e.g. 1e12): its
/// stationary masses alternate across a factor of `spread`, which GTH
/// resolves componentwise exactly.
markov::Ctmc ill_conditioned_chain(std::size_t pairs, double spread);

}  // namespace rascad::resilience
