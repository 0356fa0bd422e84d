// Deterministic fault injection for the resilience ladder.
//
// Two families of faults, both fully deterministic so tests are exactly
// reproducible:
//
//  * Result faults (FaultPlan): the ladder consults the plan after each
//    rung and either throws a structured SolveError in the rung's name or
//    corrupts the rung's output (NaN seeding, negative mass) *before* the
//    health checks run. This is how the test suite proves that every
//    rung-to-rung transition actually fires and that the health layer, not
//    just the solvers' own error paths, catches bad answers.
//
//  * Generator perturbations: rebuild a chain with scaled rates, a zeroed
//    transition, or an extreme stiffness spread. These produce *genuinely*
//    sick inputs (near-singular systems, reducible chains, non-converging
//    iterations) rather than simulated failures.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>

#include "markov/ctmc.hpp"
#include "resilience/solve_error.hpp"
#include "robust/cancel.hpp"

namespace rascad::resilience {

/// What to do to a rung's attempt.
enum class FaultKind {
  kNone,
  kThrowSingular,      // throw SolveError(kSingular) in the rung's name
  kThrowNonConverged,  // throw SolveError(kNonConverged)
  kNanResult,          // overwrite one entry of the result with NaN
  kNegativeResult,     // subtract a large negative mass from one entry
  kThrowTransient,     // throw SolveError(kTransient): the ladder retries
                       // the same rung (with backoff) instead of escalating
  kTimeout,            // burn wall-clock until the attempt's token stops
                       // (capped by timeout_cap_ms), then throw
                       // kDeadlineExceeded — simulates a solve that blows
                       // its rung budget
  kStall,              // sleep stall_ms while *ignoring* the token, then
                       // return the result intact — a solve that never
                       // reaches a checkpoint; watchdog fodder
};

/// Per-rung fault schedule. Empty (the default) injects nothing and costs
/// one map lookup per rung on the solve path. Each entry optionally
/// carries a consumable budget: fail_times(rung, kind, n) injects at most
/// n times, after which the rung behaves healthily — that is what lets a
/// transient-retry loop eventually succeed. The budget is shared state, so
/// copies of a plan (per-point configs, per-thread configs) draw from one
/// count.
struct FaultPlan {
  struct Entry {
    FaultKind kind = FaultKind::kNone;
    /// Remaining injections; null = unlimited.
    std::shared_ptr<std::atomic<long long>> budget;
    /// Budget as configured (-1 = unlimited); stable input for cache
    /// signatures while `budget` counts down.
    long long initial = -1;
  };

  std::map<Rung, Entry> faults;
  /// kStall sleep duration.
  double stall_ms = 25.0;
  /// kTimeout sleeps until the attempt token stops, but never longer than
  /// this (so a plan without any deadline still terminates).
  double timeout_cap_ms = 50.0;

  bool active() const noexcept { return !faults.empty(); }

  /// Non-consuming peek: the fault that would fire for `rung` now.
  FaultKind fault_for(Rung rung) const {
    const auto it = faults.find(rung);
    if (it == faults.end()) return FaultKind::kNone;
    const Entry& entry = it->second;
    if (entry.budget &&
        entry.budget->load(std::memory_order_relaxed) <= 0) {
      return FaultKind::kNone;
    }
    return entry.kind;
  }

  /// Consumes one budget unit and returns the fault to inject, or kNone
  /// when the rung is unscheduled or its budget is spent.
  FaultKind take_fault(Rung rung) const {
    const auto it = faults.find(rung);
    if (it == faults.end()) return FaultKind::kNone;
    const Entry& entry = it->second;
    if (entry.budget) {
      if (entry.budget->fetch_sub(1, std::memory_order_acq_rel) <= 0) {
        return FaultKind::kNone;
      }
    }
    return entry.kind;
  }

  /// Schedules `kind` on every attempt of `rung` (unlimited budget).
  FaultPlan& fail(Rung rung, FaultKind kind) {
    faults[rung] = Entry{kind, nullptr, -1};
    return *this;
  }

  /// Schedules `kind` on the first `times` attempts of `rung`.
  FaultPlan& fail_times(Rung rung, FaultKind kind, long long times) {
    faults[rung] = Entry{
        kind, std::make_shared<std::atomic<long long>>(times), times};
    return *this;
  }
};

/// Applies a result fault to a candidate vector (kNanResult /
/// kNegativeResult); throw-kind faults are raised by the ladder itself.
void corrupt_result(linalg::Vector& pi, FaultKind kind);

/// Consumes and applies `plan`'s fault for `rung` against an
/// already-computed result `pi`. Throw kinds raise SolveError in the
/// rung's name; corrupt kinds poison `pi` (the health checks must catch
/// it); kTimeout spins on `token` until it stops (capped by
/// timeout_cap_ms) and throws kDeadlineExceeded; kStall sleeps stall_ms
/// ignoring `token` and returns with `pi` intact.
void apply_fault(const FaultPlan& plan, Rung rung, linalg::Vector& pi,
                 const robust::CancelToken& token = {});

/// Copy of `chain` with every transition rate multiplied by `factor`
/// (> 0). Scaling is availability-neutral in exact arithmetic but drives
/// the replaced-row system (BiCGStab's) toward singularity as factor -> 0.
markov::Ctmc with_scaled_rates(const markov::Ctmc& chain, double factor);

/// Copy of `chain` with the (from, to) transition removed. Zeroing the only
/// exit of a state produces an absorbing state — reducible-chain input for
/// the irreducible-only solvers. Throws SolveError(kInvalidInput) if the
/// transition does not exist.
markov::Ctmc with_transition_zeroed(const markov::Ctmc& chain,
                                    markov::StateIndex from,
                                    markov::StateIndex to);

/// A stiff birth-death availability chain of 2 * `pairs` + 1 states whose
/// adjacent rates alternate between 1 and `spread` (e.g. 1e12): its
/// uniformized DTMC mixes at rate ~1/spread, so power iteration and SOR
/// need O(spread) sweeps while the direct (GTH) rung solves it exactly.
markov::Ctmc ill_conditioned_chain(std::size_t pairs, double spread);

}  // namespace rascad::resilience
