// The solver resilience layer: one checked solve per numerical entry point.
//
// Every stationary and MTTF solve of the analysis stack runs here as a
// single episode: banded GTH elimination (markov::gth_stationary /
// gth_absorption_times, exact and subtraction-free) under the episode's
// stop token, then the health checks of health.hpp (NaN/Inf scan,
// negative-mass clamping, independent residual re-check). Any failure is a
// typed SolveError, and the episode is recorded in a SolveTrace that
// callers and reports can inspect. The contract is irreducibility, which
// every generated availability chain meets: a chain that is not irreducible
// (absorbing state, transient states, several closed classes) is refused
// with kInvalidInput by policy. Only several closed classes make the
// stationary vector ambiguous; a unichain has one, but it lies outside the
// contract all the same.
//
// ResilienceConfig holds the state-count budget and the stop token (which
// carries any deadline); the FaultPlan member is the test hook that
// corrupts or delays the solve (fault_injection.hpp). Tolerances are the
// constants of health.hpp.
#pragma once

#include <cstddef>
#include <string>

#include "markov/ctmc.hpp"
#include "markov/dtmc.hpp"
#include "markov/steady_state.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/health.hpp"
#include "resilience/solve_error.hpp"
#include "semimarkov/smp.hpp"

namespace rascad::resilience {

struct ResilienceConfig {
  /// State-space budget: chains larger than this are refused up front with
  /// SolveError(kBudgetExceeded). GTH needs O(n b) memory at bandwidth b,
  /// so generated chains solve exactly up to the budget.
  std::size_t max_states = 200'000;
  /// Cooperative cancellation for the episode, observed inside the
  /// elimination at its checkpoints; a stopped token aborts it with
  /// SolveError(kCancelled / kDeadlineExceeded). A deadline is a token
  /// from CancelToken::with_deadline_ms / child_of. Inert by default.
  robust::CancelToken cancel;
  /// Test-only deterministic fault injection; inert when empty.
  FaultPlan fault_plan;
};

/// Where a solution came from, now that block solves can be memoized or
/// reused from a baseline model. A non-fresh trace still carries the
/// record of the episode that originally produced the numbers.
enum class SolveSource {
  kFresh,          // a solve episode ran for this request
  kCacheHit,       // copied from the solve-memoization cache
  kBaselineReuse,  // reused from a baseline SystemModel during rebuild
};

inline const char* to_string(SolveSource source) {
  switch (source) {
    case SolveSource::kFresh: return "fresh";
    case SolveSource::kCacheHit: return "cache-hit";
    case SolveSource::kBaselineReuse: return "baseline-reuse";
  }
  return "unknown";
}

/// Full record of a solve episode; a non-fresh trace keeps the record of
/// the episode that originally produced its numbers.
struct SolveTrace {
  bool ran = false;  // an episode ran (or the trivial one-state answer)
  bool success = false;
  SolveCause cause = SolveCause::kNonConverged;  // valid when ran && !success
  /// Failure detail, or a successful solve's size and bandwidth
  /// ("n=333 bw=8", also in its ladder.attempt span detail).
  std::string message;
  double residual_check = 0.0;  // independent ||pi Q||_inf re-check
                                // (MTTF: componentwise backward error)
  double clamped_mass = 0.0;    // negative mass clamped by health layer
  double total_ms = 0.0;
  /// Provenance of the numbers this trace vouches for.
  SolveSource source = SolveSource::kFresh;

  /// One-line human-readable summary, e.g. "direct ok [1 attempt, 0.41 ms]"
  /// or "direct failed (deadline-exceeded) [1 attempt, 10 ms]"; non-fresh
  /// traces are prefixed with their provenance, e.g.
  /// "[cache-hit] direct ok [1 attempt, 0.08 ms]".
  std::string summary() const;
};

struct ResilientResult {
  markov::SteadyStateResult result;
  SolveTrace trace;
};

/// Steady-state distribution in one checked episode. Throws SolveError
/// (the trace is embedded in the message) when the solve or its health
/// check fails.
ResilientResult solve_steady_state_resilient(
    const markov::Ctmc& chain, const ResilienceConfig& config = {});

/// DTMC stationary distribution in one checked episode; the check is the
/// fixed-point residual ||pi P - pi||_inf.
ResilientResult stationary_resilient(const markov::Dtmc& dtmc,
                                     const ResilienceConfig& config = {});

/// Semi-Markov steady state: the embedded DTMC goes through
/// stationary_resilient, then the sojourn-time ratio formula is applied and
/// health-checked.
ResilientResult smp_steady_state_resilient(
    const semimarkov::SemiMarkovProcess& process,
    const ResilienceConfig& config = {});

/// Mean time to failure (down states absorbing) in one checked episode:
/// markov::gth_absorption_times over the up states, checked by
/// check_absorption_times against (-Q_TT) tau = 1. Returns 0 for chains
/// that cannot fail. `trace` (optional) receives the episode.
double mttf_resilient(const markov::Ctmc& chain, markov::StateIndex initial,
                      const ResilienceConfig& config = {},
                      SolveTrace* trace = nullptr);

}  // namespace rascad::resilience
