// The solver resilience layer: fallback ladders with health checks.
//
// Every numerical entry point of the analysis stack gets a resilient
// wrapper here. The flagship is the steady-state ladder
//
//   Direct -> BiCGStab -> SOR -> Power
//
// where each rung's output passes the health checks of health.hpp (NaN/Inf
// scan, negative-mass clamping, independent residual re-check) before it is
// accepted; a rung that throws or fails verification escalates to the next
// one, and the whole episode is recorded in a SolveTrace that callers and
// reports can inspect. The direct rung is banded GTH elimination
// (markov::gth_stationary): subtraction-free and exact, so the iterative
// rungs behind it only run when it is cancelled, out of memory, refused by
// a fault plan, or handed a reducible chain.
//
// Budgets (state count, iterations, wall-clock deadline) live in
// ResilienceConfig; the FaultPlan member is the test hook that forces rung
// failures (fault_injection.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "markov/ctmc.hpp"
#include "markov/dtmc.hpp"
#include "markov/steady_state.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/health.hpp"
#include "resilience/solve_error.hpp"
#include "semimarkov/smp.hpp"

namespace rascad::resilience {

struct ResilienceConfig {
  /// Rungs tried in order. The default ladder starts with the exact
  /// method and falls back to the iterative ones.
  std::vector<Rung> rungs = {Rung::kDirect, Rung::kBiCgStab, Rung::kSor,
                             Rung::kPower};
  /// Tolerance / iteration budget / relaxation shared by the rungs.
  markov::SteadyStateOptions base;
  /// State-space budget: chains larger than this are refused up front with
  /// SolveError(kBudgetExceeded). The direct rung needs O(n b) memory at
  /// bandwidth b, so generated chains solve exactly up to the budget.
  std::size_t max_states = 200'000;
  /// Wall-clock deadline over the whole ladder in milliseconds; realized
  /// as a deadline child token of `cancel`, so it is also observed *inside*
  /// rungs at solver checkpoints (pre-robust behaviour only checked between
  /// rungs). 0 disables.
  double deadline_ms = 0.0;
  /// Cooperative cancellation for the whole episode. Fans out to each
  /// attempt as a child token; a stopped episode token aborts the ladder
  /// with SolveError(kCancelled / kDeadlineExceeded). Inert by default.
  robust::CancelToken cancel;
  /// Wall-clock budget per rung attempt in milliseconds, charged against
  /// the request deadline: each attempt runs under a child token expiring
  /// after this long. A rung that only blows its *own* budget escalates to
  /// the next rung; the episode aborts only when the episode deadline /
  /// cancellation fired. 0 disables.
  double rung_deadline_ms = 0.0;
  /// Retries of the *same* rung on SolveError(kTransient) before the
  /// failure escalates, with deterministic jittered exponential backoff.
  std::size_t transient_retries = 0;
  /// Base backoff before the first transient retry; doubles per retry and
  /// is scaled by a deterministic jitter in [0.5, 1.5) derived from
  /// retry_jitter_seed, the rung, and the retry index.
  double retry_backoff_ms = 0.1;
  std::uint64_t retry_jitter_seed = 0x9e3779b97f4a7c15ull;
  /// Iteration cadence of solver-loop cancellation checkpoints (forwarded
  /// into markov::SteadyStateOptions along with the attempt token).
  std::size_t cancel_check_interval = 64;
  /// When > 0 and the episode carries a token, the episode registers with
  /// the stall watchdog: a stop the solve fails to observe within this
  /// many milliseconds bumps robust.stalled. 0 disables.
  double stall_budget_ms = 0.0;
  HealthCheckConfig health;
  /// Test-only deterministic fault injection; inert when empty.
  FaultPlan fault_plan;
};

/// Builds a config whose ladder starts at the rung matching
/// `opts.method` (callers that explicitly ask for, say, SOR still get their
/// method first) and continues with the remaining default rungs.
ResilienceConfig config_from(const markov::SteadyStateOptions& opts);

/// One rung's attempt, successful or not.
struct RungAttempt {
  Rung rung = Rung::kDirect;
  bool success = false;
  SolveCause cause = SolveCause::kNonConverged;  // valid when !success
  /// Failure detail, or a successful direct attempt's size and bandwidth
  /// ("n=333 bw=8", also in its ladder.attempt span detail).
  std::string message;
  std::size_t iterations = 0;
  double residual = 0.0;            // solver-reported metric
  double residual_check = 0.0;      // independent ||pi Q||_inf re-check
                                    // (MTTF: componentwise backward error)
  double clamped_mass = 0.0;        // negative mass clamped by health layer
  double duration_ms = 0.0;
};

/// Where a solution came from, now that block solves can be memoized or
/// reused from a baseline model. A non-fresh trace still carries the
/// attempts of the ladder episode that originally produced the numbers,
/// so resilience reporting stays honest about which rung did the work.
enum class SolveSource {
  kFresh,          // a ladder episode ran for this request
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

/// Full record of a ladder episode.
struct SolveTrace {
  std::vector<RungAttempt> attempts;
  bool success = false;
  Rung final_rung = Rung::kDirect;  // valid when success
  double total_ms = 0.0;
  /// Provenance of the numbers this trace vouches for.
  SolveSource source = SolveSource::kFresh;

  std::size_t escalations() const noexcept {
    return attempts.empty() ? 0 : attempts.size() - 1;
  }
  /// Total solver iterations across every attempt of the episode.
  std::size_t total_iterations() const noexcept {
    std::size_t acc = 0;
    for (const auto& a : attempts) acc += a.iterations;
    return acc;
  }
  /// One-line human-readable summary, e.g.
  /// "direct failed (deadline-exceeded) -> bicgstab ok [2 attempts, 0.41 ms]";
  /// non-fresh traces are prefixed with their provenance, e.g.
  /// "[cache-hit] direct ok [1 attempt, 0.08 ms]".
  std::string summary() const;
};

struct ResilientResult {
  markov::SteadyStateResult result;
  SolveTrace trace;
};

/// Steady-state distribution through the fallback ladder. Throws SolveError
/// (carrying the last rung's cause; the trace is embedded in the message)
/// only if every configured rung fails.
ResilientResult solve_steady_state_resilient(
    const markov::Ctmc& chain, const ResilienceConfig& config = {});

/// DTMC stationary distribution through a Direct -> Power ladder (rungs
/// without a DTMC meaning are skipped from config.rungs).
ResilientResult stationary_resilient(const markov::Dtmc& dtmc,
                                     const ResilienceConfig& config = {});

/// Semi-Markov steady state: the embedded DTMC goes through the ladder,
/// then the sojourn-time ratio formula is applied and health-checked.
ResilientResult smp_steady_state_resilient(
    const semimarkov::SemiMarkovProcess& process,
    const ResilienceConfig& config = {});

/// Mean time to failure (down states absorbing) with a Direct -> BiCGStab
/// -> SOR ladder on the fundamental system (-Q_TT) tau = 1 over the up
/// states. The direct rung is banded GTH (markov::gth_absorption_times);
/// every rung's answer passes check_absorption_times. Returns 0 for chains
/// that cannot fail. `trace` (optional) receives the episode.
double mttf_resilient(const markov::Ctmc& chain, markov::StateIndex initial,
                      const ResilienceConfig& config = {},
                      SolveTrace* trace = nullptr);

}  // namespace rascad::resilience
