// The checked solve: one banded GTH elimination, then a health check.
//
// Every stationary and absorption measure of the analysis stack
// (solve_steady_state, Dtmc::stationary, SemiMarkovProcess::steady_state,
// and, through checked_absorption_times in absorbing.hpp, mttf,
// Dtmc::expected_steps_to_absorption and
// SemiMarkovProcess::mean_time_to_absorption) runs as one episode of
// checked_solve: the GTH elimination under the caller's stop token, then
// the checks below (NaN/Inf scan, negative-mass clamping, a residual
// re-check computed independently of the solver). Any failure is a typed
// robust::SolveError, and the episode lands in a SolveTrace that callers
// and reports can inspect. Stationary vectors are judged by ||pi Q||;
// times to absorption by their componentwise backward error, which stays
// meaningful however large the times get.
//
// The contract is irreducibility, which every generated availability chain
// meets: a chain that is not irreducible (absorbing state, transient
// states, several closed classes) is refused with kInvalidInput by policy.
// Only several closed classes make the stationary vector ambiguous; a
// unichain has one, but it lies outside the contract all the same.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>

#include "linalg/csr.hpp"
#include "markov/ctmc.hpp"
#include "robust/cancel.hpp"
#include "robust/solve_error.hpp"

namespace rascad::markov {

/// State-space budget of a checked solve: larger chains are refused up
/// front with SolveError(kBudgetExceeded), before any elimination. GTH
/// needs O(n b) memory at bandwidth b.
inline constexpr std::size_t kMaxStates = 200'000;
/// Largest total negative probability mass clamped to zero without
/// failing the check. Mass beyond this indicates a wrong answer, not
/// round-off.
inline constexpr double kClampTolerance = 1e-9;
/// The independent residual re-check accepts
/// ||pi Q||_inf <= kResidualBound * max(1, max exit rate);
/// the rate scaling keeps the bound meaningful for stiff chains whose
/// generator entries span many orders of magnitude. Absorption times and
/// DTMC fixed points are held to kResidualBound unscaled.
inline constexpr double kResidualBound = 1e-9;

/// Outcome of verifying one candidate vector.
struct HealthReport {
  bool ok = true;
  std::optional<robust::SolveCause> failure;  // set when !ok
  std::string detail;
  double clamped_mass = 0.0;   // negative mass clamped (absolute value)
  double residual_inf = 0.0;   // independently recomputed ||pi Q||_inf
                               // (backward error for absorption times)
};

/// True iff every entry is finite.
bool all_finite(const linalg::Vector& v) noexcept;

/// Distribution-only verification (no generator residual): NaN/Inf scan,
/// clamp-and-account of negative entries, and renormalization in place
/// when (and only when) negative mass was clamped: an unclamped vector is
/// kept bit for bit. Used by the DTMC/SMP paths whose residual metric
/// differs from ||pi Q||.
HealthReport check_distribution(linalg::Vector& pi);

/// Verifies (and repairs, where legitimate) a candidate stationary vector:
/// NaN/Inf scan, clamp-and-account of negative entries, renormalization
/// after a clamp, then a residual re-check of ||pi Q||_inf. `pi` is modified in
/// place (clamping + renormalization) only when the checks pass far enough
/// to make that meaningful.
HealthReport check_stationary(const Ctmc& chain, linalg::Vector& pi);

/// Verifies candidate times to absorption `tau` against the fundamental
/// system a tau = c, where a = diag(out) - W is the transient part of the
/// chain (a = -Q_TT for a CTMC, I - P_TT for a DTMC) and c the caller's
/// costs per visit (1 for mean times and steps, the mean sojourns for a
/// semi-Markov process): NaN/Inf and negative-value scans, then the
/// componentwise backward error
///   max_i |a tau - c|_i / (|a| |tau| + |c|)_i <= kResidualBound.
/// Round-off in a tau grows with |a| |tau|, so an absolute bound on
/// ||a tau - c|| would reject exact answers once tau reaches ~1e9.
HealthReport check_absorption_times(const linalg::CsrMatrix& a,
                                    const linalg::Vector& tau,
                                    const linalg::Vector& costs);

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

/// Full record of a checked solve; a non-fresh trace keeps the record of
/// the episode that originally produced its numbers.
struct SolveTrace {
  bool ran = false;  // a checked solve ran (false on an empty trace)
  bool success = false;
  robust::SolveCause cause =
      robust::SolveCause::kNonConverged;  // valid when ran && !success
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

/// One checked solve episode, the body of every measure above. Refuses
/// more than kMaxStates `states` with kBudgetExceeded; then
/// `solve(bandwidth)` runs the GTH elimination under `cancel`, the
/// post-solve hook (if one is installed) sees the candidate, and
/// `verify` checks (and may repair) it. The outcome, the size and
/// bandwidth and the timing land in `trace` (optional); any failure throws
/// SolveError with the trace summary in its message, and a stopped
/// `cancel` turns it into kCancelled / kDeadlineExceeded. `name` names the
/// episode in errors, events and its ladder.episode span. (The span and
/// counter names `ladder.*` predate the single attempt; the request
/// benchmark's layer map reads them.)
linalg::Vector checked_solve(
    const char* name, std::size_t states, const robust::CancelToken& cancel,
    SolveTrace* trace,
    const std::function<linalg::Vector(std::size_t& bandwidth)>& solve,
    const std::function<HealthReport(linalg::Vector&)>& verify);

/// The post-solve test seam: a function run on every checked solve's
/// candidate after GTH and before the health check, with the solve's stop
/// token. A test corrupts the answer (the health check must refuse it),
/// throws, stalls, or waits for the token. It is no option and no part of
/// any memo key: a hooked answer passes the same health check as any
/// other, and a refused one is never cached. With no hook installed a solve
/// pays one atomic load.
using PostSolveHook =
    std::function<void(linalg::Vector&, const robust::CancelToken&)>;

/// Installs `hook` process-wide for the lifetime of the scope and puts the
/// previous one back when the scope ends. Scopes nest when they end in
/// reverse order (one installing thread at a time); a scope must outlive
/// every solve that may run its hook, on any thread.
class ScopedPostSolveHook {
 public:
  explicit ScopedPostSolveHook(PostSolveHook hook);
  ~ScopedPostSolveHook();
  ScopedPostSolveHook(const ScopedPostSolveHook&) = delete;
  ScopedPostSolveHook& operator=(const ScopedPostSolveHook&) = delete;

 private:
  PostSolveHook hook_;
  const PostSolveHook* previous_;
};

}  // namespace rascad::markov
