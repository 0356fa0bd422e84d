// Cooperative cancellation and deadlines for the whole solve stack.
//
// A CancelToken is a copyable handle onto shared atomic stop state. Work
// loops poll stop_requested() at checkpoints (every N eliminated states in
// the GTH solvers, every N steps in the transient engine, between chunks in
// exec::parallel_for) and throw SolveError(kCancelled / kDeadlineExceeded)
// when it fires. Three properties the stack relies on:
//
//  * Inert by default. A default-constructed token holds no state; every
//    checkpoint is a single null-pointer test, so code paths that never
//    asked for cancellation keep their exact pre-token cost and results.
//  * Monotonic-clock deadlines. Expiry is evaluated lazily against
//    steady_clock at the checkpoints themselves — no timer thread, immune
//    to wall-clock jumps.
//  * Parent -> child linking. A request token fans out to per-phase
//    children (optionally with their own tighter deadline); a child
//    observes its parent's stop but never stops the parent, so a phase
//    budget can expire without killing the request.
//
// Checkpoints only ever *throw*; they never alter arithmetic. A run that is
// not cancelled is therefore bitwise identical to a run with no token at
// all (the contract bench_robust enforces).
//
// This header is deliberately header-only with no dependencies beyond the
// standard library and the (equally header-only) solve_error taxonomy, so
// rascad_linalg can poll tokens without linking against any higher layer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "robust/solve_error.hpp"

namespace rascad::robust {

/// Why a token stopped.
enum class StopReason : std::uint8_t {
  kNone = 0,
  kCancelled = 1,         // explicit request_cancel()
  kDeadlineExceeded = 2,  // monotonic deadline passed
};

inline const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "unknown";
}

/// SolveError cause corresponding to a stop reason (kNone maps to
/// kCancelled so callers can throw unconditionally once stopped).
inline SolveCause cause_from(StopReason reason) {
  return reason == StopReason::kDeadlineExceeded
             ? SolveCause::kDeadlineExceeded
             : SolveCause::kCancelled;
}

namespace detail {

struct CancelState {
  using Clock = std::chrono::steady_clock;

  /// StopReason, sticky once nonzero.
  std::atomic<std::uint8_t> reason{0};
  /// Clock::now().time_since_epoch() in ns when the stop was first
  /// detected (deadline) or requested (cancel). 0 = not stopped.
  std::atomic<std::int64_t> stop_ns{0};
  /// First time a checkpoint *observed* the stop, same encoding. The gap
  /// stop_ns -> observed_ns is the cancellation latency the watchdog and
  /// bench_robust report. 0 = not yet observed.
  std::atomic<std::int64_t> observed_ns{0};

  bool has_deadline = false;
  Clock::time_point deadline{};
  std::shared_ptr<CancelState> parent;

  static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  /// Latches `r` as the stop reason; only the first trigger records
  /// stop_ns, so latency is measured from the earliest stop event.
  void trigger(StopReason r) noexcept {
    std::uint8_t expected = 0;
    if (reason.compare_exchange_strong(expected, static_cast<std::uint8_t>(r),
                                       std::memory_order_acq_rel)) {
      stop_ns.store(now_ns(), std::memory_order_release);
    }
  }

  void note_observed() noexcept {
    std::int64_t expected = 0;
    observed_ns.compare_exchange_strong(expected, now_ns(),
                                        std::memory_order_acq_rel);
  }

  /// Checks own flag, then own deadline, then the parent chain. When
  /// `observe` is true the first positive check stamps observed_ns (on
  /// this state and, transitively, on the ancestor that stopped). The
  /// watchdog polls with observe=false so its monitoring never counts as
  /// the workload noticing.
  bool stopped(bool observe) noexcept {
    std::uint8_t r = reason.load(std::memory_order_acquire);
    if (r == 0) {
      if (has_deadline && Clock::now() >= deadline) {
        trigger(StopReason::kDeadlineExceeded);
        r = reason.load(std::memory_order_acquire);
      } else if (parent && parent->stopped(observe)) {
        trigger(static_cast<StopReason>(
            parent->reason.load(std::memory_order_acquire)));
        r = reason.load(std::memory_order_acquire);
      }
    }
    if (r != 0 && observe) note_observed();
    return r != 0;
  }
};

}  // namespace detail

/// Copyable cooperative-stop handle. See the file comment for the model.
class CancelToken {
 public:
  /// Inert token: valid() is false, stop_requested() is always false and
  /// costs one branch.
  CancelToken() = default;

  /// A token that stops only via request_cancel().
  static CancelToken manual() {
    return CancelToken(std::make_shared<detail::CancelState>());
  }

  /// A token that stops when `deadline_ms` (> 0) of steady-clock time has
  /// passed, measured from now.
  static CancelToken with_deadline_ms(double deadline_ms) {
    auto state = std::make_shared<detail::CancelState>();
    state->has_deadline = true;
    state->deadline = detail::CancelState::Clock::now() +
                      std::chrono::duration_cast<
                          detail::CancelState::Clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              deadline_ms));
    return CancelToken(std::move(state));
  }

  /// A child observing `parent`'s stop (one-way: stopping the child never
  /// stops the parent). An inert parent yields a plain manual token.
  static CancelToken child_of(const CancelToken& parent) {
    auto state = std::make_shared<detail::CancelState>();
    state->parent = parent.state_;
    return CancelToken(std::move(state));
  }

  /// Child with its own deadline `deadline_ms` from now — the shape of a
  /// per-episode budget charged against the request token.
  static CancelToken child_of(const CancelToken& parent, double deadline_ms) {
    CancelToken child = with_deadline_ms(deadline_ms);
    child.state_->parent = parent.state_;
    return child;
  }

  bool valid() const noexcept { return state_ != nullptr; }

  /// The cooperative checkpoint. Marks the stop as observed (for latency
  /// accounting) the first time it returns true.
  bool stop_requested() const noexcept {
    return state_ != nullptr && state_->stopped(/*observe=*/true);
  }

  /// stop_requested without the observed-latency stamp; used by monitors
  /// (the stall watchdog) that must not count as the workload noticing.
  bool stop_requested_silent() const noexcept {
    return state_ != nullptr && state_->stopped(/*observe=*/false);
  }

  void request_cancel() const noexcept {
    if (state_) state_->trigger(StopReason::kCancelled);
  }

  /// Reason as of the last stop check (does not itself probe the clock or
  /// parents; call stop_requested first for a fresh answer).
  StopReason reason() const noexcept {
    return state_ ? static_cast<StopReason>(
                        state_->reason.load(std::memory_order_acquire))
                  : StopReason::kNone;
  }

  bool observed() const noexcept {
    return state_ != nullptr &&
           state_->observed_ns.load(std::memory_order_acquire) != 0;
  }

  /// Milliseconds between the stop firing and the first checkpoint that
  /// observed it; negative when not stopped or not yet observed.
  double observed_latency_ms() const noexcept {
    if (!state_) return -1.0;
    const std::int64_t stop = state_->stop_ns.load(std::memory_order_acquire);
    const std::int64_t seen =
        state_->observed_ns.load(std::memory_order_acquire);
    if (stop == 0 || seen == 0) return -1.0;
    return static_cast<double>(seen - stop) * 1e-6;
  }

  /// Milliseconds since the stop fired (against now); -1 when not stopped.
  double ms_since_stop() const noexcept {
    if (!state_) return -1.0;
    const std::int64_t stop = state_->stop_ns.load(std::memory_order_acquire);
    if (stop == 0) return -1.0;
    return static_cast<double>(detail::CancelState::now_ns() - stop) * 1e-6;
  }

  friend bool operator==(const CancelToken& a, const CancelToken& b) {
    return a.state_ == b.state_;
  }

 private:
  explicit CancelToken(std::shared_ptr<detail::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CancelState> state_;
};

/// Checkpoint helper: throws SolveError(kCancelled / kDeadlineExceeded) in
/// `who`'s name if the token has stopped.
inline void throw_if_stopped(const CancelToken& token, const char* who,
                             std::size_t iterations = 0,
                             double residual = 0.0) {
  if (!token.stop_requested()) return;
  const StopReason reason = token.reason();
  throw SolveError(
      cause_from(reason), who,
      std::string("cooperative stop (") + to_string(reason) + ")", iterations,
      residual);
}

/// Outcome of one unit of degradable work (a sweep point, an importance
/// row, a replication run). kOk entries carry results; the rest carry a
/// reason and, for kFailed, the failure detail/trace.
enum class PointStatus : std::uint8_t {
  kOk = 0,
  kCancelled = 1,
  kDeadlineExceeded = 2,
  kFailed = 3,
};

inline const char* to_string(PointStatus status) {
  switch (status) {
    case PointStatus::kOk: return "ok";
    case PointStatus::kCancelled: return "cancelled";
    case PointStatus::kDeadlineExceeded: return "deadline-exceeded";
    case PointStatus::kFailed: return "failed";
  }
  return "unknown";
}

/// Parses the to_string form back; false on unknown text (CSV round-trip).
inline bool point_status_from_string(const std::string& s,
                                     PointStatus& out) {
  if (s == "ok") { out = PointStatus::kOk; return true; }
  if (s == "cancelled") { out = PointStatus::kCancelled; return true; }
  if (s == "deadline-exceeded") {
    out = PointStatus::kDeadlineExceeded;
    return true;
  }
  if (s == "failed") { out = PointStatus::kFailed; return true; }
  return false;
}

inline PointStatus point_status_from(StopReason reason) {
  switch (reason) {
    case StopReason::kDeadlineExceeded: return PointStatus::kDeadlineExceeded;
    case StopReason::kCancelled: return PointStatus::kCancelled;
    case StopReason::kNone: break;
  }
  return PointStatus::kCancelled;
}

inline PointStatus point_status_from(SolveCause cause) {
  switch (cause) {
    case SolveCause::kCancelled: return PointStatus::kCancelled;
    case SolveCause::kDeadlineExceeded:
      return PointStatus::kDeadlineExceeded;
    default: return PointStatus::kFailed;
  }
}

/// Folds a caught exception into a degradation (status, detail) pair:
/// SolveError keeps its cancellation taxonomy, anything else is kFailed
/// with the error text as provenance. The shared classifier behind every
/// graceful-degradation surface (sweeps, importance, simulator
/// replications).
inline std::pair<PointStatus, std::string> point_status_from_exception(
    std::exception_ptr err) {
  try {
    std::rethrow_exception(err);
  } catch (const SolveError& e) {
    return {point_status_from(e.cause()), e.what()};
  } catch (const std::exception& e) {
    return {PointStatus::kFailed, e.what()};
  } catch (...) {
    return {PointStatus::kFailed, "unknown error"};
  }
}

}  // namespace rascad::robust
