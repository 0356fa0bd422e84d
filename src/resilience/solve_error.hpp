// Structured solver-failure taxonomy shared by every numerical entry point.
//
// RAScad's contract is that a non-expert always gets availability numbers
// back, so the analysis stack must fail in a machine-readable way that the
// resilience ladder (resilience.hpp) can act on. SolveError replaces the
// bare std::runtime_error / std::domain_error throws of the numeric layers:
// it is-a std::runtime_error (existing catch sites keep working) but carries
// a cause code, the method that failed, and the iteration/residual state at
// failure.
//
// This header is deliberately header-only and dependency-free so the low
// layers (linalg, markov, semimarkov) can throw it without linking against
// the resilience library, which sits above them.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace rascad::resilience {

/// Why a solve failed. The ladder records these in SolveTrace and uses them
/// to decide whether escalating to the next rung can help.
enum class SolveCause {
  kSingular,          // singular / pivot-breakdown linear system
  kNonConverged,      // iteration budget exhausted before the tolerance
  kNanOrInf,          // non-finite values or invalid probability mass
  kBudgetExceeded,    // state-space / term / step budget exceeded
  kDeadlineExceeded,  // deadline token expired (request or rung budget)
  kInvalidInput,      // structurally unusable input (e.g. absorbing state
                      // or reducible chain handed to a stationary solver,
                      // or a transient state that cannot reach absorption)
  kCancelled,         // cooperative cancel token observed mid-solve
  kTransient,         // transient fault worth retrying on the same rung
};

inline const char* to_string(SolveCause cause) {
  switch (cause) {
    case SolveCause::kSingular: return "singular";
    case SolveCause::kNonConverged: return "non-converged";
    case SolveCause::kNanOrInf: return "nan-or-inf";
    case SolveCause::kBudgetExceeded: return "budget-exceeded";
    case SolveCause::kDeadlineExceeded: return "deadline-exceeded";
    case SolveCause::kInvalidInput: return "invalid-input";
    case SolveCause::kCancelled: return "cancelled";
    case SolveCause::kTransient: return "transient";
  }
  return "unknown";
}

/// Identity of a solver rung across the resilience ladders (steady state,
/// DTMC stationary, MTTF).
enum class Rung {
  kDirect,     // exact banded GTH elimination (stationary vectors and
               // mean times to absorption)
  kBiCgStab,   // preconditioned Krylov solve
  kSor,        // Gauss-Seidel / SOR sweeps
  kPower,      // power iteration on the uniformized DTMC
};

inline const char* to_string(Rung rung) {
  switch (rung) {
    case Rung::kDirect: return "direct";
    case Rung::kBiCgStab: return "bicgstab";
    case Rung::kSor: return "sor";
    case Rung::kPower: return "power";
  }
  return "unknown";
}

/// Structured solver failure: cause code + failing method + diagnostics.
class SolveError : public std::runtime_error {
 public:
  SolveError(SolveCause cause, std::string method, const std::string& message,
             std::size_t iterations = 0, double residual = 0.0)
      : std::runtime_error(method + ": " + message +
                           " [cause=" + to_string(cause) + "]"),
        cause_(cause),
        method_(std::move(method)),
        iterations_(iterations),
        residual_(residual) {}

  SolveCause cause() const noexcept { return cause_; }
  const std::string& method() const noexcept { return method_; }
  std::size_t iterations() const noexcept { return iterations_; }
  double residual() const noexcept { return residual_; }

 private:
  SolveCause cause_;
  std::string method_;
  std::size_t iterations_;
  double residual_;
};

}  // namespace rascad::resilience
