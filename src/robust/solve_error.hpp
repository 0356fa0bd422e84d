// Structured solver-failure taxonomy shared by every numerical entry point.
//
// RAScad's contract is that a non-expert always gets availability numbers
// back or a reason why not, so the analysis stack fails in a machine-
// readable way that the checked solves (markov/health.hpp), the serve
// daemon and the sweep status columns can report. SolveError is-a
// std::runtime_error (generic catch sites keep working) but carries a
// cause code, the method that failed, and the iteration/residual state at
// failure.
//
// This header is header-only and dependency-free, and lives in robust
// beside the cancel tokens that throw it: every layer from exec and
// markov up can throw it without linking anything.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace rascad::robust {

/// Why a solve failed. Checked solves record these in SolveTrace.
enum class SolveCause {
  kNonConverged,      // iteration budget exhausted before the tolerance
  kNanOrInf,          // non-finite values or invalid probability mass
  kBudgetExceeded,    // state-space / term / step budget exceeded
  kDeadlineExceeded,  // deadline token expired
  kInvalidInput,      // structurally unusable input (e.g. absorbing state
                      // or reducible chain handed to a stationary solver,
                      // or a transient state that cannot reach absorption)
  kCancelled,         // cooperative cancel token observed mid-solve
};

inline const char* to_string(SolveCause cause) {
  switch (cause) {
    case SolveCause::kNonConverged: return "non-converged";
    case SolveCause::kNanOrInf: return "nan-or-inf";
    case SolveCause::kBudgetExceeded: return "budget-exceeded";
    case SolveCause::kDeadlineExceeded: return "deadline-exceeded";
    case SolveCause::kInvalidInput: return "invalid-input";
    case SolveCause::kCancelled: return "cancelled";
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

}  // namespace rascad::robust
