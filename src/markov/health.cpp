#include "markov/health.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/robust.hpp"

namespace rascad::markov {

using robust::SolveCause;
using robust::SolveError;

namespace {

using Clock = std::chrono::steady_clock;

/// The installed post-solve hook, or null.
std::atomic<const PostSolveHook*> g_post_solve_hook{nullptr};

/// Classifies an escape from the solve into a (cause, message) pair.
std::pair<SolveCause, std::string> classify(const std::exception& e) {
  if (const auto* se = dynamic_cast<const SolveError*>(&e)) {
    return {se->cause(), se->what()};
  }
  return {SolveCause::kInvalidInput, e.what()};
}

}  // namespace

bool all_finite(const linalg::Vector& v) noexcept {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

HealthReport check_distribution(linalg::Vector& pi) {
  HealthReport report;
  if (!all_finite(pi)) {
    report.ok = false;
    report.failure = SolveCause::kNanOrInf;
    report.detail = "non-finite entries in probability vector";
    return report;
  }

  // Clamp negative entries, accounting for how much mass was discarded.
  double negative_mass = 0.0;
  for (double& x : pi) {
    if (x < 0.0) {
      negative_mass -= x;
      x = 0.0;
    }
  }
  report.clamped_mass = negative_mass;
  if (negative_mass > kClampTolerance) {
    report.ok = false;
    report.failure = SolveCause::kNanOrInf;
    std::ostringstream os;
    os << "negative probability mass " << negative_mass
       << " exceeds clamp tolerance " << kClampTolerance;
    report.detail = os.str();
    return report;
  }
  const double total = linalg::sum(pi);
  if (!(total > 0.0) || !std::isfinite(total)) {
    report.ok = false;
    report.failure = SolveCause::kNanOrInf;
    report.detail = "probability vector has no positive mass";
    return report;
  }
  // Only a clamp moves the mass: a solver's normalized vector is kept bit
  // for bit, so an episode's pi is the solver's pi.
  if (negative_mass > 0.0) linalg::scale(pi, 1.0 / total);
  return report;
}

HealthReport check_stationary(const Ctmc& chain, linalg::Vector& pi) {
  if (pi.size() != chain.size()) {
    HealthReport report;
    report.ok = false;
    report.failure = SolveCause::kInvalidInput;
    report.detail = "stationary vector size mismatch";
    return report;
  }
  HealthReport report = check_distribution(pi);
  if (!report.ok) return report;

  // Independent residual re-check: recompute pi Q from the generator,
  // whatever the solver itself reported.
  report.residual_inf =
      linalg::norm_inf(chain.generator().mul_transpose(pi));
  const double scale = std::max(1.0, chain.generator().max_abs_diagonal());
  const double bound = kResidualBound * scale;
  if (!(report.residual_inf <= bound)) {
    report.ok = false;
    report.failure = SolveCause::kNonConverged;
    std::ostringstream os;
    os << "independent residual " << report.residual_inf
       << " exceeds bound " << bound;
    report.detail = os.str();
    return report;
  }
  return report;
}

HealthReport check_absorption_times(const linalg::CsrMatrix& a,
                                    const linalg::Vector& tau,
                                    const linalg::Vector& costs) {
  HealthReport report;
  if (tau.size() != a.rows() || costs.size() != a.rows()) {
    report.ok = false;
    report.failure = SolveCause::kInvalidInput;
    report.detail = "absorption time vector size mismatch";
    return report;
  }
  if (!all_finite(tau)) {
    report.ok = false;
    report.failure = SolveCause::kNanOrInf;
    report.detail = "non-finite mean times to absorption";
    return report;
  }
  for (double x : tau) {
    if (x < 0.0) {
      report.ok = false;
      report.failure = SolveCause::kNanOrInf;
      report.detail = "negative mean time to absorption";
      return report;
    }
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto row = a.row(i);
    double residual = -costs[i];
    double scale = std::abs(costs[i]);
    for (std::size_t k = 0; k < row.size; ++k) {
      const double term = row.values[k] * tau[row.cols[k]];
      residual += term;
      scale += std::abs(term);
    }
    report.residual_inf =
        std::max(report.residual_inf, std::abs(residual) / scale);
  }
  if (!(report.residual_inf <= kResidualBound)) {
    report.ok = false;
    report.failure = SolveCause::kNonConverged;
    std::ostringstream os;
    os << "backward error " << report.residual_inf << " exceeds bound "
       << kResidualBound;
    report.detail = os.str();
  }
  return report;
}

std::string SolveTrace::summary() const {
  std::ostringstream os;
  if (source != SolveSource::kFresh) {
    os << '[' << to_string(source) << "] ";
  }
  if (ran) {
    os << "direct ";
    if (success) {
      os << "ok";
    } else {
      os << "failed (" << to_string(cause) << ")";
    }
  }
  os << " [" << (ran ? "1 attempt, " : "0 attempts, ");
  os.precision(3);
  os << total_ms << " ms]";
  return os.str();
}

linalg::Vector checked_solve(
    const char* name, std::size_t states, const robust::CancelToken& cancel,
    SolveTrace* trace,
    const std::function<linalg::Vector(std::size_t& bandwidth)>& solve,
    const std::function<HealthReport(linalg::Vector&)>& verify) {
  if (states > kMaxStates) {
    throw SolveError(SolveCause::kBudgetExceeded, name,
                     "chain has " + std::to_string(states) +
                         " states, budget is " + std::to_string(kMaxStates));
  }
  obs::Span episode_span("ladder.episode");
  if (episode_span.active()) episode_span.set_detail(name);
  const auto start = Clock::now();

  // A caller's trace may hold an earlier episode; only provenance carries.
  SolveTrace local;
  SolveTrace& out = trace ? *trace : local;
  const SolveSource source = out.source;
  out = SolveTrace{};
  out.ran = true;
  out.source = source;
  obs::Span attempt_span("ladder.attempt");
  const auto finish = [&] {
    out.total_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (!obs::enabled()) return;
    if (attempt_span.active()) {
      attempt_span.set_detail(
          out.success ? "direct ok " + out.message
                      : std::string("direct failed (") +
                            to_string(out.cause) + ")");
    }
    static obs::Counter& attempts =
        obs::Registry::global().counter("ladder.attempts");
    static obs::Counter& failures =
        obs::Registry::global().counter("ladder.attempt_failures");
    static obs::Histogram& attempt_ms =
        obs::Registry::global().histogram("ladder.attempt_ms");
    attempts.inc();
    if (!out.success) failures.inc();
    attempt_ms.observe_ms(out.total_ms);
  };
  try {
    std::size_t bandwidth = 0;
    linalg::Vector candidate = solve(bandwidth);
    out.message =
        "n=" + std::to_string(states) + " bw=" + std::to_string(bandwidth);
    if (const PostSolveHook* hook =
            g_post_solve_hook.load(std::memory_order_acquire)) {
      (*hook)(candidate, cancel);
    }
    const HealthReport health = verify(candidate);
    out.clamped_mass = health.clamped_mass;
    out.residual_check = health.residual_inf;
    if (!health.ok) {
      obs::emit_event("health.check_failed",
                      {{"episode", name}, {"detail", health.detail}});
      throw SolveError(health.failure.value_or(SolveCause::kNanOrInf),
                       "direct", health.detail);
    }
    out.success = true;
    finish();
    return candidate;
  } catch (const std::exception& e) {
    const auto [cause, message] = classify(e);
    out.cause = cause;
    out.message = message;
    finish();
    if (obs::enabled()) {
      obs::emit_event("ladder.attempt_failed", {{"episode", name},
                                                {"cause", to_string(cause)},
                                                {"message", message}});
    }
    if (cancel.valid() && cancel.stop_requested()) {
      robust::record_stop(cancel, name);
      throw SolveError(robust::cause_from(cancel.reason()), name,
                       "episode stopped: " + out.summary());
    }
    throw SolveError(cause, name, "solve failed: " + out.summary());
  }
}

ScopedPostSolveHook::ScopedPostSolveHook(PostSolveHook hook)
    : hook_(std::move(hook)),
      previous_(g_post_solve_hook.exchange(&hook_,
                                           std::memory_order_acq_rel)) {}

ScopedPostSolveHook::~ScopedPostSolveHook() {
  g_post_solve_hook.store(previous_, std::memory_order_release);
}

}  // namespace rascad::markov
