#include "resilience/resilience.hpp"

#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "markov/absorbing.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/robust.hpp"

namespace rascad::resilience {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Classifies an escape from the solve into a (cause, message) pair.
std::pair<SolveCause, std::string> classify(const std::exception& e) {
  if (const auto* se = dynamic_cast<const SolveError*>(&e)) {
    return {se->cause(), se->what()};
  }
  return {SolveCause::kInvalidInput, e.what()};
}

/// One checked solve episode: `solve(cancel, trace)` runs under the
/// config's stop token, then the fault plan gets its turn, then `verify`
/// checks (and may repair) the candidate. The outcome and the timing land in
/// `trace`; any failure throws SolveError with the trace in its message.
template <typename SolveFn, typename VerifyFn>
linalg::Vector run_episode(const ResilienceConfig& config,
                           const char* episode_name, SolveTrace& trace,
                           SolveFn&& solve, VerifyFn&& verify) {
  obs::Span episode_span("ladder.episode");
  if (episode_span.active()) episode_span.set_detail(episode_name);
  const auto start = Clock::now();
  const robust::CancelToken& episode = config.cancel;

  // A caller's trace may hold an earlier episode; only provenance carries.
  const SolveSource source = trace.source;
  trace = SolveTrace{};
  trace.ran = true;
  trace.source = source;
  obs::Span attempt_span("ladder.attempt");
  const auto finish = [&] {
    trace.total_ms = ms_since(start);
    if (!obs::enabled()) return;
    if (attempt_span.active()) {
      attempt_span.set_detail(
          trace.success
              ? "direct ok " + trace.message
              : std::string("direct failed (") + to_string(trace.cause) +
                    ")");
    }
    static obs::Counter& attempts =
        obs::Registry::global().counter("ladder.attempts");
    static obs::Counter& failures =
        obs::Registry::global().counter("ladder.attempt_failures");
    static obs::Histogram& attempt_ms =
        obs::Registry::global().histogram("ladder.attempt_ms");
    attempts.inc();
    if (!trace.success) failures.inc();
    attempt_ms.observe_ms(trace.total_ms);
  };
  try {
    linalg::Vector candidate = solve(episode, trace);
    apply_fault(config.fault_plan, candidate, episode);
    const HealthReport health = verify(candidate);
    trace.clamped_mass = health.clamped_mass;
    trace.residual_check = health.residual_inf;
    if (!health.ok) {
      obs::emit_event("health.check_failed", {{"episode", episode_name},
                                              {"detail", health.detail}});
      throw SolveError(health.failure.value_or(SolveCause::kNanOrInf),
                       "direct", health.detail);
    }
    trace.success = true;
    finish();
    return candidate;
  } catch (const std::exception& e) {
    const auto [cause, message] = classify(e);
    trace.cause = cause;
    trace.message = message;
    finish();
    if (obs::enabled()) {
      obs::emit_event("ladder.attempt_failed", {{"episode", episode_name},
                                                {"cause", to_string(cause)},
                                                {"message", message}});
    }
    if (episode.valid() && episode.stop_requested()) {
      robust::record_stop(episode, episode_name);
      throw SolveError(robust::cause_from(episode.reason()), episode_name,
                       "episode stopped: " + trace.summary());
    }
    throw SolveError(cause, episode_name, "solve failed: " + trace.summary());
  }
}

/// Refuses chains over the state budget before any work is done.
void check_budget(std::size_t states, const ResilienceConfig& config,
                  const char* who) {
  if (states > config.max_states) {
    throw SolveError(SolveCause::kBudgetExceeded, who,
                     "chain has " + std::to_string(states) +
                         " states, budget is " +
                         std::to_string(config.max_states));
  }
}

/// Notes a solve's size and bandwidth for the ladder.attempt span.
void note_band(SolveTrace& trace, std::size_t n, std::size_t bandwidth) {
  trace.message =
      "n=" + std::to_string(n) + " bw=" + std::to_string(bandwidth);
}

/// The stationary solve of both chain kinds: banded GTH on the chain's
/// off-diagonal weights.
linalg::Vector stationary(const linalg::CsrMatrix& weights,
                          const robust::CancelToken& cancel,
                          SolveTrace& trace) {
  std::size_t bandwidth = 0;
  linalg::Vector pi = markov::gth_stationary(weights, cancel, &bandwidth);
  note_band(trace, weights.rows(), bandwidth);
  return pi;
}

}  // namespace

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

ResilientResult solve_steady_state_resilient(const markov::Ctmc& chain,
                                             const ResilienceConfig& config) {
  ResilientResult out;
  check_budget(chain.size(), config, "solve_steady_state_resilient");
  if (chain.size() == 1) {
    out.result.pi = {1.0};
    out.trace.ran = out.trace.success = true;
    return out;
  }
  out.result.pi = run_episode(
      config, "solve_steady_state_resilient", out.trace,
      [&](const robust::CancelToken& cancel, SolveTrace& trace) {
        return stationary(chain.generator(), cancel, trace);
      },
      [&](linalg::Vector& pi) { return check_stationary(chain, pi); });
  // check_stationary measured ||pi Q||_inf on this very vector.
  out.result.residual = out.trace.residual_check;
  return out;
}

ResilientResult stationary_resilient(const markov::Dtmc& dtmc,
                                     const ResilienceConfig& config) {
  ResilientResult out;
  check_budget(dtmc.size(), config, "stationary_resilient");
  out.result.pi = run_episode(
      config, "stationary_resilient", out.trace,
      [&](const robust::CancelToken& cancel, SolveTrace& trace) {
        return stationary(dtmc.transition_matrix(), cancel, trace);
      },
      [&](linalg::Vector& pi) {
        HealthReport report = check_distribution(pi);
        if (!report.ok) return report;
        // Independent fixed-point residual ||pi P - pi||_inf; P is
        // row-stochastic so no rate scaling is needed.
        linalg::Vector r = dtmc.transition_matrix().mul_transpose(pi);
        for (std::size_t i = 0; i < r.size(); ++i) r[i] -= pi[i];
        report.residual_inf = linalg::norm_inf(r);
        if (!(report.residual_inf <= kResidualBound)) {
          report.ok = false;
          report.failure = SolveCause::kNonConverged;
          std::ostringstream os;
          os << "independent residual " << report.residual_inf
             << " exceeds bound " << kResidualBound;
          report.detail = os.str();
        }
        return report;
      });
  return out;
}

ResilientResult smp_steady_state_resilient(
    const semimarkov::SemiMarkovProcess& process,
    const ResilienceConfig& config) {
  for (std::size_t i = 0; i < process.size(); ++i) {
    if (process.is_absorbing(i)) {
      throw SolveError(SolveCause::kInvalidInput,
                       "smp_steady_state_resilient",
                       "process has absorbing states; steady state is not "
                       "defined");
    }
  }
  ResilientResult out = stationary_resilient(process.embedded(), config);
  linalg::Vector& pi = out.result.pi;
  for (std::size_t i = 0; i < process.size(); ++i) {
    pi[i] *= process.mean_sojourn(i);
  }
  const double time = linalg::sum(pi);
  if (time > 0.0 && std::isfinite(time)) linalg::scale(pi, 1.0 / time);
  const HealthReport report = check_distribution(pi);
  if (!report.ok) {
    obs::emit_event("health.check_failed",
                    {{"episode", "smp_steady_state_resilient"},
                     {"detail", report.detail}});
    throw SolveError(report.failure.value_or(SolveCause::kNanOrInf),
                     "smp_steady_state_resilient", report.detail);
  }
  return out;
}

double mttf_resilient(const markov::Ctmc& chain, markov::StateIndex initial,
                      const ResilienceConfig& config, SolveTrace* trace) {
  const std::vector<markov::StateIndex> down = chain.down_states();
  if (down.empty() || chain.reward(initial) <= 0.0) return 0.0;

  // Up states are transient and every arc into a down state is an exit:
  // the solve's weights come straight from the generator.
  std::vector<bool> absorbing(chain.size(), false);
  for (markov::StateIndex i : down) absorbing[i] = true;
  const markov::TransientSplit split =
      markov::split_transient(chain.generator(), absorbing);
  const std::size_t m = split.states.size();
  const linalg::Vector ones(m, 1.0);

  // (-Q_TT) tau = 1 in sparse form, for the independent check.
  linalg::CsrBuilder builder(m, m);
  for (std::size_t r = 0; r < m; ++r) {
    double out = split.exits[r];
    const auto row = split.weights.row(r);
    for (std::size_t k = 0; k < row.size; ++k) {
      builder.add(r, row.cols[k], -row.values[k]);
      out += row.values[k];
    }
    builder.add(r, r, out);
  }
  const linalg::CsrMatrix a = builder.build();

  SolveTrace local_trace;
  const linalg::Vector tau = run_episode(
      config, "mttf_resilient", trace ? *trace : local_trace,
      [&](const robust::CancelToken& cancel, SolveTrace& episode) {
        std::size_t bandwidth = 0;
        linalg::Vector times = markov::gth_absorption_times(
            split.weights, split.exits, ones, cancel, &bandwidth);
        note_band(episode, m, bandwidth);
        return times;
      },
      [&](linalg::Vector& times) {
        return check_absorption_times(a, times);
      });
  return tau[static_cast<std::size_t>(split.position[initial])];
}

}  // namespace rascad::resilience
