#include "resilience/resilience.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "linalg/iterative.hpp"
#include "markov/absorbing.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/robust.hpp"
#include "robust/watchdog.hpp"

namespace rascad::resilience {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Stationarity residual ||pi Q||_inf (the solver-independent metric).
double stationarity_residual(const markov::Ctmc& chain,
                             const linalg::Vector& pi) {
  return linalg::norm_inf(chain.generator().mul_transpose(pi));
}

/// Classifies an escape from a rung into a (cause, message) pair.
std::pair<SolveCause, std::string> classify(const std::exception& e) {
  if (const auto* se = dynamic_cast<const SolveError*>(&e)) {
    return {se->cause(), se->what()};
  }
  return {SolveCause::kInvalidInput, e.what()};
}

/// Deterministic jitter factor in [0.5, 1.5) from (seed, rung, retry) via
/// a splitmix-style hash — reproducible backoff schedules for tests.
double jitter_factor(std::uint64_t seed, Rung rung, std::size_t retry) {
  std::uint64_t h = seed;
  h ^= (static_cast<std::uint64_t>(rung) + 1) * 0x9e3779b97f4a7c15ull;
  h ^= (static_cast<std::uint64_t>(retry) + 1) * 0xbf58476d1ce4e5b9ull;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return 0.5 + static_cast<double>(h % 1024) / 1024.0;
}

/// The episode-wide stop token: request cancellation (config.cancel) plus
/// the episode deadline, realized as a deadline child so the deadline is
/// also observed *inside* rungs at solver checkpoints. Invalid when the
/// config asks for neither — the healthy path stays token-free.
robust::CancelToken episode_token(const ResilienceConfig& config) {
  if (config.deadline_ms > 0.0) {
    return config.cancel.valid()
               ? robust::CancelToken::child_of(config.cancel,
                                               config.deadline_ms)
               : robust::CancelToken::with_deadline_ms(config.deadline_ms);
  }
  return config.cancel;
}

/// Token one rung attempt runs under: fans the episode token out with the
/// optional per-rung budget. A stopped *attempt* token whose episode is
/// still live means only the rung budget fired — that attempt fails with
/// kDeadlineExceeded and the ladder escalates as for any other failure.
robust::CancelToken attempt_token_for(const robust::CancelToken& episode,
                                      const ResilienceConfig& config) {
  if (config.rung_deadline_ms > 0.0) {
    return robust::CancelToken::child_of(episode, config.rung_deadline_ms);
  }
  return episode;
}

/// Shared ladder driver: runs `attempt_rung` over config.rungs, applying
/// deadline checks, fault injection hooks and trace bookkeeping. The rung
/// callback fills in the attempt's solver fields and returns the candidate
/// result; `verify` post-processes/checks it (returning failure info via
/// HealthReport). Throws SolveError when every rung fails.
template <typename Result, typename AttemptFn, typename VerifyFn>
Result run_ladder(const std::vector<Rung>& rungs,
                  const ResilienceConfig& config, const char* episode_name,
                  SolveTrace& trace, AttemptFn&& attempt_rung,
                  VerifyFn&& verify) {
  obs::Span episode_span("ladder.episode");
  if (episode_span.active()) episode_span.set_detail(episode_name);
  const auto start = Clock::now();
  if (rungs.empty()) {
    throw SolveError(SolveCause::kInvalidInput, episode_name,
                     "no rungs configured");
  }
  // Episode-wide stop state: request token + episode deadline. Invalid on
  // the healthy path, where every token check below short-circuits.
  const robust::CancelToken episode = episode_token(config);
  robust::StallWatchdog::Guard stall_guard;
  if (episode.valid() && config.stall_budget_ms > 0.0) {
    stall_guard = robust::StallWatchdog::global().watch(
        episode, config.stall_budget_ms, episode_name);
  }
  // Per-rung durations come from one clock read at the end of each rung
  // (elapsed-so-far differences), keeping the healthy path at two clock
  // reads total.
  double elapsed_ms = 0.0;
  for (Rung rung : rungs) {
    if (episode.valid() && episode.stop_requested()) {
      trace.total_ms = ms_since(start);
      robust::record_stop(episode, episode_name);
      throw SolveError(robust::cause_from(episode.reason()), episode_name,
                       std::string("episode stopped (") +
                           robust::to_string(episode.reason()) + ") after " +
                           trace.summary());
    }
    bool escalate = false;
    for (std::size_t retry = 0; !escalate; ++retry) {
      RungAttempt attempt;
      attempt.rung = rung;
      const double rung_start_ms = elapsed_ms;
      obs::Span attempt_span("ladder.attempt");
      // Each attempt runs under a child of the episode token carrying the
      // optional per-rung budget; a stopped attempt token whose episode is
      // still live is an ordinary rung failure and escalates.
      const robust::CancelToken attempt_token =
          attempt_token_for(episode, config);
      try {
        Result candidate = attempt_rung(rung, attempt, attempt_token);
        apply_fault(config.fault_plan, rung, candidate.pi, attempt_token);
        const HealthReport health = verify(rung, candidate, attempt);
        attempt.clamped_mass = health.clamped_mass;
        attempt.residual_check = health.residual_inf;
        if (!health.ok) {
          obs::emit_event("health.check_failed",
                          {{"episode", episode_name},
                           {"rung", to_string(rung)},
                           {"detail", health.detail}});
          throw SolveError(health.failure.value_or(SolveCause::kNanOrInf),
                           to_string(rung), health.detail,
                           attempt.iterations, attempt.residual);
        }
        attempt.success = true;
        elapsed_ms = ms_since(start);
        attempt.duration_ms = elapsed_ms - rung_start_ms;
        trace.attempts.push_back(attempt);
        trace.success = true;
        trace.final_rung = rung;
        trace.total_ms = elapsed_ms;
        if (obs::enabled()) {
          if (attempt_span.active()) {
            std::string detail = std::string(to_string(rung)) + " ok";
            if (!attempt.message.empty()) detail += " " + attempt.message;
            attempt_span.set_detail(std::move(detail));
          }
          static obs::Counter& attempts_total =
              obs::Registry::global().counter("ladder.attempts");
          static obs::Counter& escalations =
              obs::Registry::global().counter("ladder.escalations");
          static obs::Histogram& attempt_ms =
              obs::Registry::global().histogram("ladder.attempt_ms");
          attempts_total.inc();
          escalations.inc(trace.attempts.size() - 1);
          attempt_ms.observe_ms(attempt.duration_ms);
        }
        return candidate;
      } catch (const std::exception& e) {
        const auto [cause, message] = classify(e);
        attempt.success = false;
        attempt.cause = cause;
        attempt.message = message;
        elapsed_ms = ms_since(start);
        attempt.duration_ms = elapsed_ms - rung_start_ms;
        trace.attempts.push_back(attempt);
        if (obs::enabled()) {
          if (attempt_span.active()) {
            attempt_span.set_detail(std::string(to_string(rung)) +
                                    " failed (" + to_string(cause) + ")");
          }
          static obs::Counter& attempts_total =
              obs::Registry::global().counter("ladder.attempts");
          static obs::Counter& failures =
              obs::Registry::global().counter("ladder.attempt_failures");
          static obs::Histogram& attempt_ms =
              obs::Registry::global().histogram("ladder.attempt_ms");
          attempts_total.inc();
          failures.inc();
          attempt_ms.observe_ms(attempt.duration_ms);
          obs::emit_event("ladder.attempt_failed",
                          {{"episode", episode_name},
                           {"rung", to_string(rung)},
                           {"cause", to_string(cause)},
                           {"message", message}});
        }
        if ((cause == SolveCause::kCancelled ||
             cause == SolveCause::kDeadlineExceeded) &&
            episode.valid() && episode.stop_requested()) {
          // The *episode* stopped, not just a rung budget: no further rung
          // can be admitted, abort terminally.
          trace.total_ms = elapsed_ms;
          robust::record_stop(episode, episode_name);
          throw SolveError(robust::cause_from(episode.reason()),
                           episode_name, "episode stopped: " +
                                             trace.summary());
        }
        if (cause == SolveCause::kTransient &&
            retry < config.transient_retries) {
          // Same-rung retry after deterministic jittered exponential
          // backoff: base * 2^retry * jitter[0.5, 1.5).
          const double backoff =
              config.retry_backoff_ms *
              static_cast<double>(1ull << std::min<std::size_t>(retry, 20)) *
              jitter_factor(config.retry_jitter_seed, rung, retry);
          if (backoff > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(backoff));
          }
          continue;
        }
        escalate = true;  // next rung
      }
    }
  }
  trace.total_ms = ms_since(start);
  const SolveCause last_cause = trace.attempts.back().cause;
  throw SolveError(last_cause, episode_name,
                   "all rungs failed: " + trace.summary());
}

/// Candidate carried through the ladder: a distribution plus solver stats.
struct Candidate {
  linalg::Vector pi;
  std::size_t iterations = 0;
  double residual = 0.0;
};

/// Options of one rung attempt: the shared base plus the attempt's token.
markov::SteadyStateOptions rung_options(const ResilienceConfig& config,
                                        const robust::CancelToken& token) {
  markov::SteadyStateOptions opts = config.base;
  opts.cancel = token;
  opts.cancel_check_interval = config.cancel_check_interval;
  return opts;
}

/// Notes a direct attempt's size and bandwidth for the ladder.attempt span.
void note_band(RungAttempt& attempt, std::size_t n, std::size_t bandwidth) {
  attempt.message =
      "n=" + std::to_string(n) + " bw=" + std::to_string(bandwidth);
}

/// The direct rung of both stationary ladders: banded GTH on the chain's
/// off-diagonal weights.
Candidate direct_stationary(const linalg::CsrMatrix& weights,
                            const markov::SteadyStateOptions& opts,
                            RungAttempt& attempt) {
  std::size_t bandwidth = 0;
  Candidate candidate{markov::gth_stationary(weights, opts, &bandwidth), 0,
                      0.0};
  note_band(attempt, weights.rows(), bandwidth);
  return candidate;
}

std::vector<Rung> filter_rungs(const std::vector<Rung>& rungs,
                               std::initializer_list<Rung> allowed) {
  std::vector<Rung> out;
  for (Rung r : rungs) {
    if (std::find(allowed.begin(), allowed.end(), r) != allowed.end()) {
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace

ResilienceConfig config_from(const markov::SteadyStateOptions& opts) {
  ResilienceConfig config;
  config.base = opts;
  Rung first = Rung::kDirect;
  switch (opts.method) {
    case markov::SteadyStateMethod::kDirect: first = Rung::kDirect; break;
    case markov::SteadyStateMethod::kSor: first = Rung::kSor; break;
    case markov::SteadyStateMethod::kPower: first = Rung::kPower; break;
    case markov::SteadyStateMethod::kBiCgStab: first = Rung::kBiCgStab; break;
  }
  std::vector<Rung> rungs = {first};
  for (Rung r : ResilienceConfig{}.rungs) {
    if (r != first) rungs.push_back(r);
  }
  config.rungs = std::move(rungs);
  return config;
}

std::string SolveTrace::summary() const {
  std::ostringstream os;
  if (source != SolveSource::kFresh) {
    os << '[' << to_string(source) << "] ";
  }
  bool first = true;
  for (const auto& a : attempts) {
    if (!first) os << " -> ";
    first = false;
    os << to_string(a.rung);
    if (a.success) {
      os << " ok";
    } else {
      os << " failed (" << to_string(a.cause) << ")";
    }
  }
  os << " [" << attempts.size() << (attempts.size() == 1 ? " attempt, "
                                                         : " attempts, ");
  os.precision(3);
  os << total_ms << " ms]";
  return os.str();
}

ResilientResult solve_steady_state_resilient(const markov::Ctmc& chain,
                                             const ResilienceConfig& config) {
  ResilientResult out;
  if (chain.size() > config.max_states) {
    throw SolveError(SolveCause::kBudgetExceeded,
                     "solve_steady_state_resilient",
                     "chain has " + std::to_string(chain.size()) +
                         " states, budget is " +
                         std::to_string(config.max_states));
  }
  if (chain.size() == 1) {
    out.result.pi = {1.0};
    out.trace.success = true;
    out.trace.final_rung = config.rungs.empty() ? Rung::kDirect
                                                : config.rungs.front();
    RungAttempt trivial;
    trivial.rung = out.trace.final_rung;
    trivial.success = true;
    out.trace.attempts.push_back(trivial);
    return out;
  }

  const std::vector<Rung> rungs =
      filter_rungs(config.rungs,
                   {Rung::kDirect, Rung::kBiCgStab, Rung::kSor, Rung::kPower});
  const Candidate solved = run_ladder<Candidate>(
      rungs, config, "solve_steady_state_resilient", out.trace,
      [&](Rung rung, RungAttempt& attempt,
          const robust::CancelToken& token) -> Candidate {
        markov::SteadyStateOptions opts = rung_options(config, token);
        if (rung == Rung::kDirect) {
          return direct_stationary(chain.generator(), opts, attempt);
        }
        using Method = markov::SteadyStateMethod;
        opts.method = rung == Rung::kBiCgStab ? Method::kBiCgStab
                      : rung == Rung::kSor    ? Method::kSor
                                              : Method::kPower;
        const markov::SteadyStateResult r =
            markov::solve_steady_state(chain, opts);
        return {r.pi, r.iterations, r.residual};
      },
      [&](Rung, Candidate& candidate, RungAttempt& attempt) -> HealthReport {
        attempt.iterations = candidate.iterations;
        attempt.residual = candidate.residual;
        return check_stationary(chain, candidate.pi, config.health,
                                config.base.tolerance);
      });
  out.result.pi = std::move(solved.pi);
  out.result.iterations = solved.iterations;
  out.result.residual = stationarity_residual(chain, out.result.pi);
  return out;
}

ResilientResult stationary_resilient(const markov::Dtmc& dtmc,
                                     const ResilienceConfig& config) {
  ResilientResult out;
  if (dtmc.size() > config.max_states) {
    throw SolveError(SolveCause::kBudgetExceeded, "stationary_resilient",
                     "chain has " + std::to_string(dtmc.size()) +
                         " states, budget is " +
                         std::to_string(config.max_states));
  }
  std::vector<Rung> rungs =
      filter_rungs(config.rungs, {Rung::kDirect, Rung::kPower});
  if (rungs.empty()) rungs = {Rung::kDirect, Rung::kPower};
  const Candidate solved = run_ladder<Candidate>(
      rungs, config, "stationary_resilient", out.trace,
      [&](Rung rung, RungAttempt& attempt,
          const robust::CancelToken& token) -> Candidate {
        if (rung == Rung::kDirect) {
          return direct_stationary(dtmc.transition_matrix(),
                                   rung_options(config, token), attempt);
        }
        return {dtmc.stationary(/*direct=*/false), 0, 0.0};
      },
      [&](Rung, Candidate& candidate, RungAttempt& attempt) -> HealthReport {
        HealthReport report = check_distribution(candidate.pi, config.health);
        if (!report.ok) return report;
        // Independent fixed-point residual ||pi P - pi||_inf; P is
        // row-stochastic so no rate scaling is needed.
        linalg::Vector r =
            dtmc.transition_matrix().mul_transpose(candidate.pi);
        for (std::size_t i = 0; i < r.size(); ++i) r[i] -= candidate.pi[i];
        report.residual_inf = linalg::norm_inf(r);
        report.residual_l1 = linalg::norm1(r);
        attempt.residual = report.residual_inf;
        const double bound =
            config.health.residual_factor * config.base.tolerance;
        if (!(report.residual_inf <= bound)) {
          report.ok = false;
          report.failure = SolveCause::kNonConverged;
          std::ostringstream os;
          os << "independent residual " << report.residual_inf
             << " exceeds bound " << bound;
          report.detail = os.str();
        }
        return report;
      });
  out.result.pi = std::move(solved.pi);
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
  const HealthReport report = check_distribution(pi, config.health);
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
  // the direct rung's weights come straight from the generator.
  std::vector<bool> absorbing(chain.size(), false);
  for (markov::StateIndex i : down) absorbing[i] = true;
  const markov::TransientSplit split =
      markov::split_transient(chain.generator(), absorbing);
  const std::size_t m = split.states.size();
  const linalg::Vector ones(m, 1.0);

  // (-Q_TT) tau = 1 in sparse form, for the iterative rungs and the check.
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

  std::vector<Rung> rungs = filter_rungs(
      config.rungs, {Rung::kDirect, Rung::kBiCgStab, Rung::kSor});
  if (rungs.empty()) rungs = {Rung::kDirect, Rung::kBiCgStab, Rung::kSor};
  SolveTrace local_trace;
  SolveTrace& tr = trace ? *trace : local_trace;
  const Candidate solved = run_ladder<Candidate>(
      rungs, config, "mttf_resilient", tr,
      [&](Rung rung, RungAttempt& attempt,
          const robust::CancelToken& token) -> Candidate {
        if (rung == Rung::kDirect) {
          std::size_t bandwidth = 0;
          Candidate candidate{
              markov::gth_absorption_times(split.weights, split.exits, ones,
                                           rung_options(config, token),
                                           &bandwidth),
              0, 0.0};
          note_band(attempt, m, bandwidth);
          return candidate;
        }
        linalg::IterativeOptions iopts;
        iopts.tolerance = config.base.tolerance;
        iopts.max_iterations = config.base.max_iterations;
        iopts.relaxation = config.base.relaxation;
        iopts.cancel = token;
        iopts.cancel_check_interval = config.cancel_check_interval;
        const linalg::IterativeResult r =
            rung == Rung::kBiCgStab ? linalg::bicgstab_solve(a, ones, iopts)
                                    : linalg::sor_solve(a, ones, iopts);
        if (!r.converged) {
          throw SolveError(SolveCause::kNonConverged, to_string(rung),
                           "did not converge", r.iterations, r.residual);
        }
        return {r.solution, r.iterations, r.residual};
      },
      [&](Rung, Candidate& candidate, RungAttempt& attempt) -> HealthReport {
        attempt.iterations = candidate.iterations;
        attempt.residual = candidate.residual;
        return check_absorption_times(a, candidate.pi, config.health,
                                      config.base.tolerance);
      });
  return solved.pi[static_cast<std::size_t>(split.position[initial])];
}

}  // namespace rascad::resilience
