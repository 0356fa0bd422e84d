// Fault injection on the post-solve seam: every fault is forced on the
// checked solves through markov::ScopedPostSolveHook and the recorded
// causes checked; corrupt-result faults must be caught by the health layer
// (not the solver's own error paths). Plus the sick-input generators.
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "dist/distribution.hpp"
#include "markov/absorbing.hpp"
#include "markov/dtmc.hpp"
#include "markov/health.hpp"
#include "markov/steady_state.hpp"
#include "robust/solve_error.hpp"
#include "semimarkov/smp.hpp"
#include "fault_seam.hpp"

namespace {

using rascad::linalg::Vector;
using rascad::markov::Ctmc;
using rascad::markov::CtmcBuilder;
using rascad::markov::ScopedPostSolveHook;
using rascad::markov::solve_steady_state;
using rascad::markov::SolveTrace;
using rascad::robust::SolveCause;
using rascad::robust::SolveError;
using namespace rascad::testing;

Ctmc repair_chain() {
  CtmcBuilder b;
  const auto ok = b.add_state("ok", 1.0);
  const auto deg = b.add_state("degraded", 1.0);
  const auto down = b.add_state("down", 0.0);
  b.add_transition(ok, deg, 2.0);
  b.add_transition(deg, ok, 5.0);
  b.add_transition(deg, down, 1.0);
  b.add_transition(down, ok, 10.0);
  return b.build();
}

rascad::markov::Dtmc two_state_dtmc() {
  rascad::markov::DtmcBuilder b;
  b.add_state("a");
  b.add_state("b");
  b.add_transition(0, 1, 1.0);
  b.add_transition(1, 0, 0.5);
  b.add_transition(1, 1, 0.5);
  return b.build();
}

// ----------------------------------------------------- sick inputs ----

TEST(FaultPrimitives, ScaledRatesPreserveAvailability) {
  const Ctmc chain = repair_chain();
  const Ctmc scaled = with_scaled_rates(chain, 1e-3);
  const Vector a = solve_steady_state(chain).pi;
  const Vector b = solve_steady_state(scaled).pi;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-10);
  }
}

TEST(FaultPrimitives, ZeroedTransitionMakesStateAbsorbing) {
  const Ctmc chain = repair_chain();
  const Ctmc cut = with_transition_zeroed(chain, 2, 0);  // down -> ok removed
  EXPECT_DOUBLE_EQ(cut.exit_rate(2), 0.0);
  try {
    with_transition_zeroed(chain, 0, 2);  // no ok -> down arc exists
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kInvalidInput);
  }
}

// ---------------------------------------------------- injected faults ----

/// Runs `solve` expecting a SolveError with `cause` whose message contains
/// `needle`.
void expect_failure(const auto& solve, SolveCause cause,
                    const std::string& needle) {
  try {
    solve();
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), cause) << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(InjectedFaults, ThrownFaultFailsTheEpisode) {
  const ScopedPostSolveHook scope(throw_hook());
  expect_failure([&] { solve_steady_state(repair_chain()); },
                 SolveCause::kNonConverged, "direct failed (non-converged)");
}

// Corrupt-result faults bypass the solver's own error handling entirely;
// only the health layer can catch them.
TEST(InjectedFaults, NanResultCaughtByHealthLayer) {
  const ScopedPostSolveHook scope(nan_hook());
  expect_failure([&] { solve_steady_state(repair_chain()); },
                 SolveCause::kNanOrInf, "direct failed (nan-or-inf)");
}

TEST(InjectedFaults, NegativeResultCaughtByHealthLayer) {
  const ScopedPostSolveHook scope(negative_hook());
  expect_failure([&] { solve_steady_state(repair_chain()); },
                 SolveCause::kNanOrInf, "direct failed (nan-or-inf)");
}

// The hook lives as long as its scope: the next solve is healthy and
// bit-identical to one that never saw a hook.
TEST(InjectedFaults, EndedScopeLetsLaterSolvesSucceed) {
  const Vector clean = solve_steady_state(repair_chain()).pi;
  {
    const ScopedPostSolveHook scope(throw_hook());
    EXPECT_THROW(solve_steady_state(repair_chain()), SolveError);
  }
  SolveTrace trace;
  EXPECT_EQ(solve_steady_state(repair_chain(), {}, &trace).pi, clean);
  EXPECT_TRUE(trace.success);
}

// Scopes nest: the inner hook replaces the outer one for its lifetime and
// the outer one is back when it ends.
TEST(InjectedFaults, NestedScopeRestoresTheOuterHook) {
  const ScopedPostSolveHook outer(nan_hook());
  {
    const ScopedPostSolveHook inner(throw_hook());
    expect_failure([&] { solve_steady_state(repair_chain()); },
                   SolveCause::kNonConverged, "non-converged");
  }
  expect_failure([&] { solve_steady_state(repair_chain()); },
                 SolveCause::kNanOrInf, "nan-or-inf");
}

TEST(InjectedFaults, TimeoutWithoutDeadlineIsCapped) {
  const ScopedPostSolveHook scope(timeout_hook(1.0));
  expect_failure([&] { solve_steady_state(repair_chain()); },
                 SolveCause::kDeadlineExceeded,
                 "direct failed (deadline-exceeded)");
}

TEST(InjectedFaults, DtmcEpisodeReportsFault) {
  const rascad::markov::Dtmc dtmc = two_state_dtmc();
  const ScopedPostSolveHook scope(nan_hook());
  expect_failure([&] { (void)dtmc.stationary(); }, SolveCause::kNanOrInf,
                 "Dtmc::stationary");
}

// The semi-Markov steady state runs its embedded chain's checked solve, so
// a fault there surfaces through the SMP entry point with its trace.
TEST(InjectedFaults, SmpEpisodeReportsFault) {
  rascad::semimarkov::SmpBuilder b;
  b.add_state("up", 1.0);
  b.add_state("down", 0.0);
  b.set_exponential(0, {{1, 1.0}});
  b.set_exponential(1, {{0, 9.0}});
  const rascad::semimarkov::SemiMarkovProcess smp = b.build();
  const ScopedPostSolveHook scope(nan_hook());
  SolveTrace trace;
  expect_failure([&] { (void)smp.steady_state({}, &trace); },
                 SolveCause::kNanOrInf, "Dtmc::stationary");
  EXPECT_TRUE(trace.ran);
  EXPECT_FALSE(trace.success);
}

// The first-passage measures run checked solves too: a NaN through the
// seam is refused, and with no hook installed the answer is the bare GTH
// solve's, bit for bit.
TEST(InjectedFaults, FirstPassageEpisodesReportFault) {
  rascad::markov::DtmcBuilder db;
  for (int i = 0; i < 4; ++i) db.add_state("s" + std::to_string(i));
  db.add_transition(0, 0, 0.3);
  db.add_transition(0, 1, 0.7);
  db.add_transition(1, 0, 0.4);
  db.add_transition(1, 2, 0.6);
  db.add_transition(2, 1, 0.5);
  db.add_transition(2, 3, 0.5);
  db.add_transition(3, 3, 1.0);
  const rascad::markov::Dtmc dtmc = db.build();

  rascad::semimarkov::SmpBuilder sb;
  sb.add_state("up", 1.0, rascad::dist::deterministic(100.0));
  sb.add_state("degraded", 1.0, rascad::dist::uniform(2.0, 8.0));
  sb.add_state("failed", 0.0);
  sb.add_transition(0, 1, 1.0);
  sb.add_transition(1, 0, 0.9);
  sb.add_transition(1, 2, 0.1);
  const rascad::semimarkov::SemiMarkovProcess smp = sb.build_with_absorbing();

  {
    const ScopedPostSolveHook scope(nan_hook());
    expect_failure([&] { (void)dtmc.expected_steps_to_absorption(0); },
                   SolveCause::kNanOrInf, "Dtmc::expected_steps_to_absorption");
    expect_failure([&] { (void)smp.mean_time_to_absorption(0); },
                   SolveCause::kNanOrInf,
                   "SemiMarkovProcess::mean_time_to_absorption");
  }

  using rascad::markov::gth_absorption_times;
  using rascad::markov::split_transient;
  const auto steps = split_transient(dtmc.transition_matrix(),
                                     {false, false, false, true});
  const Vector tau =
      gth_absorption_times(steps.weights, steps.exits, Vector(3, 1.0));
  EXPECT_EQ(dtmc.expected_steps_to_absorption(0), tau[0]);
  EXPECT_EQ(dtmc.expected_steps_to_absorption(2), tau[2]);

  const auto times = split_transient(smp.embedded().transition_matrix(),
                                     {false, false, true});
  const Vector t =
      gth_absorption_times(times.weights, times.exits, Vector{100.0, 5.0});
  EXPECT_EQ(smp.mean_time_to_absorption(0), t[0]);
  EXPECT_EQ(smp.mean_time_to_absorption(1), t[1]);
}

TEST(InjectedFaults, MttfEpisodeRecordsFailedAttempt) {
  CtmcBuilder b;
  const auto up = b.add_state("up", 1.0);
  const auto down = b.add_state("down", 0.0);
  b.add_transition(up, down, 0.5);
  b.add_transition(down, up, 10.0);
  const Ctmc chain = b.build();
  SolveTrace trace;
  {
    const ScopedPostSolveHook scope(nan_hook());
    expect_failure([&] { rascad::markov::mttf(chain, 0, {}, &trace); },
                   SolveCause::kNanOrInf, "mttf");
  }
  EXPECT_FALSE(trace.success);
  EXPECT_TRUE(trace.ran);
  EXPECT_EQ(trace.cause, SolveCause::kNanOrInf);
  EXPECT_NEAR(rascad::markov::mttf(chain, 0), 2.0, 1e-14);
}

}  // namespace
