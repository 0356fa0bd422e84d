// Fault-injection harness: every fault kind is forced on the checked solve
// episodes and the recorded causes checked; corrupt-result faults must be
// caught by the health layer (not the solver's own error paths).
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "resilience/fault_injection.hpp"
#include "resilience/resilience.hpp"

namespace {

using rascad::linalg::Vector;
using rascad::markov::Ctmc;
using rascad::markov::CtmcBuilder;
using namespace rascad::resilience;

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

// ------------------------------------------------------ fault primitives ----

TEST(FaultPrimitives, CorruptResultNan) {
  Vector pi{0.25, 0.25, 0.25, 0.25};
  corrupt_result(pi, FaultKind::kNanResult);
  EXPECT_TRUE(std::isnan(pi[2]));
}

TEST(FaultPrimitives, CorruptResultNegative) {
  Vector pi{0.7, 0.3};
  corrupt_result(pi, FaultKind::kNegativeResult);
  EXPECT_LT(pi[1], 0.0);
}

TEST(FaultPrimitives, PlanBudgetIsSharedByCopies) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_EQ(plan.take_fault(), FaultKind::kNone);
  plan.fail_times(FaultKind::kNanResult, 2);
  EXPECT_TRUE(plan.active());
  const FaultPlan copy = plan;
  EXPECT_EQ(plan.take_fault(), FaultKind::kNanResult);
  EXPECT_EQ(copy.take_fault(), FaultKind::kNanResult);
  EXPECT_EQ(plan.take_fault(), FaultKind::kNone);
  EXPECT_EQ(plan.initial, 2);
  plan.fail(FaultKind::kStall);
  EXPECT_EQ(plan.take_fault(), FaultKind::kStall);
  EXPECT_EQ(plan.take_fault(), FaultKind::kStall);
}

TEST(FaultPrimitives, ScaledRatesPreserveAvailability) {
  const Ctmc chain = repair_chain();
  const Ctmc scaled = with_scaled_rates(chain, 1e-3);
  const Vector a = solve_steady_state_resilient(chain).result.pi;
  const Vector b = solve_steady_state_resilient(scaled).result.pi;
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

/// Runs `solve` expecting a SolveError with `cause` whose message names the
/// failed attempt.
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
  ResilienceConfig config;
  config.fault_plan.fail(FaultKind::kThrowNonConverged);
  expect_failure([&] { solve_steady_state_resilient(repair_chain(), config); },
                 SolveCause::kNonConverged, "direct failed (non-converged)");
}

// Corrupt-result faults bypass the solver's own error handling entirely;
// only the health layer can catch them.
TEST(InjectedFaults, NanResultCaughtByHealthLayer) {
  ResilienceConfig config;
  config.fault_plan.fail(FaultKind::kNanResult);
  expect_failure([&] { solve_steady_state_resilient(repair_chain(), config); },
                 SolveCause::kNanOrInf, "direct failed (nan-or-inf)");
}

TEST(InjectedFaults, NegativeResultCaughtByHealthLayer) {
  ResilienceConfig config;
  config.fault_plan.fail(FaultKind::kNegativeResult);
  expect_failure([&] { solve_steady_state_resilient(repair_chain(), config); },
                 SolveCause::kNanOrInf, "direct failed (nan-or-inf)");
}

TEST(InjectedFaults, SpentBudgetLetsLaterSolvesSucceed) {
  ResilienceConfig config;
  config.fault_plan.fail_times(FaultKind::kThrowNonConverged, 1);
  EXPECT_THROW(solve_steady_state_resilient(repair_chain(), config),
               SolveError);
  const ResilientResult r = solve_steady_state_resilient(repair_chain(), config);
  EXPECT_TRUE(r.trace.success);
  EXPECT_EQ(r.result.pi, solve_steady_state_resilient(repair_chain()).result.pi);
}

TEST(InjectedFaults, TimeoutWithoutDeadlineIsCapped) {
  ResilienceConfig config;
  config.fault_plan.fail(FaultKind::kTimeout);
  config.fault_plan.timeout_cap_ms = 1.0;
  expect_failure([&] { solve_steady_state_resilient(repair_chain(), config); },
                 SolveCause::kDeadlineExceeded,
                 "direct failed (deadline-exceeded)");
}

TEST(InjectedFaults, DtmcEpisodeReportsFault) {
  rascad::markov::DtmcBuilder b;
  b.add_state("a");
  b.add_state("b");
  b.add_transition(0, 1, 1.0);
  b.add_transition(1, 0, 0.5);
  b.add_transition(1, 1, 0.5);
  const rascad::markov::Dtmc dtmc = b.build();
  ResilienceConfig config;
  config.fault_plan.fail(FaultKind::kNanResult);
  expect_failure([&] { stationary_resilient(dtmc, config); },
                 SolveCause::kNanOrInf, "stationary_resilient");
}

TEST(InjectedFaults, MttfEpisodeRecordsFailedAttempt) {
  CtmcBuilder b;
  const auto up = b.add_state("up", 1.0);
  const auto down = b.add_state("down", 0.0);
  b.add_transition(up, down, 0.5);
  b.add_transition(down, up, 10.0);
  const Ctmc chain = b.build();
  ResilienceConfig config;
  config.fault_plan.fail(FaultKind::kNanResult);
  SolveTrace trace;
  expect_failure([&] { mttf_resilient(chain, 0, config, &trace); },
                 SolveCause::kNanOrInf, "mttf_resilient");
  EXPECT_FALSE(trace.success);
  EXPECT_TRUE(trace.ran);
  EXPECT_EQ(trace.cause, SolveCause::kNanOrInf);
  EXPECT_NEAR(mttf_resilient(chain, 0), 2.0, 1e-14);
}

}  // namespace
