// Fault-injection harness: every rung-to-rung transition of the ladders is
// forced and the recorded causes checked; corrupt-result faults must be
// caught by the health layer (not the solvers' own error paths).
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

TEST(FaultPrimitives, PlanLookup) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  plan.fail(Rung::kSor, FaultKind::kThrowSingular);
  EXPECT_TRUE(plan.active());
  EXPECT_EQ(plan.fault_for(Rung::kSor), FaultKind::kThrowSingular);
  EXPECT_EQ(plan.fault_for(Rung::kDirect), FaultKind::kNone);
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

// -------------------------------------------------- rung transitions ----

/// Forces the first k rungs of the default ladder to fail and checks that
/// the episode recovers at rung k+1 with every failure cause recorded —
/// the acceptance criterion for the harness.
TEST(RungTransitions, EveryEscalationStepFires) {
  const Ctmc chain = repair_chain();
  const ResilienceConfig defaults;
  ASSERT_EQ(defaults.rungs.size(), 4u);
  for (std::size_t k = 0; k + 1 < defaults.rungs.size(); ++k) {
    ResilienceConfig config;
    for (std::size_t j = 0; j <= k; ++j) {
      config.fault_plan.fail(config.rungs[j], FaultKind::kThrowNonConverged);
    }
    const ResilientResult r = solve_steady_state_resilient(chain, config);
    EXPECT_TRUE(r.trace.success) << "k=" << k;
    EXPECT_EQ(r.trace.final_rung, config.rungs[k + 1]) << "k=" << k;
    ASSERT_EQ(r.trace.attempts.size(), k + 2) << "k=" << k;
    for (std::size_t j = 0; j <= k; ++j) {
      EXPECT_FALSE(r.trace.attempts[j].success);
      EXPECT_EQ(r.trace.attempts[j].cause, SolveCause::kNonConverged);
      EXPECT_EQ(r.trace.attempts[j].rung, config.rungs[j]);
    }
    EXPECT_TRUE(r.trace.attempts[k + 1].success);
    EXPECT_NEAR(r.result.pi[0] + r.result.pi[1] + r.result.pi[2], 1.0, 1e-9);
  }
}

TEST(RungTransitions, SingularFaultCauseIsRecorded) {
  ResilienceConfig config;
  config.fault_plan.fail(Rung::kDirect, FaultKind::kThrowSingular);
  const ResilientResult r = solve_steady_state_resilient(repair_chain(), config);
  EXPECT_TRUE(r.trace.success);
  ASSERT_GE(r.trace.attempts.size(), 2u);
  EXPECT_EQ(r.trace.attempts[0].cause, SolveCause::kSingular);
  EXPECT_NE(r.trace.summary().find("direct failed (singular)"),
            std::string::npos);
}

// Corrupt-result faults bypass the solver's own error handling entirely;
// only the health layer can catch them.
TEST(RungTransitions, NanResultCaughtByHealthLayer) {
  ResilienceConfig config;
  config.fault_plan.fail(Rung::kDirect, FaultKind::kNanResult);
  const ResilientResult r = solve_steady_state_resilient(repair_chain(), config);
  EXPECT_TRUE(r.trace.success);
  EXPECT_EQ(r.trace.final_rung, Rung::kBiCgStab);
  ASSERT_GE(r.trace.attempts.size(), 2u);
  EXPECT_EQ(r.trace.attempts[0].cause, SolveCause::kNanOrInf);
}

TEST(RungTransitions, NegativeResultCaughtByHealthLayer) {
  ResilienceConfig config;
  config.fault_plan.fail(Rung::kDirect, FaultKind::kNegativeResult);
  const ResilientResult r = solve_steady_state_resilient(repair_chain(), config);
  EXPECT_TRUE(r.trace.success);
  EXPECT_EQ(r.trace.final_rung, Rung::kBiCgStab);
  EXPECT_EQ(r.trace.attempts[0].cause, SolveCause::kNanOrInf);
  EXPECT_GT(r.trace.attempts[0].clamped_mass, 0.0);
}

TEST(RungTransitions, AllRungsFailingThrowsWithLastCause) {
  ResilienceConfig config;
  for (const Rung rung : config.rungs) {
    config.fault_plan.fail(rung, FaultKind::kThrowNonConverged);
  }
  try {
    solve_steady_state_resilient(repair_chain(), config);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kNonConverged);
    EXPECT_NE(std::string(e.what()).find("all rungs failed"),
              std::string::npos);
  }
}

TEST(RungTransitions, DtmcLadderEscalates) {
  rascad::markov::DtmcBuilder b;
  b.add_state("a");
  b.add_state("b");
  b.add_transition(0, 1, 1.0);
  b.add_transition(1, 0, 0.5);
  b.add_transition(1, 1, 0.5);
  ResilienceConfig config;
  config.fault_plan.fail(Rung::kDirect, FaultKind::kThrowSingular);
  const ResilientResult r = stationary_resilient(b.build(), config);
  EXPECT_TRUE(r.trace.success);
  EXPECT_NE(r.trace.final_rung, Rung::kDirect);
  EXPECT_NEAR(r.result.pi[0] + r.result.pi[1], 1.0, 1e-12);
}

TEST(RungTransitions, MttfLadderEscalates) {
  CtmcBuilder b;
  const auto up = b.add_state("up", 1.0);
  const auto down = b.add_state("down", 0.0);
  b.add_transition(up, down, 0.5);
  b.add_transition(down, up, 10.0);
  const Ctmc chain = b.build();
  ResilienceConfig config;
  config.fault_plan.fail(Rung::kDirect, FaultKind::kThrowSingular);
  SolveTrace trace;
  const double mttf = mttf_resilient(chain, 0, config, &trace);
  EXPECT_TRUE(trace.success);
  EXPECT_NE(trace.final_rung, Rung::kDirect);
  EXPECT_NEAR(mttf, 2.0, 1e-8);
}

}  // namespace
