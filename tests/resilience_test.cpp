// The checked solves: exact GTH solver, health checks, the one checked
// solve per measure (budget, deadlines, refusal of reducible chains), the
// documented SolveError causes, and one answer per chain over the model
// corpus.
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "core/library.hpp"
#include "gmb/workspace.hpp"
#include "markov/absorbing.hpp"
#include "markov/dtmc.hpp"
#include "markov/health.hpp"
#include "markov/steady_state.hpp"
#include "mg/generator.hpp"
#include "mg/system.hpp"
#include "robust/solve_error.hpp"
#include "semimarkov/smp.hpp"
#include "spec/parser.hpp"
#include "fault_seam.hpp"

namespace {

using rascad::linalg::Vector;
using rascad::markov::Ctmc;
using rascad::markov::CtmcBuilder;
using rascad::markov::gth_stationary;
using rascad::markov::mttf;
using rascad::markov::solve_steady_state;
using rascad::markov::SolveTrace;
using rascad::markov::SteadyStateResult;
using rascad::robust::SolveCause;
using rascad::robust::SolveError;
using rascad::testing::ill_conditioned_chain;
using namespace rascad::markov;  // the health checks

/// Two-state up/down availability chain: pi = (mu, lambda) / (lambda + mu).
Ctmc up_down_chain(double lambda, double mu) {
  CtmcBuilder b;
  const auto up = b.add_state("up", 1.0);
  const auto down = b.add_state("down", 0.0);
  b.add_transition(up, down, lambda);
  b.add_transition(down, up, mu);
  return b.build();
}

/// Irreducible 3-state repair chain with a known nontrivial stationary
/// distribution.
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

/// Two disconnected 2-cycles: no unique stationary distribution.
Ctmc disconnected_chain() {
  CtmcBuilder b;
  const auto a0 = b.add_state("a0", 1.0);
  const auto a1 = b.add_state("a1", 0.0);
  const auto b0 = b.add_state("b0", 1.0);
  const auto b1 = b.add_state("b1", 0.0);
  b.add_transition(a0, a1, 1.0);
  b.add_transition(a1, a0, 2.0);
  b.add_transition(b0, b1, 3.0);
  b.add_transition(b1, b0, 4.0);
  return b.build();
}

/// Unichain whose initial state is transient: "boot" leads into the closed
/// class {up, down} and is never re-entered.
Ctmc transient_start_chain() {
  CtmcBuilder b;
  const auto boot = b.add_state("boot", 0.0);
  const auto up = b.add_state("up", 1.0);
  const auto down = b.add_state("down", 0.0);
  b.add_transition(boot, up, 4.0);
  b.add_transition(up, down, 1.0);
  b.add_transition(down, up, 3.0);
  return b.build();
}

/// Chain with an absorbing state (no exit from "dead").
Ctmc absorbing_chain() {
  CtmcBuilder b;
  const auto up = b.add_state("up", 1.0);
  b.add_state("dead", 0.0);
  b.add_transition(up, 1, 1.0);
  return b.build();
}

double max_rel_err(const Vector& got, const Vector& want) {
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    worst = std::max(worst, std::abs(got[i] - want[i]) /
                                std::max(std::abs(want[i]), 1e-300));
  }
  return worst;
}

/// Stationary vector of ill_conditioned_chain(pairs, spread) from detailed
/// balance: pi_{i+1} = pi_i * rate(i->i+1) / rate(i+1->i).
Vector ill_conditioned_exact(std::size_t pairs, double spread) {
  const std::size_t n = 2 * pairs + 1;
  std::vector<long double> raw(n);
  raw[0] = 1.0L;
  long double mass = 1.0L;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const long double ratio = (i % 2 == 0) ? spread : 1.0L / spread;
    raw[i + 1] = raw[i] * ratio;
    mass += raw[i + 1];
  }
  Vector exact(n);
  for (std::size_t i = 0; i < n; ++i) {
    exact[i] = static_cast<double>(raw[i] / mass);
  }
  return exact;
}

// ---------------------------------------------------------------- GTH ----

TEST(Gth, MatchesAnalyticTwoState) {
  const Vector pi = gth_stationary(up_down_chain(1.0, 9.0).generator());
  ASSERT_EQ(pi.size(), 2u);
  EXPECT_NEAR(pi[0], 0.9, 1e-14);
  EXPECT_NEAR(pi[1], 0.1, 1e-14);
}

TEST(Gth, MatchesAnalyticRepairChain) {
  // Balance: pi_deg = pi_ok / 3, pi_down = pi_deg / 10.
  const Vector exact{30.0 / 41.0, 10.0 / 41.0, 1.0 / 41.0};
  EXPECT_LT(max_rel_err(gth_stationary(repair_chain().generator()), exact),
            1e-14);
}

TEST(Gth, DtmcStationaryMatchesAnalytic) {
  rascad::markov::DtmcBuilder b;
  b.add_state("a");
  b.add_state("b");
  b.add_state("c");
  b.add_transition(0, 1, 0.7);
  b.add_transition(0, 2, 0.3);
  b.add_transition(1, 0, 0.4);
  b.add_transition(1, 2, 0.6);
  b.add_transition(2, 0, 1.0);
  const rascad::markov::Dtmc dtmc = b.build();
  // Balance: pi_b = 0.7 pi_a, pi_c = 0.3 pi_a + 0.6 pi_b = 0.72 pi_a.
  const Vector exact{1.0 / 2.42, 0.7 / 2.42, 0.72 / 2.42};
  EXPECT_LT(max_rel_err(gth_stationary(dtmc.transition_matrix()), exact),
            1e-14);
  EXPECT_LT(max_rel_err(dtmc.stationary(), exact), 1e-14);
}

TEST(Gth, ReducibleChainThrowsInvalidInput) {
  try {
    gth_stationary(absorbing_chain().generator());
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kInvalidInput);
  }
}

// The acceptance chain: componentwise-accurate on a stiff birth-death
// chain whose stationary masses span `spread` orders of magnitude. The
// analytic reference comes from detailed balance.
TEST(Gth, ComponentwiseAccurateOnIllConditionedChain) {
  const Ctmc chain = ill_conditioned_chain(3, 1e6);
  const Vector exact = ill_conditioned_exact(3, 1e6);
  EXPECT_LT(max_rel_err(gth_stationary(chain.generator()), exact), 1e-12);
  EXPECT_LT(max_rel_err(solve_steady_state(chain).pi, exact), 1e-12);
}

// ------------------------------------------------------- health checks ----

TEST(Health, AllFinite) {
  EXPECT_TRUE(all_finite(Vector{0.5, 0.5}));
  EXPECT_FALSE(all_finite(Vector{0.5, std::nan("")}));
  EXPECT_FALSE(all_finite(Vector{0.5, HUGE_VAL}));
}

TEST(Health, ClampsRoundoffNegativesAndRenormalizes) {
  Vector pi{0.6, 0.4 + 1e-12, -1e-12};
  const HealthReport r = check_distribution(pi);
  EXPECT_TRUE(r.ok);
  EXPECT_NEAR(r.clamped_mass, 1e-12, 1e-15);
  EXPECT_DOUBLE_EQ(pi[2], 0.0);
  EXPECT_NEAR(pi[0] + pi[1] + pi[2], 1.0, 1e-14);
}

TEST(Health, RejectsLargeNegativeMass) {
  Vector pi{0.9, 0.6, -0.5};
  const HealthReport r = check_distribution(pi);
  EXPECT_FALSE(r.ok);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(*r.failure, SolveCause::kNanOrInf);
}

TEST(Health, RejectsNan) {
  Vector pi{0.5, std::nan("")};
  const HealthReport r = check_distribution(pi);
  EXPECT_FALSE(r.ok);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(*r.failure, SolveCause::kNanOrInf);
}

TEST(Health, ResidualRecheckCatchesWrongDistribution) {
  const Ctmc chain = up_down_chain(1.0, 9.0);
  Vector wrong{0.5, 0.5};  // valid distribution, not stationary
  const HealthReport r = check_stationary(chain, wrong);
  EXPECT_FALSE(r.ok);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(*r.failure, SolveCause::kNonConverged);
  EXPECT_GT(r.residual_inf, 0.1);
}

TEST(Health, ResidualRecheckAcceptsTrueStationary) {
  const Ctmc chain = up_down_chain(1.0, 9.0);
  Vector pi{0.9, 0.1};
  const HealthReport r = check_stationary(chain, pi);
  EXPECT_TRUE(r.ok) << r.detail;
}

/// Mean times to failure of a 1-of-4 birth-death block (MTBF 1,000 h,
/// 3 h repair, one repairman), with the fundamental matrix a = -Q_TT over
/// its up states. The MTTF is ~1.6e9 h.
struct OneOfFour {
  rascad::linalg::CsrMatrix a;
  Vector tau;
};

OneOfFour one_of_four() {
  CtmcBuilder b;
  for (int i = 0; i <= 4; ++i) {
    b.add_state("L" + std::to_string(i), i < 4 ? 1.0 : 0.0);
  }
  for (int i = 0; i < 4; ++i) {
    b.add_transition(i, i + 1, (4 - i) * 1e-3);
    b.add_transition(i + 1, i, 1.0 / 3.0);
  }
  const Ctmc chain = b.build();
  std::vector<bool> absorbing(5, false);
  absorbing[4] = true;
  const rascad::markov::TransientSplit split =
      rascad::markov::split_transient(chain.generator(), absorbing);
  rascad::linalg::CsrBuilder ab(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    const auto row = chain.generator().row(r);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] < 4) ab.add(r, row.cols[k], -row.values[k]);
    }
  }
  return {ab.build(), rascad::markov::gth_absorption_times(
                          split.weights, split.exits, Vector(4, 1.0))};
}

TEST(Health, AbsorptionCheckAcceptsExactLargeTimes) {
  // An absolute bound on ||a tau - 1|| rejects these exact times: the
  // round-off in a tau alone is ~eps * |a| |tau| ~ 1e-9.
  const OneOfFour sys = one_of_four();
  ASSERT_GT(sys.tau[0], 1e9);
  const HealthReport r =
      check_absorption_times(sys.a, sys.tau, Vector(4, 1.0));
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_LT(r.residual_inf, 1e-15);
}

TEST(Health, AbsorptionCheckRejectsPerturbedTimes) {
  OneOfFour sys = one_of_four();
  const double signs[] = {1.0, -1.0, -1.0, 1.0};
  for (std::size_t i = 0; i < 4; ++i) sys.tau[i] *= 1.0 + 1e-6 * signs[i];
  const HealthReport r =
      check_absorption_times(sys.a, sys.tau, Vector(4, 1.0));
  EXPECT_FALSE(r.ok);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(*r.failure, SolveCause::kNonConverged);
  EXPECT_GT(r.residual_inf, 1e-7);
}

TEST(Health, AbsorptionCheckRejectsNanAndNegative) {
  OneOfFour sys = one_of_four();
  Vector nan_tau = sys.tau;
  nan_tau[2] = std::nan("");
  EXPECT_EQ(check_absorption_times(sys.a, nan_tau, Vector(4, 1.0)).failure,
            SolveCause::kNanOrInf);
  sys.tau[1] = -1.0;
  EXPECT_EQ(check_absorption_times(sys.a, sys.tau, Vector(4, 1.0)).failure,
            SolveCause::kNanOrInf);
}

// ------------------------------------------------------------- episode ----

TEST(Episode, HealthyPathIsSingleDirectAttempt) {
  SolveTrace trace;
  const SteadyStateResult r =
      solve_steady_state(up_down_chain(1.0, 9.0), {}, &trace);
  EXPECT_TRUE(trace.success);
  EXPECT_TRUE(trace.ran);
  EXPECT_EQ(trace.message, "n=2 bw=1");
  EXPECT_NEAR(r.pi[0], 0.9, 1e-12);
  EXPECT_NE(trace.summary().find("direct ok [1 attempt, "),
            std::string::npos);
}

// Masses spanning 1e9 per level, 17 states: the one attempt is exact.
TEST(Episode, StiffChainSolvedExactlyInOneAttempt) {
  SolveTrace trace;
  const SteadyStateResult r =
      solve_steady_state(ill_conditioned_chain(8, 1e9), {}, &trace);
  EXPECT_TRUE(trace.success);
  EXPECT_LT(max_rel_err(r.pi, ill_conditioned_exact(8, 1e9)), 1e-12);
}

// The reported residual is the health check's own ||pi Q||_inf, bit for
// bit the value a fresh product with the accepted vector gives.
TEST(Episode, ResidualIsTheHealthCheckResidual) {
  for (const Ctmc& chain : {up_down_chain(1.0, 9.0), repair_chain(),
                            ill_conditioned_chain(8, 1e9)}) {
    SolveTrace trace;
    const SteadyStateResult r = solve_steady_state(chain, {}, &trace);
    ASSERT_TRUE(trace.success) << trace.summary();
    EXPECT_EQ(r.residual, trace.residual_check);
    EXPECT_EQ(r.residual, rascad::linalg::norm_inf(
                              chain.generator().mul_transpose(r.pi)));
  }
}

// Also the single-absorbing-state case of the reducibility contract.
TEST(Episode, FailedSolveThrowsWithTrace) {
  SolveTrace trace;
  try {
    solve_steady_state(absorbing_chain(), {}, &trace);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("solve failed: direct failed "
                                         "(invalid-input) [1 attempt, "),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(trace.ran);
  EXPECT_FALSE(trace.success);
  EXPECT_EQ(trace.cause, SolveCause::kInvalidInput);
}

// One state over the budget is refused before any elimination: the token
// handed in is already cancelled, so the first checkpoint of the ordering
// would have thrown kCancelled, and the trace never records an episode.
TEST(Episode, StateBudgetRefusedUpFront) {
  const std::size_t n = rascad::markov::kMaxStates + 1;
  CtmcBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    b.add_state("s" + std::to_string(i), i + 1 < n ? 1.0 : 0.0);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.add_transition(i, i + 1, 1e-3);
    b.add_transition(i + 1, i, 1.0);
  }
  const Ctmc chain = b.build();
  const rascad::robust::CancelToken stopped =
      rascad::robust::CancelToken::manual();
  stopped.request_cancel();
  SolveTrace trace;
  try {
    solve_steady_state(chain, stopped, &trace);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kBudgetExceeded);
    EXPECT_NE(std::string(e.what()).find("chain has 200001 states, budget "
                                         "is 200000"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(trace.ran);
  EXPECT_FALSE(stopped.observed());
}

TEST(Episode, ExpiredDeadlineObservedInsideTheSolve) {
  // Expires before the first checkpoint.
  const auto deadline = rascad::robust::CancelToken::with_deadline_ms(1e-9);
  try {
    solve_steady_state(repair_chain(), deadline);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kDeadlineExceeded);
  }
}

TEST(Episode, SingleStateChainTrivialEpisode) {
  CtmcBuilder b;
  b.add_state("only", 1.0);
  SolveTrace trace;
  const SteadyStateResult r = solve_steady_state(b.build(), {}, &trace);
  EXPECT_TRUE(trace.success);
  ASSERT_EQ(r.pi.size(), 1u);
  EXPECT_DOUBLE_EQ(r.pi[0], 1.0);
}

// ---------------------------------------------------- reducible chains ----

// The contract is irreducibility, so every entry point refuses a chain
// that is not irreducible. Only several closed classes make the answer
// ambiguous; a transient-start unichain or a single absorbing state has a
// unique stationary vector, and is refused by policy all the same.
void expect_invalid_input(const auto& solve) {
  try {
    solve();
    FAIL() << "expected SolveError(kInvalidInput)";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kInvalidInput) << e.what();
  }
}

TEST(Reducible, TwoClosedClassesRefused) {
  expect_invalid_input([] { solve_steady_state(disconnected_chain()); });
  expect_invalid_input(
      [] { gth_stationary(disconnected_chain().generator()); });
}

TEST(Reducible, TransientInitialStateRefused) {
  expect_invalid_input([] { solve_steady_state(transient_start_chain()); });
}

// The elimination order decides whether GTH meets a transient state
// before or after the closed class; either way it is refused.
TEST(Reducible, TransientStateRefusedInEveryPosition) {
  for (std::size_t t = 0; t < 4; ++t) {
    CtmcBuilder b;
    for (std::size_t i = 0; i < 4; ++i) {
      b.add_state("s" + std::to_string(i), 1.0);
    }
    const std::size_t c0 = (t + 1) % 4, c1 = (t + 2) % 4, c2 = (t + 3) % 4;
    b.add_transition(t, c0, 1.0);
    b.add_transition(c0, c1, 2.0);
    b.add_transition(c1, c2, 3.0);
    b.add_transition(c2, c0, 4.0);
    const Ctmc chain = b.build();
    expect_invalid_input([&] { gth_stationary(chain.generator()); });
  }
}

TEST(Reducible, DtmcWithTwoClosedClassesRefused) {
  rascad::markov::DtmcBuilder b;
  for (const char* name : {"a0", "a1", "b0", "b1"}) b.add_state(name);
  b.add_transition(0, 1, 1.0);
  b.add_transition(1, 0, 1.0);
  b.add_transition(2, 3, 0.5);
  b.add_transition(2, 2, 0.5);
  b.add_transition(3, 2, 1.0);
  const rascad::markov::Dtmc dtmc = b.build();
  expect_invalid_input([&] { (void)dtmc.stationary(); });
}

// ---------------------------------------------------- other measures ----

TEST(Measures, DtmcStationaryIsCheckedGth) {
  rascad::markov::DtmcBuilder b;
  b.add_state("a");
  b.add_state("b");
  b.add_transition(0, 1, 1.0);
  b.add_transition(1, 0, 0.5);
  b.add_transition(1, 1, 0.5);
  const rascad::markov::Dtmc dtmc = b.build();
  SolveTrace trace;
  const Vector pi = dtmc.stationary({}, &trace);
  EXPECT_TRUE(trace.success);
  EXPECT_EQ(trace.message, "n=2 bw=1");
  EXPECT_EQ(pi, gth_stationary(dtmc.transition_matrix()));
  EXPECT_LT(trace.residual_check, 1e-15);
}

TEST(Measures, SmpSteadyStateIsChecked) {
  rascad::semimarkov::SmpBuilder b;
  b.add_state("up", 1.0);
  b.add_state("down", 0.0);
  b.set_exponential(0, {{1, 1.0}});
  b.set_exponential(1, {{0, 9.0}});
  const rascad::semimarkov::SemiMarkovProcess smp = b.build();
  SolveTrace trace;
  const Vector pi = smp.steady_state({}, &trace);
  EXPECT_TRUE(trace.success);
  EXPECT_EQ(pi[0], smp.steady_state_reward());
  EXPECT_NEAR(pi[0], 0.9, 1e-12);
  EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-12);
}

TEST(Measures, MttfMatchesAnalytic) {
  // Up -> down at rate lambda: MTTF = 1 / lambda from "up".
  const double lambda = 0.25;
  const Ctmc chain = up_down_chain(lambda, 100.0);
  SolveTrace trace;
  const double got = mttf(chain, 0, {}, &trace);
  EXPECT_TRUE(trace.success);
  EXPECT_EQ(trace.message, "n=1 bw=0");
  EXPECT_NEAR(got, 1.0 / lambda, 1e-9);
}

TEST(Measures, MttfMatchesClosedForm) {
  // ok -(2)-> degraded -(1)-> down, degraded -(5)-> ok: a birth-death
  // first passage, MTTF = 1/2 + (1 + 5 * 1/2) = 4.
  const double want = rascad::baselines::birth_death_mttf({2.0, 1.0},
                                                          {5.0, 10.0});
  EXPECT_DOUBLE_EQ(want, 4.0);
  EXPECT_NEAR(mttf(repair_chain(), 0), want, 1e-14 * want);
}

TEST(Measures, MttfZeroWhenChainCannotFail) {
  CtmcBuilder b;
  b.add_state("a", 1.0);
  b.add_state("b", 1.0);
  b.add_transition(0, 1, 1.0);
  b.add_transition(1, 0, 1.0);
  EXPECT_DOUBLE_EQ(mttf(b.build(), 0), 0.0);
  // A down initial state has failed already.
  EXPECT_DOUBLE_EQ(mttf(repair_chain(), 2), 0.0);
}

// ------------------------------------------------ one chain, one answer ----

/// The library models and the example web shop.
std::vector<std::pair<std::string, rascad::spec::ModelSpec>> corpus() {
  std::vector<std::pair<std::string, rascad::spec::ModelSpec>> out;
  for (const auto& entry : rascad::core::library::all_models()) {
    out.emplace_back(entry.name, entry.factory());
  }
  out.emplace_back("web_shop",
                   rascad::spec::parse_model_file(
                       std::string(RASCAD_EXAMPLES_DIR) + "/web_shop.rsc"));
  return out;
}

// A chain has one stationary answer. The checked solve hands on GTH's
// vector bit for bit with the health check's own ||pi Q||_inf, and a
// system block's availability is read from that vector. A block's
// semi-Markov twin gives one availability whether it is asked through
// mg::smp_availability or a GMB workspace.
TEST(OneAnswer, CorpusBlocksSolveToTheGthVector) {
  std::size_t blocks = 0;
  std::size_t smp_blocks = 0;
  for (const auto& [name, spec] : corpus()) {
    rascad::mg::SystemModel::Options opts;
    opts.cache = nullptr;
    const auto system = rascad::mg::SystemModel::build(spec, opts);
    for (const auto& b : system.blocks()) {
      const std::string what = name + "/" + b.diagram + "/" + b.block.name;
      const Ctmc& chain = *b.chain;
      const SteadyStateResult r = solve_steady_state(chain);
      EXPECT_EQ(r.pi, gth_stationary(chain.generator())) << what;
      EXPECT_EQ(r.residual, rascad::linalg::norm_inf(
                                chain.generator().mul_transpose(r.pi)))
          << what;
      EXPECT_EQ(b.availability, expected_reward(chain, r.pi)) << what;
      ++blocks;
      if (b.block.mode == rascad::spec::RedundancyMode::kPrimaryStandby) {
        continue;  // CTMC-only
      }
      rascad::gmb::Workspace workspace;
      workspace.add_semi_markov(
          what, rascad::mg::generate_smp(b.block, spec.globals));
      EXPECT_EQ(rascad::mg::smp_availability(b.block, spec.globals),
                workspace.availability(what))
          << what;
      ASSERT_NE(workspace.solve_trace(what), nullptr) << what;
      EXPECT_TRUE(workspace.solve_trace(what)->success) << what;
      ++smp_blocks;
    }
  }
  EXPECT_GT(blocks, 40u);
  EXPECT_GT(smp_blocks, 0u);
}

}  // namespace
