// Tests for the CTMC engine: construction, the steady-state solver (against
// closed forms and a dense oracle), transient analysis by uniformization
// (against the two-state closed form), and absorbing-chain analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "dense_lu.hpp"
#include "markov/absorbing.hpp"
#include "markov/ctmc.hpp"
#include "markov/dtmc.hpp"
#include "markov/steady_state.hpp"
#include "markov/transient.hpp"
#include "semimarkov/smp.hpp"

namespace {

using rascad::markov::Ctmc;
using rascad::markov::CtmcBuilder;

/// The mean cost accrued from `start` until a down state is reached, at
/// cost rate cost(s) in each up state s: one gth_absorption_times solve
/// with the down states absorbing. Rates into one down state accrue the
/// probability of landing there; 1 in one state and 0 elsewhere accrues
/// the time spent in it.
template <typename CostFn>
double accrued_until_down(const Ctmc& chain,
                          rascad::markov::StateIndex start, CostFn cost) {
  std::vector<bool> down(chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    down[i] = chain.reward(i) <= 0.0;
  }
  const rascad::markov::TransientSplit split =
      rascad::markov::split_transient(chain.generator(), down);
  if (split.position[start] < 0) return 0.0;
  rascad::linalg::Vector c(split.states.size());
  for (std::size_t k = 0; k < c.size(); ++k) c[k] = cost(split.states[k]);
  return rascad::markov::gth_absorption_times(
      split.weights, split.exits,
      c)[static_cast<std::size_t>(split.position[start])];
}

Ctmc two_state_chain(double lambda, double mu) {
  CtmcBuilder b;
  const auto up = b.add_state("Up", 1.0);
  const auto down = b.add_state("Down", 0.0);
  b.add_transition(up, down, lambda);
  b.add_transition(down, up, mu);
  return b.build();
}

/// A 5-state repairable chain with two down states, used as a nontrivial
/// fixture (structure mimics a generated Type-3 chain).
Ctmc five_state_chain() {
  CtmcBuilder b;
  const auto ok = b.add_state("Ok", 1.0);
  const auto ar = b.add_state("AR", 0.0);
  const auto pf = b.add_state("PF", 1.0);
  const auto dn = b.add_state("Down", 0.0);
  const auto se = b.add_state("SE", 0.0);
  b.add_transition(ok, ar, 2e-4);
  b.add_transition(ar, pf, 12.0);
  b.add_transition(pf, ok, 0.02);
  b.add_transition(pf, se, 0.002);
  b.add_transition(pf, dn, 1e-4);
  b.add_transition(dn, pf, 0.25);
  b.add_transition(se, ok, 0.25);
  return b.build();
}

TEST(CtmcBuilder, RejectsBadInput) {
  CtmcBuilder b;
  const auto s0 = b.add_state("A", 1.0);
  EXPECT_THROW(b.add_state("A", 1.0), std::invalid_argument);
  EXPECT_THROW(b.add_state("B", -0.5), std::invalid_argument);
  const auto s1 = b.add_state("B", 0.0);
  EXPECT_THROW(b.add_transition(s0, s0, 1.0), std::invalid_argument);
  EXPECT_THROW(b.add_transition(s0, s1, 0.0), std::invalid_argument);
  EXPECT_THROW(b.add_transition(s0, 7, 1.0), std::out_of_range);
  EXPECT_THROW(CtmcBuilder{}.build(), std::invalid_argument);
}

TEST(CtmcBuilder, NameIndexAtScale) {
  constexpr std::size_t kStates = 50'000;
  CtmcBuilder b;
  for (std::size_t i = 0; i < kStates; ++i) {
    ASSERT_EQ(b.add_state("S" + std::to_string(i), 1.0), i);
  }
  for (std::size_t i = 0; i + 1 < kStates; ++i) {
    b.add_transition(i, i + 1, 1.0);
  }
  b.add_transition(kStates - 1, 0, 1.0);
  for (std::size_t i = 0; i < kStates; ++i) {
    ASSERT_EQ(b.find_state("S" + std::to_string(i)), i);
  }
  EXPECT_FALSE(b.find_state("S" + std::to_string(kStates)).has_value());
  EXPECT_THROW(b.add_state("S" + std::to_string(kStates - 1), 1.0),
               std::invalid_argument);
  EXPECT_EQ(b.state_count(), kStates);
  const Ctmc chain = b.build();
  for (std::size_t i = 0; i < kStates; ++i) {
    ASSERT_EQ(chain.find_state("S" + std::to_string(i)), i);
  }
  EXPECT_FALSE(chain.find_state("S").has_value());
  // build() moves the states into the chain: the builder is spent.
  EXPECT_EQ(b.state_count(), 0u);
}

TEST(NameIndex, DtmcAndSmpBuildersRejectDuplicatesAndFindStates) {
  rascad::markov::DtmcBuilder d;
  rascad::semimarkov::SmpBuilder s;
  for (std::size_t i = 0; i < 100; ++i) {
    const std::string name = "S" + std::to_string(i);
    EXPECT_EQ(d.add_state(name), i);
    EXPECT_EQ(s.add_state(name, 1.0, rascad::dist::exponential(1.0)), i);
  }
  EXPECT_THROW(d.add_state("S42"), std::invalid_argument);
  EXPECT_THROW(s.add_state("S42", 1.0), std::invalid_argument);
  for (std::size_t i = 0; i < 100; ++i) {
    d.add_transition(i, (i + 1) % 100, 1.0);
    s.add_transition(i, (i + 1) % 100, 1.0);
  }
  const auto dtmc = d.build();
  const auto smp = s.build();
  EXPECT_EQ(dtmc.find_state("S7"), 7u);
  EXPECT_EQ(smp.find_state("S99"), 99u);
  EXPECT_FALSE(dtmc.find_state("S100").has_value());
  EXPECT_FALSE(smp.find_state("").has_value());
}

TEST(Ctmc, GeneratorRowsSumToZero) {
  const Ctmc chain = five_state_chain();
  const auto sums = chain.generator().row_sums();
  for (double s : sums) EXPECT_NEAR(s, 0.0, 1e-15);
}

TEST(Ctmc, StateLookupAndClasses) {
  const Ctmc chain = five_state_chain();
  EXPECT_EQ(chain.size(), 5u);
  EXPECT_EQ(chain.transition_count(), 7u);
  ASSERT_TRUE(chain.find_state("PF").has_value());
  EXPECT_FALSE(chain.find_state("Nope").has_value());
  EXPECT_EQ(chain.up_states().size(), 2u);
  EXPECT_EQ(chain.down_states().size(), 3u);
}

TEST(Ctmc, UniformizedIsStochastic) {
  const Ctmc chain = five_state_chain();
  const auto [p, q] = chain.uniformized();
  EXPECT_GT(q, 0.0);
  const auto sums = p.row_sums();
  for (double s : sums) EXPECT_NEAR(s, 1.0, 1e-12);
  // All entries non-negative.
  for (std::size_t r = 0; r < p.rows(); ++r) {
    const auto row = p.row(r);
    for (std::size_t k = 0; k < row.size; ++k) {
      EXPECT_GE(row.values[k], 0.0);
    }
  }
}

TEST(SteadyState, TwoStateMatchesClosedForm) {
  const double lambda = 1e-3;
  const double mu = 0.5;
  const Ctmc chain = two_state_chain(lambda, mu);
  const auto result = rascad::markov::solve_steady_state(chain);
  const double expected = rascad::baselines::two_state_availability(lambda, mu);
  EXPECT_NEAR(rascad::markov::expected_reward(chain, result.pi), expected,
              1e-12);
}

TEST(SteadyState, FixtureMatchesDenseOracle) {
  // pi Q = 0 with the last equation replaced by sum(pi) = 1, solved by the
  // test-local dense LU.
  const Ctmc chain = five_state_chain();
  rascad::linalg::DenseMatrix a =
      rascad::linalg::to_dense(chain.generator().transposed());
  const std::size_t n = chain.size();
  for (std::size_t c = 0; c < n; ++c) a(n - 1, c) = 1.0;
  rascad::linalg::Vector rhs(n, 0.0);
  rhs[n - 1] = 1.0;
  const auto oracle = rascad::testing::dense_lu_solve(a, rhs);
  const auto result = rascad::markov::solve_steady_state(chain);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(result.pi[i], oracle[i], 1e-14) << "state " << i;
  }
  EXPECT_LT(result.residual, 1e-14);
}

TEST(SteadyState, BirthDeathMatchesBaseline) {
  // 3 units, repair rate mu, failure rate lambda each; compare the chain
  // solution to the closed-form birth-death stationary distribution.
  const double lambda = 0.01;
  const double mu = 0.8;
  CtmcBuilder b;
  const auto s0 = b.add_state("0down", 1.0);
  const auto s1 = b.add_state("1down", 1.0);
  const auto s2 = b.add_state("2down", 0.0);
  const auto s3 = b.add_state("3down", 0.0);
  b.add_transition(s0, s1, 3 * lambda);
  b.add_transition(s1, s2, 2 * lambda);
  b.add_transition(s2, s3, 1 * lambda);
  b.add_transition(s1, s0, 1 * mu);
  b.add_transition(s2, s1, 2 * mu);
  b.add_transition(s3, s2, 3 * mu);
  const Ctmc chain = b.build();
  const auto result = rascad::markov::solve_steady_state(chain);
  const auto pi = rascad::baselines::birth_death_stationary(
      {3 * lambda, 2 * lambda, lambda}, {mu, 2 * mu, 3 * mu});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.pi[i], pi[i], 1e-12) << i;
  }
}

TEST(SteadyState, EquivalentRatesBalanceAtSteadyState) {
  const Ctmc chain = five_state_chain();
  const auto result = rascad::markov::solve_steady_state(chain);
  const double a = rascad::markov::expected_reward(chain, result.pi);
  const double efr = rascad::markov::equivalent_failure_rate(chain, result.pi);
  const double err = rascad::markov::equivalent_recovery_rate(chain, result.pi);
  // Flow balance: A * EFR == (1 - A) * ERR at steady state.
  EXPECT_NEAR(a * efr, (1.0 - a) * err, 1e-12);
  EXPECT_GT(efr, 0.0);
  EXPECT_GT(err, 0.0);
}

TEST(SteadyState, SingleStateChain) {
  CtmcBuilder b;
  b.add_state("Only", 1.0);
  const auto result = rascad::markov::solve_steady_state(b.build());
  ASSERT_EQ(result.pi.size(), 1u);
  EXPECT_DOUBLE_EQ(result.pi[0], 1.0);
}

TEST(Transient, PointAvailabilityMatchesClosedForm) {
  const double lambda = 0.05;
  const double mu = 2.0;
  const Ctmc chain = two_state_chain(lambda, mu);
  const auto pi0 = rascad::markov::point_mass(chain, 0);
  for (double t : {0.1, 1.0, 5.0, 50.0}) {
    const double got = rascad::markov::point_availability(chain, pi0, t);
    const double expected =
        rascad::baselines::two_state_point_availability(lambda, mu, t);
    EXPECT_NEAR(got, expected, 1e-10) << "t=" << t;
  }
}

TEST(Transient, IntervalAvailabilityMatchesClosedForm) {
  const double lambda = 0.05;
  const double mu = 2.0;
  const Ctmc chain = two_state_chain(lambda, mu);
  const auto pi0 = rascad::markov::point_mass(chain, 0);
  for (double t : {0.5, 5.0, 100.0}) {
    const double got = rascad::markov::interval_availability(chain, pi0, t);
    const double expected =
        rascad::baselines::two_state_interval_availability(lambda, mu, t);
    EXPECT_NEAR(got, expected, 1e-9) << "t=" << t;
  }
}

TEST(Transient, DistributionSumsToOne) {
  const Ctmc chain = five_state_chain();
  const auto pi0 = rascad::markov::point_mass(chain, 0);
  for (double t : {0.01, 1.0, 100.0, 10'000.0}) {
    const auto pit = rascad::markov::transient_distribution(chain, pi0, t);
    double sum = 0.0;
    for (double x : pit) {
      EXPECT_GE(x, -1e-12);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "t=" << t;
  }
}

TEST(Transient, LongHorizonApproachesSteadyState) {
  const Ctmc chain = five_state_chain();
  const auto pi0 = rascad::markov::point_mass(chain, 0);
  const auto steady = rascad::markov::solve_steady_state(chain);
  const auto pit =
      rascad::markov::transient_distribution(chain, pi0, 1e6);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_NEAR(pit[i], steady.pi[i], 1e-7) << i;
  }
}

TEST(Transient, RewardCurveEndpointsAndMonotoneDecay) {
  const Ctmc chain = two_state_chain(0.01, 1.0);
  const auto pi0 = rascad::markov::point_mass(chain, 0);
  const auto curve = rascad::markov::reward_curve(chain, pi0, 100.0, 50);
  ASSERT_EQ(curve.size(), 51u);
  EXPECT_DOUBLE_EQ(curve.front(), 1.0);
  // Starting from Up, A(t) decays monotonically to the steady value.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i], curve[i - 1] + 1e-12);
  }
  EXPECT_NEAR(curve.back(),
              rascad::baselines::two_state_availability(0.01, 1.0), 1e-6);
}

TEST(Transient, RejectsBadInputs) {
  const Ctmc chain = two_state_chain(0.01, 1.0);
  const auto pi0 = rascad::markov::point_mass(chain, 0);
  EXPECT_THROW(rascad::markov::transient_distribution(chain, pi0, -1.0),
               std::invalid_argument);
  EXPECT_THROW(
      rascad::markov::transient_distribution(chain, {0.5, 0.2}, 1.0),
      std::invalid_argument);
  EXPECT_THROW(rascad::markov::point_mass(chain, 9), std::out_of_range);
}

TEST(Absorbing, TwoStateMttf) {
  // Down absorbing: MTTF = 1/lambda.
  const Ctmc chain = two_state_chain(0.02, 1.0);
  EXPECT_NEAR(rascad::markov::mttf(chain, 0), 50.0, 1e-9);
}

TEST(Absorbing, KofNMttfMatchesBaseline) {
  // 2-of-3 system without repair.
  const double lambda = 0.001;
  CtmcBuilder b;
  const auto s0 = b.add_state("3good", 1.0);
  const auto s1 = b.add_state("2good", 1.0);
  const auto fail = b.add_state("failed", 0.0);
  b.add_transition(s0, s1, 3 * lambda);
  b.add_transition(s1, fail, 2 * lambda);
  const double expected =
      rascad::baselines::k_of_n_mttf_no_repair(3, 2, lambda);
  EXPECT_NEAR(rascad::markov::mttf(b.build(), s0), expected, 1e-9);
}

TEST(Absorbing, RepairableMttfMatchesBaseline) {
  // 1-of-2 with repair: absorbing at both failed.
  const double lambda = 0.01;
  const double mu = 0.5;
  CtmcBuilder b;
  const auto s0 = b.add_state("2good", 1.0);
  const auto s1 = b.add_state("1good", 1.0);
  const auto fail = b.add_state("failed", 0.0);
  b.add_transition(s0, s1, 2 * lambda);
  b.add_transition(s1, s0, mu);
  b.add_transition(s1, fail, lambda);
  const double expected =
      rascad::baselines::k_of_n_mttf_with_repair(2, 1, lambda, mu, 0);
  EXPECT_NEAR(rascad::markov::mttf(b.build(), s0), expected, 1e-6);
}

TEST(Absorbing, AbsorptionProbabilitiesSumToOne) {
  CtmcBuilder b;
  const auto start = b.add_state("S", 1.0);
  const auto a1 = b.add_state("A1", 0.0);
  const auto a2 = b.add_state("A2", 0.0);
  b.add_transition(start, a1, 3.0);
  b.add_transition(start, a2, 1.0);
  const Ctmc chain = b.build();
  const auto rate_into = [&](rascad::markov::StateIndex target) {
    return [&chain, target](rascad::markov::StateIndex s) {
      return chain.generator().at(s, target);
    };
  };
  const double p1 = accrued_until_down(chain, start, rate_into(a1));
  const double p2 = accrued_until_down(chain, start, rate_into(a2));
  EXPECT_NEAR(p1, 0.75, 1e-12);
  EXPECT_NEAR(p2, 0.25, 1e-12);
  EXPECT_NEAR(p1 + p2, 1.0, 1e-12);
}

TEST(Absorbing, ReliabilityMatchesExponential) {
  const Ctmc chain = two_state_chain(0.1, 1.0);
  const Ctmc rel = rascad::markov::make_down_states_absorbing(chain);
  const auto pi0 = rascad::markov::point_mass(rel, 0);
  for (double t : {1.0, 5.0, 20.0}) {
    EXPECT_NEAR(rascad::markov::reliability_at(rel, pi0, t),
                std::exp(-0.1 * t), 1e-9)
        << t;
  }
  // Constant hazard for the exponential case.
  EXPECT_NEAR(rascad::markov::hazard_rate(rel, pi0, 5.0, 0.1), 0.1, 1e-6);
}

TEST(Absorbing, ExpectedVisitTimes) {
  const Ctmc chain = two_state_chain(0.5, 1.0);
  const auto time_in_up = [](rascad::markov::StateIndex s) {
    return s == 0 ? 1.0 : 0.0;
  };
  EXPECT_NEAR(accrued_until_down(chain, 0, time_in_up), 2.0,
              1e-12);  // 1/lambda
  EXPECT_DOUBLE_EQ(accrued_until_down(chain, 1, time_in_up), 0.0);
}

TEST(Dtmc, StationaryMatchesHandComputation) {
  rascad::markov::DtmcBuilder b;
  const auto a = b.add_state("a");
  const auto c = b.add_state("b");
  b.add_transition(a, a, 0.9);
  b.add_transition(a, c, 0.1);
  b.add_transition(c, a, 0.5);
  b.add_transition(c, c, 0.5);
  const auto chain = b.build();
  const auto pi = chain.stationary();
  EXPECT_NEAR(pi[0], 5.0 / 6.0, 1e-12);
  EXPECT_NEAR(pi[1], 1.0 / 6.0, 1e-12);
}

TEST(Dtmc, BuildRejectsBadRows) {
  rascad::markov::DtmcBuilder b;
  const auto a = b.add_state("a");
  const auto c = b.add_state("b");
  b.add_transition(a, c, 0.4);  // row sums to 0.4
  b.add_transition(c, c, 1.0);
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Dtmc, Evolve) {
  rascad::markov::DtmcBuilder b;
  const auto a = b.add_state("a");
  const auto c = b.add_state("b");
  b.add_transition(a, c, 1.0);
  b.add_transition(c, a, 1.0);
  const auto chain = b.build();
  const auto v = chain.evolve({1.0, 0.0}, 3);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 1.0);
}

}  // namespace
