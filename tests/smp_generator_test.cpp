// Tests for the semi-Markov refinement generator and the interval
// failure/recovery-rate measures added to the transient engine.
#include <gtest/gtest.h>

#include <cmath>

#include "markov/steady_state.hpp"
#include "markov/transient.hpp"
#include "mg/generator.hpp"
#include "mg/measures.hpp"

namespace {

using rascad::spec::BlockSpec;
using rascad::spec::GlobalParams;
using rascad::spec::Transparency;

GlobalParams globals() {
  GlobalParams g;
  g.reboot_time_h = 8.0 / 60.0;
  g.mttm_h = 48.0;
  g.mttrfid_h = 4.0;
  g.mission_time_h = 8760.0;
  return g;
}

double ctmc_availability(const BlockSpec& b) {
  const auto model = rascad::mg::generate(b, globals());
  const auto r = rascad::markov::solve_steady_state(model.chain);
  return rascad::markov::expected_reward(model.chain, r.pi);
}

BlockSpec redundant(Transparency rec, Transparency rep) {
  BlockSpec b;
  b.name = "blk";
  b.quantity = 2;
  b.min_quantity = 1;
  b.mtbf_h = 50'000.0;
  b.transient_fit = 2'000.0;
  b.mttr_corrective_min = 45.0;
  b.service_response_h = 4.0;
  b.p_correct_diagnosis = 0.95;
  b.p_latent_fault = 0.05;
  b.mttdlf_h = 48.0;
  b.recovery = rec;
  b.ar_time_min = 6.0;
  b.p_spf = 0.01;
  b.t_spf_min = 30.0;
  b.repair = rep;
  b.reintegration_min = 8.0;
  return b;
}

TEST(SmpGenerator, Type0CloseToCtmc) {
  BlockSpec b;
  b.name = "board";
  b.quantity = 1;
  b.min_quantity = 1;
  b.mtbf_h = 50'000.0;
  b.mttr_corrective_min = 60.0;
  b.service_response_h = 4.0;
  b.p_correct_diagnosis = 0.9;
  b.transient_fit = 2'000.0;
  const double a_smp = rascad::mg::smp_availability(b, globals());
  const double a_ctmc = ctmc_availability(b);
  // Identical means, alternating renewal: steady state agrees exactly.
  EXPECT_NEAR(a_smp, a_ctmc, 1e-12);
}

TEST(SmpGenerator, MatchesCtmcWhenRatesAreSlow) {
  // lambda * D << 1: the exponential embedding and the deterministic race
  // agree to first order, so the refinement changes almost nothing.
  BlockSpec b = redundant(Transparency::kNontransparent,
                          Transparency::kTransparent);
  b.mtbf_h = 1e6;
  const double a_smp = rascad::mg::smp_availability(b, globals());
  const double a_ctmc = ctmc_availability(b);
  EXPECT_NEAR((1 - a_smp) / (1 - a_ctmc), 1.0, 1e-3);
}

TEST(SmpGenerator, RefinementGrowsWithRaceProduct) {
  // As lambda * D grows, the deterministic-repair refinement departs from
  // the CTMC and the gap is monotone in lambda.
  double prev_gap = 0.0;
  for (double mtbf : {200'000.0, 20'000.0, 2'000.0}) {
    BlockSpec b = redundant(Transparency::kNontransparent,
                            Transparency::kTransparent);
    b.mtbf_h = mtbf;
    const double u_smp = 1 - rascad::mg::smp_availability(b, globals());
    const double u_ctmc = 1 - ctmc_availability(b);
    const double gap = std::abs(u_smp - u_ctmc) / u_ctmc;
    EXPECT_GE(gap, prev_gap * 0.5);  // roughly increasing
    prev_gap = gap;
  }
  EXPECT_GT(prev_gap, 1e-4);
}

/// The SMP has the CTMC's states: the same names and rewards, in order.
void expect_same_states(const BlockSpec& b) {
  const auto smp = rascad::mg::generate_smp(b, globals());
  const auto ctmc = rascad::mg::generate(b, globals());
  ASSERT_EQ(smp.size(), ctmc.chain.size()) << b.name;
  for (std::size_t i = 0; i < smp.size(); ++i) {
    EXPECT_EQ(smp.state_name(i), ctmc.chain.state_name(i)) << b.name;
    EXPECT_EQ(smp.reward(i), ctmc.chain.reward(i)) << b.name;
  }
}

TEST(SmpGenerator, AllScenariosBuildAndSolve) {
  for (auto rec : {Transparency::kTransparent, Transparency::kNontransparent}) {
    for (auto rep :
         {Transparency::kTransparent, Transparency::kNontransparent}) {
      for (unsigned n : {2u, 4u}) {
        BlockSpec b = redundant(rec, rep);
        b.quantity = n;
        const double a = rascad::mg::smp_availability(b, globals());
        EXPECT_GT(a, 0.99);
        EXPECT_LT(a, 1.0);
        expect_same_states(b);
        // Transient-only: Ok, SPF1 and (nontransparent recovery) TF1.
        b.mtbf_h = 0.0;
        expect_same_states(b);
      }
    }
  }
  // Type 0, with and without each downtime phase.
  BlockSpec t0 = redundant(Transparency::kTransparent,
                           Transparency::kTransparent);
  t0.quantity = 1;
  expect_same_states(t0);
  t0.service_response_h = 0.0;
  expect_same_states(t0);
  t0.service_response_h = 4.0;
  t0.mttr_corrective_min = 0.0;
  expect_same_states(t0);
  t0.p_correct_diagnosis = 1.0;
  t0.transient_fit = 0.0;
  expect_same_states(t0);
}

TEST(SmpGenerator, RaceStateMatchesClosedForm) {
  // N=2, K=1, Type 1, permanent faults only: Ok -> PF1 at 2λ; PF1 races
  // the deferred repair (deterministic D, back to Ok) against the second
  // fault (λ, to PF2); PF2 dwells the immediate repair R back to PF1.
  // With q = e^{-λD} the embedded visits are Ok q, PF1 1, PF2 1 - q and
  // the mean sojourns 1/(2λ), (1 - q)/λ and R.
  BlockSpec b = redundant(Transparency::kTransparent,
                          Transparency::kTransparent);
  b.transient_fit = 0.0;
  b.p_correct_diagnosis = 1.0;
  b.p_latent_fault = 0.0;
  b.p_spf = 0.0;
  b.mtbf_h = 2'000.0;
  const rascad::mg::DerivedRates d = rascad::mg::derive_rates(b, globals());
  const double lambda = d.lambda_p;
  const double D = d.deferred_repair_h();
  const double R = d.immediate_repair_h();
  const double q = std::exp(-lambda * D);
  const double up = q / (2.0 * lambda) + (1.0 - q) / lambda;
  const double expected = up / (up + (1.0 - q) * R);

  const auto smp = rascad::mg::generate_smp(b, globals());
  ASSERT_EQ(smp.size(), 3u);
  EXPECT_EQ(smp.state_name(1), "PF1");
  EXPECT_EQ(smp.mean_sojourn(1), (1.0 - q) / lambda);
  EXPECT_NEAR(smp.steady_state_reward() / expected, 1.0, 1e-14);
}

TEST(SmpGenerator, RejectsEverySpecTheCtmcGeneratorRejects) {
  const BlockSpec base = redundant(Transparency::kNontransparent,
                                   Transparency::kNontransparent);
  BlockSpec type0 = base;
  type0.quantity = 1;
  const auto expect_both_reject = [](const BlockSpec& b,
                                     const GlobalParams& g) {
    EXPECT_THROW(rascad::mg::generate(b, g), std::invalid_argument) << b.name;
    EXPECT_THROW(rascad::mg::generate_smp(b, g), std::invalid_argument)
        << b.name;
  };
  const auto with = [](BlockSpec b, const char* name, auto edit) {
    b.name = name;
    edit(b);
    return b;
  };
  expect_both_reject(
      with(base, "no faults", [](BlockSpec& b) {
        b.mtbf_h = 0.0;
        b.transient_fit = 0.0;
      }),
      globals());
  expect_both_reject(with(base, "N = 0", [](BlockSpec& b) { b.quantity = 0; }),
                     globals());
  expect_both_reject(
      with(base, "K = 0", [](BlockSpec& b) { b.min_quantity = 0; }),
      globals());
  expect_both_reject(
      with(base, "K > N", [](BlockSpec& b) { b.min_quantity = 3; }),
      globals());
  expect_both_reject(
      with(base, "no MTTR or response", [](BlockSpec& b) {
        b.mttr_corrective_min = 0.0;
        b.service_response_h = 0.0;
      }),
      globals());
  expect_both_reject(
      with(type0, "Type 0 without MTTR or response", [](BlockSpec& b) {
        b.mttr_corrective_min = 0.0;
        b.service_response_h = 0.0;
      }),
      globals());
  expect_both_reject(
      with(base, "ar_time = 0", [](BlockSpec& b) { b.ar_time_min = 0.0; }),
      globals());
  expect_both_reject(with(base, "reintegration_time = 0",
                          [](BlockSpec& b) { b.reintegration_min = 0.0; }),
                     globals());
  expect_both_reject(
      with(base, "mttdlf = 0", [](BlockSpec& b) { b.mttdlf_h = 0.0; }),
      globals());
  expect_both_reject(
      with(base, "t_spf = 0", [](BlockSpec& b) { b.t_spf_min = 0.0; }),
      globals());
  GlobalParams no_reboot = globals();
  no_reboot.reboot_time_h = 0.0;
  expect_both_reject(with(base, "reboot_time = 0", [](BlockSpec&) {}),
                     no_reboot);
  expect_both_reject(with(type0, "Type 0, reboot_time = 0", [](BlockSpec&) {}),
                     no_reboot);
}

TEST(SmpGenerator, TransientOnlyVariants) {
  BlockSpec b;
  b.name = "cache";
  b.quantity = 2;
  b.min_quantity = 1;
  b.transient_fit = 10'000.0;
  b.recovery = Transparency::kNontransparent;
  b.p_spf = 0.01;
  b.t_spf_min = 30.0;
  const double a_smp = rascad::mg::smp_availability(b, globals());
  const double a_ctmc = ctmc_availability(b);
  EXPECT_NEAR(a_smp, a_ctmc, 1e-12);  // single-exit dwells: means decide

  b.recovery = Transparency::kTransparent;
  EXPECT_NEAR(rascad::mg::smp_availability(b, globals()),
              ctmc_availability(b), 1e-12);
}

TEST(SmpGenerator, RejectsUnsupportedSpecs) {
  BlockSpec b;
  b.name = "none";
  EXPECT_THROW(rascad::mg::generate_smp(b, globals()), std::invalid_argument);
  BlockSpec ps = redundant(Transparency::kTransparent,
                           Transparency::kTransparent);
  ps.mode = rascad::spec::RedundancyMode::kPrimaryStandby;
  EXPECT_THROW(rascad::mg::generate_smp(ps, globals()),
               std::invalid_argument);
  BlockSpec masked;
  masked.name = "masked";
  masked.quantity = 2;
  masked.min_quantity = 1;
  masked.transient_fit = 100.0;
  masked.recovery = Transparency::kTransparent;  // single-state model
  EXPECT_THROW(rascad::mg::generate_smp(masked, globals()),
               std::invalid_argument);
}

// ---- Interval failure/recovery rates --------------------------------------

TEST(IntervalRates, TwoStateMatchesTheory) {
  rascad::markov::CtmcBuilder cb;
  const auto up = cb.add_state("Up", 1.0);
  const auto down = cb.add_state("Down", 0.0);
  const double lambda = 0.02;
  const double mu = 1.0;
  cb.add_transition(up, down, lambda);
  cb.add_transition(down, up, mu);
  const auto chain = cb.build();
  const auto pi0 = rascad::markov::point_mass(chain, up);

  // Over a long horizon these converge to the chain's rates exactly.
  const double t = 5'000.0;
  EXPECT_NEAR(rascad::markov::interval_failure_rate(chain, pi0, t), lambda,
              1e-6);
  EXPECT_NEAR(rascad::markov::interval_recovery_rate(chain, pi0, t), mu,
              1e-3);
  // Expected crossings over (0,t) ~ lambda * up_time.
  const double crossings =
      rascad::markov::expected_crossings(chain, pi0, t, true);
  const double up_time = rascad::markov::accumulated_reward(chain, pi0, t);
  EXPECT_NEAR(crossings, lambda * up_time, 1e-6);
  // Up->down and down->up crossing counts differ by at most one cycle.
  const double recoveries =
      rascad::markov::expected_crossings(chain, pi0, t, false);
  EXPECT_NEAR(crossings, recoveries, 1.0);
}

TEST(IntervalRates, ShortHorizonFailureRateMatchesExitRate) {
  rascad::markov::CtmcBuilder cb;
  const auto up = cb.add_state("Up", 1.0);
  const auto down = cb.add_state("Down", 0.0);
  cb.add_transition(up, down, 0.01);
  cb.add_transition(down, up, 2.0);
  const auto chain = cb.build();
  const auto pi0 = rascad::markov::point_mass(chain, up);
  // For t -> 0 the interval failure rate tends to the Ok exit rate.
  EXPECT_NEAR(rascad::markov::interval_failure_rate(chain, pi0, 0.01), 0.01,
              1e-5);
}

TEST(IntervalRates, AppearInBlockMeasures) {
  const BlockSpec b = redundant(Transparency::kNontransparent,
                                Transparency::kTransparent);
  const auto model = rascad::mg::generate(b, globals());
  const auto m = rascad::mg::compute_measures(model, globals());
  EXPECT_GT(m.interval_eq_failure_rate, 0.0);
  EXPECT_GT(m.interval_eq_recovery_rate, m.interval_eq_failure_rate);
  // Long mission: the interval rates approach the steady equivalents.
  EXPECT_NEAR(m.interval_eq_failure_rate, m.eq_failure_rate,
              0.05 * m.eq_failure_rate);
}

}  // namespace
