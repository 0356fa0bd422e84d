// The transient engine: block curves against the per-step oracle
// (bit-identical up to the stationarity stop, within steps x tolerance
// after it), the closed-form two-state curve, when the stop fires, the
// term budget, cancellation, the one-pass interval measures and the
// solver-work counters.
#include <cmath>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "markov/absorbing.hpp"
#include "markov/transient.hpp"
#include "mg/generator.hpp"
#include "mg/system.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "resilience/solve_error.hpp"
#include "robust/cancel.hpp"
#include "spec/ast.hpp"
#include "spec/parser.hpp"
#include "uniformization_oracle.hpp"

namespace {

using rascad::linalg::Vector;
using rascad::markov::Ctmc;
using rascad::markov::CtmcBuilder;
using rascad::markov::TransientOptions;
using rascad::resilience::SolveCause;
using rascad::resilience::SolveError;
using rascad::spec::BlockSpec;
using rascad::spec::Transparency;

constexpr double kHorizon = 8760.0;
constexpr std::size_t kSteps = 256;

Ctmc two_state_chain(double lambda, double mu) {
  CtmcBuilder b;
  const auto up = b.add_state("Up", 1.0);
  const auto down = b.add_state("Down", 0.0);
  b.add_transition(up, down, lambda);
  b.add_transition(down, up, mu);
  return b.build();
}

/// Checks reward_curve against the per-step oracle; returns the stop step.
std::size_t expect_matches_oracle(const Ctmc& chain, const Vector& pi0,
                                  const std::string& what) {
  std::size_t stop = 0;
  const Vector got =
      rascad::markov::reward_curve(chain, pi0, kHorizon, kSteps, {}, &stop);
  const Vector want =
      rascad::testing::oracle_reward_curve(chain, pi0, kHorizon, kSteps);
  EXPECT_LE(stop, kSteps) << what;
  const double bound =
      static_cast<double>(kSteps) * TransientOptions{}.tolerance;
  for (std::size_t k = 0; k <= kSteps; ++k) {
    if (k <= stop) {
      EXPECT_EQ(got[k], want[k]) << what << " k=" << k;
    } else {
      EXPECT_LE(std::abs(got[k] - want[k]), bound) << what << " k=" << k;
    }
  }
  return stop;
}

/// Availability and reliability curves of every block of `system`.
void expect_blocks_match_oracle(const rascad::mg::SystemModel& system,
                                std::size_t& stopped) {
  for (const auto& b : system.blocks()) {
    const Vector pi0 = rascad::markov::point_mass(*b.chain, b.initial);
    if (expect_matches_oracle(*b.chain, pi0, b.block.name) < kSteps) {
      ++stopped;
    }
    const Ctmc rel = rascad::markov::make_down_states_absorbing(*b.chain);
    if (rel.down_states().empty()) continue;
    expect_matches_oracle(rel, rascad::markov::point_mass(rel, b.initial),
                          b.block.name + " (reliability)");
  }
}

TEST(TransientEngine, WebShopCurvesMatchPerStepOracle) {
  std::ifstream in(RASCAD_EXAMPLES_DIR "/web_shop.rsc");
  ASSERT_TRUE(in) << "web_shop.rsc not found";
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto system =
      rascad::mg::SystemModel::build(rascad::spec::parse_model(text));
  std::size_t stopped = 0;
  expect_blocks_match_oracle(system, stopped);
  // Most web-shop blocks repair within hours: their curves stop early.
  EXPECT_GT(stopped, 0u);
}

BlockSpec full_block(unsigned n, unsigned k, Transparency recovery,
                     Transparency repair) {
  BlockSpec b;
  b.name = "deep N=" + std::to_string(n) + " K=" + std::to_string(k);
  b.quantity = n;
  b.min_quantity = k;
  b.mtbf_h = 100'000.0;
  b.transient_fit = 2'000.0;
  b.mttr_diagnosis_min = 15.0;
  b.mttr_corrective_min = 45.0;
  b.service_response_h = 4.0;
  b.p_correct_diagnosis = 0.95;
  b.p_latent_fault = 0.05;
  b.mttdlf_h = 48.0;
  b.recovery = recovery;
  b.ar_time_min = 6.0;
  b.p_spf = 0.01;
  b.t_spf_min = 30.0;
  b.repair = repair;
  b.reintegration_min = 8.0;
  return b;
}

TEST(TransientEngine, GeneratedFamiliesMatchPerStepOracle) {
  rascad::spec::ModelSpec spec;
  spec.title = "families";
  rascad::spec::DiagramSpec d;
  d.name = "families";
  for (const unsigned n : {1u, 2u, 8u}) {
    d.blocks.push_back(full_block(n, n, Transparency::kNontransparent,
                                  Transparency::kNontransparent));
    if (n == 1) continue;
    for (const Transparency recovery :
         {Transparency::kTransparent, Transparency::kNontransparent}) {
      for (const Transparency repair :
           {Transparency::kTransparent, Transparency::kNontransparent}) {
        BlockSpec b = full_block(n, 1, recovery, repair);
        b.name += " " + std::to_string(d.blocks.size());
        d.blocks.push_back(b);
      }
    }
  }
  d.blocks.push_back(full_block(48, 1, Transparency::kNontransparent,
                                Transparency::kNontransparent));
  spec.diagrams.push_back(d);
  rascad::mg::SystemModel::Options opts;
  opts.cache = nullptr;
  const auto system = rascad::mg::SystemModel::build(spec, opts);
  std::size_t stopped = 0;
  expect_blocks_match_oracle(system, stopped);
  EXPECT_GT(stopped, 0u);
}

TEST(TransientEngine, TwoStateCurveMatchesClosedForm) {
  const double lambda = 0.05;
  const double mu = 2.0;
  const Ctmc chain = two_state_chain(lambda, mu);
  const Vector pi0 = rascad::markov::point_mass(chain, 0);
  const double horizon = 50.0;
  const std::size_t steps = 100;
  std::size_t stop = 0;
  const Vector curve =
      rascad::markov::reward_curve(chain, pi0, horizon, steps, {}, &stop);
  EXPECT_LT(stop, steps) << "a chain mixing in ~0.5 h never stopped";
  for (std::size_t k = 0; k <= steps; ++k) {
    const double t = horizon * static_cast<double>(k) / steps;
    EXPECT_NEAR(curve[k],
                rascad::baselines::two_state_point_availability(lambda, mu, t),
                1e-10)
        << "k=" << k;
  }
}

TEST(TransientEngine, StopFiresOnFastMixingChainOnly) {
  std::size_t stop = 0;
  const Ctmc fast = two_state_chain(0.05, 2.0);
  rascad::markov::reward_curve(fast, rascad::markov::point_mass(fast, 0),
                               100.0, 50, {}, &stop);
  EXPECT_LT(stop, 20u);

  // Relaxation time 500 h against a 100 h horizon: never stationary.
  const Ctmc slow = two_state_chain(1e-3, 1e-3);
  rascad::markov::reward_curve(slow, rascad::markov::point_mass(slow, 0),
                               100.0, 50, {}, &stop);
  EXPECT_EQ(stop, 50u);

  // Inside one long horizon the stop fires too: 1e7 h of this chain is
  // ~2e7 terms, far over a 1e5-term budget, but pi is stationary after
  // the first few thousand.
  TransientOptions tight;
  tight.max_terms = 100'000;
  const Vector fast0 = rascad::markov::point_mass(fast, 0);
  EXPECT_NEAR(rascad::markov::point_availability(fast, fast0, 1e7, tight),
              rascad::baselines::two_state_availability(0.05, 2.0), 1e-12);
}

TEST(TransientEngine, ChainThatNeverMixesExhaustsBudget) {
  // A fast pair (rate 100) leaks to a third state at 1e-9/h: uniformization
  // needs ~100 terms per hour, and pi moves by ~1e-7 per 40 h substep, so
  // it is never stationary within the horizon.
  CtmcBuilder b;
  const auto a = b.add_state("A", 1.0);
  const auto c = b.add_state("B", 1.0);
  const auto d = b.add_state("C", 0.0);
  b.add_transition(a, c, 100.0);
  b.add_transition(c, a, 100.0);
  b.add_transition(c, d, 1e-9);
  b.add_transition(d, a, 1e-9);
  const Ctmc chain = b.build();
  TransientOptions opts;
  opts.max_terms = 100'000;
  try {
    rascad::markov::transient_distribution(
        chain, rascad::markov::point_mass(chain, a), 1e6, opts);
    FAIL() << "expected kBudgetExceeded";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kBudgetExceeded);
    EXPECT_LE(e.iterations(), opts.max_terms);
  }
}

TEST(TransientEngine, CancelTokenStopsTheEngine) {
  const Ctmc chain = two_state_chain(1e-3, 1e-3);
  const Vector pi0 = rascad::markov::point_mass(chain, 0);
  TransientOptions opts;
  opts.cancel = rascad::robust::CancelToken::manual();
  opts.cancel.request_cancel();
  try {
    rascad::markov::reward_curve(chain, pi0, 100.0, 50, opts);
    FAIL() << "expected kCancelled";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kCancelled);
  }
  opts.cancel = rascad::robust::CancelToken::with_deadline_ms(0.0);
  try {
    rascad::markov::accumulated_reward(chain, pi0, 100.0, opts);
    FAIL() << "expected kDeadlineExceeded";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kDeadlineExceeded);
  }
  // A live token that never fires changes no result.
  opts.cancel = rascad::robust::CancelToken::manual();
  EXPECT_EQ(rascad::markov::reward_curve(chain, pi0, 100.0, 50, opts),
            rascad::markov::reward_curve(chain, pi0, 100.0, 50));
}

/// `chain` rebuilt arc by arc with state i's reward set to reward(i). Two
/// replays of one chain insert the same arcs in the same order, so their
/// generators are bit-identical whatever the rewards.
template <typename Reward>
Ctmc replay(const Ctmc& chain, const Reward& reward) {
  CtmcBuilder b;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    b.add_state(chain.state_name(i), reward(i));
  }
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const auto row = chain.generator().row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.cols[k] != i) b.add_transition(i, row.cols[k], row.values[k]);
    }
  }
  return b.build();
}

TEST(TransientEngine, IntervalMeasuresAreOnePassOfTheSeparateIntegrals) {
  const auto model = rascad::mg::generate(
      full_block(4, 1, Transparency::kNontransparent,
                 Transparency::kTransparent),
      rascad::spec::GlobalParams{});
  const Ctmc chain =
      replay(model.chain, [&](std::size_t i) { return model.chain.reward(i); });
  // The down time is its own integral: the accumulated reward of the
  // down indicator on the same generator.
  const Ctmc down_indicator = replay(model.chain, [&](std::size_t i) {
    return model.chain.reward(i) > 0.0 ? 0.0 : 1.0;
  });
  const Vector pi0 = rascad::markov::point_mass(chain, model.initial);
  for (const double t : {24.0, kHorizon}) {
    const auto m = rascad::markov::interval_measures(chain, pi0, t);
    const double up = rascad::markov::accumulated_reward(chain, pi0, t);
    const double down =
        rascad::markov::accumulated_reward(down_indicator, pi0, t);
    EXPECT_EQ(m.availability, up / t) << t;
    EXPECT_EQ(m.failure_rate,
              rascad::markov::expected_crossings(chain, pi0, t, true) / up)
        << t;
    EXPECT_EQ(m.recovery_rate,
              rascad::markov::expected_crossings(chain, pi0, t, false) / down)
        << t;
  }
}

TEST(TransientEngine, IntervalRecoveryRateKeepsItsDigits) {
  // A two-state unit with 1 - A ~ 1e-6: down->up crossings over down time
  // is exactly mu. Down time taken as t - up time loses ~6 digits here.
  const double lambda = 1e-6;
  const double mu = 1.0;
  const Ctmc chain = two_state_chain(lambda, mu);
  const Vector pi0 = rascad::markov::point_mass(chain, 0);
  for (const double t : {24.0, kHorizon}) {
    const auto m = rascad::markov::interval_measures(chain, pi0, t);
    EXPECT_GT(1.0 - m.availability, 1e-7) << t;
    EXPECT_LT(1.0 - m.availability, 1e-6) << t;
    EXPECT_NEAR(m.recovery_rate, mu, 1e-12 * mu) << t;
    EXPECT_EQ(rascad::markov::interval_recovery_rate(chain, pi0, t),
              m.recovery_rate)
        << t;
  }
}

TEST(TransientEngine, HazardRateStepsOnFromReliability) {
  const Ctmc chain = two_state_chain(0.1, 1.0);
  const Ctmc rel = rascad::markov::make_down_states_absorbing(chain);
  const Vector pi0 = rascad::markov::point_mass(rel, 0);
  const double r0 = rascad::markov::reliability_at(rel, pi0, 5.0);
  const double r1 = rascad::markov::reliability_at(rel, pi0, 5.5);
  EXPECT_NEAR(rascad::markov::hazard_rate(rel, pi0, 5.0, 0.5),
              -(std::log(r1) - std::log(r0)) / 0.5, 1e-10);
}

TEST(TransientEngine, CountersRecordTermsAndSkippedSteps) {
  rascad::obs::set_enabled(true);
  auto& terms = rascad::obs::Registry::global().counter("transient.terms");
  auto& skipped =
      rascad::obs::Registry::global().counter("transient.steps_skipped");
  const std::uint64_t terms_before = terms.value();
  const std::uint64_t skipped_before = skipped.value();
  const Ctmc chain = two_state_chain(0.05, 2.0);
  std::size_t stop = 0;
  rascad::markov::reward_curve(chain, rascad::markov::point_mass(chain, 0),
                               100.0, 50, {}, &stop);
  rascad::obs::set_enabled(false);
  EXPECT_GT(terms.value(), terms_before);
  EXPECT_EQ(skipped.value() - skipped_before, 50u - stop);
}

}  // namespace
