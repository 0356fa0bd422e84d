// The transient engine (shift-and-invert Krylov from the GTH pi_inf)
// against the uniformization oracle and the closed forms: block curves on
// web_shop.rsc, the generated families and a stiff failover chain, the end
// of every stationary curve at the GTH availability, the dimension cap,
// cancellation, the one-pass interval measures, one pi per chain, the
// solver-work metrics and tight-tolerance curves on either side of the
// exact basis's size limit.
#include <chrono>
#include <cmath>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "core/library.hpp"
#include "markov/absorbing.hpp"
#include "markov/steady_state.hpp"
#include "markov/transient.hpp"
#include "mg/generator.hpp"
#include "mg/system.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "robust/cancel.hpp"
#include "robust/solve_error.hpp"
#include "spec/ast.hpp"
#include "spec/parser.hpp"
#include "product_chain.hpp"
#include "uniformization_oracle.hpp"

namespace {

using rascad::linalg::Vector;
using rascad::markov::Ctmc;
using rascad::markov::CtmcBuilder;
using rascad::markov::TransientOptions;
using rascad::markov::TransientStats;
using rascad::robust::SolveCause;
using rascad::robust::SolveError;
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

/// An irreducible chain's availability curve against the oracle: within
/// 1e-13 of the oracle stepping the deviation, so within the plain
/// oracle's own drift (its distance to that) plus 1e-13.
void expect_availability_matches_oracle(const Ctmc& chain, const Vector& pi0,
                                        const std::string& what) {
  const Vector got = rascad::markov::reward_curve(chain, pi0, kHorizon, kSteps);
  const Vector pi_inf = rascad::markov::solve_steady_state(chain).pi;
  const Vector plain =
      rascad::testing::oracle_reward_curve(chain, pi0, kHorizon, kSteps);
  const Vector deviation = rascad::testing::oracle_deviation_curve(
      chain, pi0, pi_inf, kHorizon, kSteps);
  for (std::size_t k = 0; k <= kSteps; ++k) {
    const double drift = std::abs(plain[k] - deviation[k]);
    EXPECT_LE(std::abs(got[k] - deviation[k]), 1e-13) << what << " k=" << k;
    EXPECT_LE(std::abs(got[k] - plain[k]), drift + 1e-13)
        << what << " k=" << k;
  }
}

void expect_reliability_matches_oracle(const Ctmc& chain,
                                       rascad::markov::StateIndex initial,
                                       const std::string& what) {
  const Ctmc rel = rascad::markov::make_down_states_absorbing(chain);
  if (rel.down_states().empty()) return;
  const Vector pi0 = rascad::markov::point_mass(rel, initial);
  const Vector got = rascad::markov::reward_curve(rel, pi0, kHorizon, kSteps);
  // An absorbing chain has no deviation form; the oracle's own drift is
  // read off a second run on a grid twice as fine (other rounding).
  const Vector want =
      rascad::testing::oracle_reward_curve(rel, pi0, kHorizon, kSteps);
  const Vector fine =
      rascad::testing::oracle_reward_curve(rel, pi0, kHorizon, 2 * kSteps);
  for (std::size_t k = 0; k <= kSteps; ++k) {
    const double drift = std::abs(want[k] - fine[2 * k]);
    EXPECT_LE(std::abs(got[k] - want[k]), drift + 1e-13)
        << what << " (reliability) k=" << k;
  }
}

/// Every stationary block's curve ends at its GTH availability, to within
/// 1e-12 of its unavailability.
void expect_ends_at_gth(const rascad::mg::SystemModel& system) {
  for (const auto& b : system.blocks()) {
    const Vector pi0 = rascad::markov::point_mass(*b.chain, b.initial);
    const Vector curve =
        rascad::markov::reward_curve(*b.chain, pi0, kHorizon, kSteps);
    const double u = 1.0 - b.availability;
    EXPECT_LE(std::abs(curve.back() - b.availability), 1e-12 * u)
        << b.block.name;
  }
}

rascad::mg::SystemModel web_shop() {
  std::ifstream in(RASCAD_EXAMPLES_DIR "/web_shop.rsc");
  EXPECT_TRUE(in) << "web_shop.rsc not found";
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return rascad::mg::SystemModel::build(rascad::spec::parse_model(text));
}

TEST(TransientEngine, WebShopCurvesMatchOracle) {
  const auto system = web_shop();
  for (const auto& b : system.blocks()) {
    expect_availability_matches_oracle(
        *b.chain, rascad::markov::point_mass(*b.chain, b.initial),
        b.block.name);
    expect_reliability_matches_oracle(*b.chain, b.initial, b.block.name);
  }
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

/// Types 0-4 at N = 1, 2, 8 (every transparency variant) and N = 48.
rascad::mg::SystemModel families() {
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
  return rascad::mg::SystemModel::build(spec, opts);
}

TEST(TransientEngine, GeneratedFamiliesMatchOracle) {
  const auto system = families();
  for (const auto& b : system.blocks()) {
    expect_availability_matches_oracle(
        *b.chain, rascad::markov::point_mass(*b.chain, b.initial),
        b.block.name);
    expect_reliability_matches_oracle(*b.chain, b.initial, b.block.name);
  }
}

TEST(TransientEngine, DeepBlockMatchesOracle) {
  // N=480 (3,357 states): the oracle is too slow for the whole curve, so
  // the first grid step is checked against it and the end against GTH.
  const auto model =
      rascad::mg::generate(full_block(480, 1, Transparency::kNontransparent,
                                      Transparency::kNontransparent),
                           rascad::spec::GlobalParams{});
  const Vector pi0 = rascad::markov::point_mass(model.chain, model.initial);
  TransientStats stats;
  const Vector curve = rascad::markov::reward_curve(model.chain, pi0, kHorizon,
                                                    kSteps, {}, &stats);
  EXPECT_LE(stats.error_bound, TransientOptions{}.tolerance);
  const Vector pi_inf = rascad::markov::solve_steady_state(model.chain).pi;
  const Vector first = rascad::testing::oracle_deviation_curve(
      model.chain, pi0, pi_inf, kHorizon / kSteps, 1);
  EXPECT_LE(std::abs(curve[1] - first[1]), 1e-13);
  const double a_inf = rascad::markov::expected_reward(model.chain, pi_inf);
  EXPECT_LE(std::abs(curve.back() - a_inf), 1e-12 * (1.0 - a_inf));
}

TEST(TransientEngine, StiffFailoverMatchesOracle) {
  // A primary/standby pair: 2-minute failover against a 10^5 h MTBF, 4 h
  // repair. Failover sets the fastest rate (30 /h), the MTBF the slowest.
  CtmcBuilder b;
  const auto both = b.add_state("Both", 1.0);
  const auto failover = b.add_state("Failover", 0.0);
  const auto one = b.add_state("One", 1.0);
  const auto down = b.add_state("Down", 0.0);
  b.add_transition(both, failover, 2e-5);
  b.add_transition(failover, one, 30.0);
  b.add_transition(one, both, 0.25);
  b.add_transition(one, down, 1e-5);
  b.add_transition(down, one, 0.25);
  const Ctmc chain = b.build();
  expect_availability_matches_oracle(chain, rascad::markov::point_mass(chain, both),
                                     "stiff failover");
  expect_reliability_matches_oracle(chain, both, "stiff failover");
}

TEST(TransientEngine, LibraryBlocksMatchOracleAtEveryHorizon) {
  // Every block of the five library models, from one hour to ten years:
  // no call is refused, every small block's curve is within 1e-13 of the
  // deviation-form oracle, and at ten years every curve has reached its
  // GTH availability. A shift scaled down with short horizons failed here.
  for (const auto& entry : rascad::core::library::all_models()) {
    rascad::mg::SystemModel::Options opts;
    opts.cache = nullptr;
    const auto system = rascad::mg::SystemModel::build(entry.factory(), opts);
    for (const auto& b : system.blocks()) {
      const Vector pi0 = rascad::markov::point_mass(*b.chain, b.initial);
      const Vector pi_inf = rascad::markov::solve_steady_state(*b.chain).pi;
      const Ctmc rel = rascad::markov::make_down_states_absorbing(*b.chain);
      for (const double t : {1.0, 24.0, 8760.0, 87600.0}) {
        const std::string what =
            entry.name + "/" + b.block.name + " t=" + std::to_string(t);
        const Vector curve =
            rascad::markov::reward_curve(*b.chain, pi0, t, kSteps);
        EXPECT_NO_THROW(
            rascad::markov::interval_measures(*b.chain, pi0, t))
            << what;
        if (!rel.down_states().empty()) {
          EXPECT_NO_THROW(rascad::markov::reliability_at(
              rel, rascad::markov::point_mass(rel, b.initial), t))
              << what;
        }
        if (t == 87600.0) {
          EXPECT_LE(std::abs(curve.back() - b.availability),
                    1e-12 * (1.0 - b.availability))
              << what;
        } else if (b.chain->size() <= 12) {
          const Vector want = rascad::testing::oracle_deviation_curve(
              *b.chain, pi0, pi_inf, t, kSteps);
          for (std::size_t k = 0; k <= kSteps; ++k) {
            EXPECT_LE(std::abs(curve[k] - want[k]), 1e-13)
                << what << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(TransientEngine, StationaryCurvesEndAtGthAvailability) {
  // The uniformization engine this one replaced ended 1.04e-12 off the
  // DB Node Pair's A_inf, 5.2e-7 of its unavailability.
  expect_ends_at_gth(web_shop());
  expect_ends_at_gth(families());
}

TEST(TransientEngine, TwoStateCurveMatchesClosedForm) {
  const double lambda = 0.05;
  const double mu = 2.0;
  const Ctmc chain = two_state_chain(lambda, mu);
  const Vector pi0 = rascad::markov::point_mass(chain, 0);
  const double horizon = 50.0;
  const std::size_t steps = 100;
  const Vector curve = rascad::markov::reward_curve(chain, pi0, horizon, steps);
  for (std::size_t k = 0; k <= steps; ++k) {
    const double t = horizon * static_cast<double>(k) / steps;
    EXPECT_NEAR(curve[k],
                rascad::baselines::two_state_point_availability(lambda, mu, t),
                1e-13)
        << "k=" << k;
  }
}

TEST(TransientEngine, FastAndSlowMixingChainsMatchClosedForm) {
  // Mixing in ~0.5 h, and a relaxation time of 500 h against a 100 h
  // horizon: every point of both against the closed form (the
  // uniformization oracle drifts by ~2e-12 on the slow one).
  for (const auto& [lambda, mu] :
       {std::pair{0.05, 2.0}, std::pair{1e-3, 1e-3}}) {
    const Ctmc chain = two_state_chain(lambda, mu);
    const Vector pi0 = rascad::markov::point_mass(chain, 0);
    const Vector curve = rascad::markov::reward_curve(chain, pi0, 100.0, 50);
    for (std::size_t k = 0; k <= 50; ++k) {
      const double t = 2.0 * static_cast<double>(k);
      EXPECT_NEAR(curve[k],
                  rascad::baselines::two_state_point_availability(lambda, mu, t),
                  1e-13)
          << lambda << " k=" << k;
    }
  }
  // 1e7 h of the fast chain is ~2e7 uniformization terms; the engine
  // needs one small basis.
  const Ctmc fast = two_state_chain(0.05, 2.0);
  EXPECT_NEAR(rascad::markov::point_availability(
                  fast, rascad::markov::point_mass(fast, 0), 1e7),
              rascad::baselines::two_state_availability(0.05, 2.0), 1e-15);
}

TEST(TransientEngine, NeverMixingChainMatchesClosedForm) {
  // A fast pair (rate 100) leaks to a third state at 1e-9/h: the pair
  // mixes in minutes, the leak takes 10^9 h, ~2e8 uniformization terms.
  // Lumped, it is a two-state unit failing at 0.5e-9/h (half the time in
  // B) and repaired at 1e-9/h; lumping is exact to ~5e-5 relative here.
  CtmcBuilder b;
  const auto a = b.add_state("A", 1.0);
  const auto c = b.add_state("B", 1.0);
  const auto d = b.add_state("C", 0.0);
  b.add_transition(a, c, 100.0);
  b.add_transition(c, a, 100.0);
  b.add_transition(c, d, 1e-9);
  b.add_transition(d, a, 1e-9);
  const Ctmc chain = b.build();
  const Vector pi = rascad::markov::transient_distribution(
      chain, rascad::markov::point_mass(chain, a), 1e6);
  const double down =
      1.0 - rascad::baselines::two_state_point_availability(0.5e-9, 1e-9, 1e6);
  EXPECT_NEAR(pi[d], down, 1e-4 * down);
  EXPECT_NEAR(pi[a], pi[c], 1e-11);
  EXPECT_NEAR(pi[a] + pi[c] + pi[d], 1.0, 1e-15);
}

/// (expm1(x) - x) / x^2, by its series where the formula would cancel.
double phi2(double x) {
  if (std::abs(x) > 0.1) return (std::expm1(x) - x) / (x * x);
  double term = 0.5;
  double sum = 0.0;
  for (int k = 3; term != 0.0 && k < 40; ++k) {
    sum += term;
    term *= x / k;
  }
  return sum;
}

/// Interval availability and the curve's average both against `want`,
/// to a few units in the last place of 1.
void expect_interval_availability(const Ctmc& chain, const Vector& pi0,
                                  double t, double want,
                                  const std::string& what) {
  EXPECT_NEAR(rascad::markov::interval_availability(chain, pi0, t), want,
              1e-15)
      << what << " T=" << t;
  double average = -1.0;
  rascad::markov::reward_curve(chain, pi0, t, kSteps, {}, nullptr, &average);
  EXPECT_NEAR(average, want, 1e-15) << what << " (curve average) T=" << t;
}

TEST(TransientEngine, SlowModeIntervalAvailabilityKeepsItsDigits) {
  // A mode of 1e-9/h against a horizon of hours: its integral must not
  // come from the difference of two nearly equal states. Both closed
  // forms are written so that nothing cancels: for the two-state chain
  // U(T) = lambda T phi2(-s T) with s = lambda + mu, and for the
  // never-mixing chain (down state C, pi_C(0) = pi_C'(0) = 0, slow and
  // fast eigenvalues l1, l2 with l1 l2 = s2) int_0^T pi_C =
  // pi_C(inf) T^2 s2 (phi2(l2 T) - phi2(l1 T)) / (l2 - l1).
  for (const double t : {1.0, 24.0, kHorizon}) {
    const double lambda = 1e-6;
    const Ctmc pair = two_state_chain(lambda, lambda);
    expect_interval_availability(
        pair, rascad::markov::point_mass(pair, 0), t,
        1.0 - lambda * t * phi2(-2 * lambda * t), "two-state");

    const double a = 100.0;
    const double e = 1e-9;
    CtmcBuilder b;
    const auto sa = b.add_state("A", 1.0);
    const auto sb = b.add_state("B", 1.0);
    const auto sc = b.add_state("C", 0.0);
    b.add_transition(sa, sb, a);
    b.add_transition(sb, sa, a);
    b.add_transition(sb, sc, e);
    b.add_transition(sc, sa, e);
    const Ctmc chain = b.build();
    const double s1 = 2 * a + 2 * e;
    const double s2 = 3 * a * e + e * e;
    const double root = std::sqrt(s1 * s1 - 4 * s2);
    const double l2 = -(s1 + root) / 2;
    const double l1 = s2 / l2;
    const double down = 1.0 / (3.0 + e / a) * t * s2 *
                        (phi2(l2 * t) - phi2(l1 * t)) / (l2 - l1);
    expect_interval_availability(chain, rascad::markov::point_mass(chain, sa),
                                 t, 1.0 - down, "never mixing");
  }
}

TEST(TransientEngine, AbsorbedMassComesFromTheIntegratedFlux) {
  // Competing risks: state S leaves to A1 at l1 and to A2 at l2, both
  // absorbing; A2 carries reward 1. P(A1 by t) = l1/l (1 - e^{-lt}) and
  // the reward accumulated in A2 is l2/l (t - (1 - e^{-lt})/l).
  const double l1 = 0.3;
  const double l2 = 0.1;
  const double l = l1 + l2;
  CtmcBuilder b;
  const auto s = b.add_state("S", 0.0);
  const auto a1 = b.add_state("A1", 0.0);
  const auto a2 = b.add_state("A2", 1.0);
  b.add_transition(s, a1, l1);
  b.add_transition(s, a2, l2);
  const Ctmc chain = b.build();
  const Vector pi0 = rascad::markov::point_mass(chain, s);
  for (const double t : {0.5, 5.0, 50.0}) {
    const Vector pi = rascad::markov::transient_distribution(chain, pi0, t);
    const double gone = -std::expm1(-l * t);
    EXPECT_NEAR(pi[s], std::exp(-l * t), 1e-15) << t;
    EXPECT_NEAR(pi[a1], l1 / l * gone, 1e-15) << t;
    EXPECT_NEAR(pi[a2], l2 / l * gone, 1e-15) << t;
    EXPECT_NEAR(rascad::markov::accumulated_reward(chain, pi0, t),
                l2 / l * (t - gone / l), 1e-13 * t)
        << t;
  }
}

TEST(TransientEngine, ReducibleChainWithoutAbsorbingStatesMatchesOracle) {
  // T feeds a closed pair {A, B}: no unique pi_inf on the whole chain and
  // no absorbing state, so the engine steps pi itself.
  CtmcBuilder b;
  const auto t0 = b.add_state("T", 1.0);
  const auto a = b.add_state("A", 1.0);
  const auto c = b.add_state("B", 0.0);
  b.add_transition(t0, a, 0.2);
  b.add_transition(a, c, 0.05);
  b.add_transition(c, a, 2.0);
  const Ctmc chain = b.build();
  const Vector pi0 = rascad::markov::point_mass(chain, t0);
  for (const double t : {1.0, 30.0, 500.0}) {
    const Vector got = rascad::markov::transient_distribution(chain, pi0, t);
    const Vector want = rascad::testing::oracle_transient(chain, pi0, t);
    for (std::size_t i = 0; i < chain.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-13) << "t=" << t << " state " << i;
    }
  }
}

/// The time average reward_curve integrates along with its grid against
/// the one-cell interval_availability of the same chain.
void expect_curve_average_matches(const Ctmc& chain, const Vector& pi0,
                                  double horizon, const std::string& what) {
  double average = -1.0;
  rascad::markov::reward_curve(chain, pi0, horizon, kSteps, {}, nullptr,
                               &average);
  EXPECT_NEAR(average,
              rascad::markov::interval_availability(chain, pi0, horizon),
              1e-13)
      << what << " T=" << horizon;
}

TEST(TransientEngine, CurveAverageIsTheIntervalAvailability) {
  const auto system = web_shop();
  for (const auto& b : system.blocks()) {
    for (const double t : {1.0, 24.0, kHorizon}) {
      expect_curve_average_matches(
          *b.chain, rascad::markov::point_mass(*b.chain, b.initial), t,
          b.block.name);
    }
  }
  // Reward held in an absorbing state: the average integrates the
  // absorbed flux twice. The closed form is the competing-risks one above.
  const double l1 = 0.3;
  const double l2 = 0.1;
  const double l = l1 + l2;
  CtmcBuilder b;
  const auto s = b.add_state("S", 0.0);
  const auto a1 = b.add_state("A1", 0.0);
  const auto a2 = b.add_state("A2", 1.0);
  b.add_transition(s, a1, l1);
  b.add_transition(s, a2, l2);
  const Ctmc chain = b.build();
  const Vector pi0 = rascad::markov::point_mass(chain, s);
  for (const double t : {0.5, 5.0, 50.0}) {
    expect_curve_average_matches(chain, pi0, t, "competing risks");
    double average = -1.0;
    rascad::markov::reward_curve(chain, pi0, t, kSteps, {}, nullptr,
                                 &average);
    EXPECT_NEAR(average, l2 / l * (1.0 + std::expm1(-l * t) / (l * t)),
                1e-13)
        << t;
  }
}

TEST(TransientEngine, DimensionCapThrowsBudgetExceeded) {
  // No basis of at most 128 vectors meets a bound of 1e-300.
  const auto model =
      rascad::mg::generate(full_block(48, 1, Transparency::kNontransparent,
                                      Transparency::kNontransparent),
                           rascad::spec::GlobalParams{});
  TransientOptions opts;
  opts.tolerance = 1e-300;
  try {
    rascad::markov::reward_curve(
        model.chain, rascad::markov::point_mass(model.chain, model.initial),
        kHorizon, kSteps, opts);
    FAIL() << "expected kBudgetExceeded";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kBudgetExceeded);
    EXPECT_EQ(e.iterations(), 128u);  // banded solves
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

TEST(TransientEngine, DeadlineFiresBetweenArnoldiSteps) {
  // N=1440 (10,077 states) needs ~70 Arnoldi steps; a 5 ms deadline fires
  // between two of them, long before the curve would be done.
  const auto model =
      rascad::mg::generate(full_block(1440, 1, Transparency::kNontransparent,
                                      Transparency::kNontransparent),
                           rascad::spec::GlobalParams{});
  const Vector pi0 = rascad::markov::point_mass(model.chain, model.initial);
  TransientOptions opts;
  opts.cancel = rascad::robust::CancelToken::with_deadline_ms(5.0);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    rascad::markov::reward_curve(model.chain, pi0, kHorizon, kSteps, opts);
    FAIL() << "expected kDeadlineExceeded";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kDeadlineExceeded);
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_LT(ms, 1000.0);
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
    EXPECT_NEAR(m.availability,
                rascad::baselines::two_state_interval_availability(lambda, mu,
                                                                   t),
                1e-15)
        << t;
  }
}

TEST(TransientEngine, HazardRateStepsOnFromReliability) {
  const Ctmc chain = two_state_chain(0.1, 1.0);
  const Ctmc rel = rascad::markov::make_down_states_absorbing(chain);
  const Vector pi0 = rascad::markov::point_mass(rel, 0);
  const double r0 = rascad::markov::reliability_at(rel, pi0, 5.0);
  const double r1 = rascad::markov::reliability_at(rel, pi0, 5.5);
  EXPECT_NEAR(r0, std::exp(-0.5), 1e-15);
  EXPECT_NEAR(rascad::markov::hazard_rate(rel, pi0, 5.0, 0.5),
              -(std::log(r1) - std::log(r0)) / 0.5, 1e-10);
}

TEST(TransientEngine, MetricsRecordKrylovWork) {
  // A 53-state generated block: its stepped space is above the exact
  // basis's limit, so the engine grows and certifies a Krylov basis.
  const auto model =
      rascad::mg::generate(full_block(8, 1, Transparency::kNontransparent,
                                      Transparency::kNontransparent),
                           rascad::spec::GlobalParams{});
  ASSERT_GT(model.chain.size(), 13u);  // more than 12 zero-sum dimensions
  rascad::obs::set_enabled(true);
  auto& registry = rascad::obs::Registry::global();
  auto& dims = registry.counter("transient.krylov_dim");
  auto& solves = registry.counter("transient.banded_solves");
  auto& exact = registry.counter("transient.exact_basis");
  auto& bounds = registry.histogram("transient.error_bound");
  const std::uint64_t dims_before = dims.value();
  const std::uint64_t solves_before = solves.value();
  const std::uint64_t exact_before = exact.value();
  const std::uint64_t bounds_before = bounds.snapshot().count;
  TransientStats stats;
  rascad::markov::reward_curve(
      model.chain, rascad::markov::point_mass(model.chain, model.initial),
      kHorizon, kSteps, {}, &stats);
  rascad::obs::set_enabled(false);
  EXPECT_FALSE(stats.exact_basis);
  EXPECT_EQ(dims.value() - dims_before, stats.krylov_dim);
  EXPECT_GE(solves.value() - solves_before, stats.krylov_dim);
  EXPECT_EQ(exact.value() - exact_before, 0u);
  EXPECT_EQ(bounds.snapshot().count - bounds_before, 1u);
  EXPECT_LE(stats.error_bound, TransientOptions{}.tolerance);
}

TEST(TransientEngine, MetricsRecordExactBasis) {
  // Two states: the one zero-sum coordinate e_0 - e_1, no banded solve,
  // a bound of 0.
  rascad::obs::set_enabled(true);
  auto& registry = rascad::obs::Registry::global();
  auto& dims = registry.counter("transient.krylov_dim");
  auto& solves = registry.counter("transient.banded_solves");
  auto& exact = registry.counter("transient.exact_basis");
  auto& bounds = registry.histogram("transient.error_bound");
  const std::uint64_t dims_before = dims.value();
  const std::uint64_t solves_before = solves.value();
  const std::uint64_t exact_before = exact.value();
  const auto bounds_before = bounds.snapshot();
  const Ctmc chain = two_state_chain(0.05, 2.0);
  TransientStats stats;
  rascad::markov::reward_curve(chain, rascad::markov::point_mass(chain, 0),
                               100.0, 50, {}, &stats);
  const auto bounds_after = bounds.snapshot();
  rascad::obs::set_enabled(false);
  EXPECT_TRUE(stats.exact_basis);
  EXPECT_EQ(stats.krylov_dim, 1u);
  EXPECT_EQ(stats.error_bound, 0.0);
  EXPECT_EQ(dims.value() - dims_before, 1u);
  EXPECT_EQ(solves.value() - solves_before, 0u);
  EXPECT_EQ(exact.value() - exact_before, 1u);
  EXPECT_EQ(bounds_after.count - bounds_before.count, 1u);
  EXPECT_EQ(bounds_after.sum_ms, bounds_before.sum_ms);
}

TEST(TransientEngine, CurveSpanNamesTheExactBasis) {
  rascad::mg::SystemModel::Options opts;
  opts.cache = nullptr;
  const auto system = rascad::mg::SystemModel::build(
      rascad::spec::parse_model_file(RASCAD_EXAMPLES_DIR "/web_shop.rsc"),
      opts);
  rascad::obs::set_enabled(true);
  rascad::obs::clear_trace();
  system.interval_availability(kHorizon);
  const auto dump = rascad::obs::drain_trace();
  rascad::obs::set_enabled(false);
  std::size_t curves = 0;
  for (const auto& span : dump.spans) {
    if (std::string(span.name) != "curve.sample") continue;
    ++curves;
    EXPECT_EQ(span.detail.substr(span.detail.size() - 6), " exact")
        << span.detail;
  }
  EXPECT_EQ(curves, system.blocks().size());
}

TEST(TransientEngine, TightToleranceCurvesMatchOracleAcrossTheExactLimit) {
  // A 12-state generated block takes the exact basis; a 14-state one sits
  // just above its limit and takes Krylov. On Krylov, web_shop's Chassis x
  // DB Node Pair (24 states, at 1e-14) and a 16-state generated block (at
  // any tolerance) were refused with an infinite bound at m = n - 1: the
  // rounding each normalized basis vector carried along pi_inf compounded
  // until the basis left the zero-sum space.
  const auto system = web_shop();
  std::vector<const rascad::mg::SystemModel::BlockEntry*> pair;
  for (const auto& b : system.blocks()) {
    if (b.block.name == "Chassis" || b.block.name == "DB Node Pair") {
      pair.push_back(&b);
    }
  }
  ASSERT_EQ(pair.size(), 2u);
  const rascad::testing::ProductChain product =
      rascad::testing::product_chain(pair);
  const auto below = rascad::mg::generate(
      full_block(3, 1, Transparency::kTransparent, Transparency::kTransparent),
      rascad::spec::GlobalParams{});
  const auto above = rascad::mg::generate(
      full_block(3, 1, Transparency::kTransparent,
                 Transparency::kNontransparent),
      rascad::spec::GlobalParams{});
  const auto refused = rascad::mg::generate(
      full_block(4, 2, Transparency::kNontransparent,
                 Transparency::kTransparent),
      rascad::spec::GlobalParams{});
  struct Case {
    const Ctmc& chain;
    rascad::markov::StateIndex initial;
    std::size_t states;
    bool exact;
  };
  TransientOptions tight;
  tight.tolerance = 1e-14;
  for (const Case& c : {Case{below.chain, below.initial, 12, true},
                        Case{above.chain, above.initial, 14, false},
                        Case{refused.chain, refused.initial, 16, false},
                        Case{product.chain, product.initial, 24, false}}) {
    ASSERT_EQ(c.chain.size(), c.states);
    const Vector pi0 = rascad::markov::point_mass(c.chain, c.initial);
    const Vector pi_inf = rascad::markov::solve_steady_state(c.chain).pi;
    for (const double t : {0.25, 1.0, 24.0, kHorizon}) {
      const std::string what = std::to_string(c.chain.size()) +
                               " states, T=" + std::to_string(t);
      TransientStats stats;
      Vector got;
      try {
        got = rascad::markov::reward_curve(c.chain, pi0, t, kSteps, tight,
                                           &stats);
      } catch (const SolveError& e) {
        ADD_FAILURE() << what << ": " << e.what();
        continue;
      }
      EXPECT_EQ(stats.exact_basis, c.exact) << what;
      const Vector want = rascad::testing::oracle_deviation_curve(
          c.chain, pi0, pi_inf, t, kSteps);
      for (std::size_t k = 0; k <= kSteps; ++k) {
        EXPECT_LE(std::abs(got[k] - want[k]), 1e-13) << what << " k=" << k;
      }
    }
  }
}

}  // namespace
