// Robustness and failure-injection tests: extreme parameters, pathological
// chains, fuzzed spec input, and cross-validation of the crossing-rate
// integrals against Monte-Carlo counts.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "markov/steady_state.hpp"
#include "markov/transient.hpp"
#include "mg/generator.hpp"
#include "sim/block_sim.hpp"
#include "sim/chain_sim.hpp"
#include "sim/rng.hpp"
#include "spec/lexer.hpp"
#include "spec/parser.hpp"
#include "spec/validate.hpp"

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

// ---- Extreme-parameter sweeps ---------------------------------------------

class ExtremeParameterTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ExtremeParameterTest, GeneratorStaysNumericallySane) {
  const auto [mtbf, mttr_min] = GetParam();
  BlockSpec b;
  b.name = "x";
  b.quantity = 3;
  b.min_quantity = 1;
  b.mtbf_h = mtbf;
  b.mttr_corrective_min = mttr_min;
  b.service_response_h = 0.5;
  b.recovery = Transparency::kNontransparent;
  b.ar_time_min = 1.0;
  b.repair = Transparency::kTransparent;
  const auto model = rascad::mg::generate(b, globals());
  const auto r = rascad::markov::solve_steady_state(model.chain);
  const double a = rascad::markov::expected_reward(model.chain, r.pi);
  EXPECT_TRUE(std::isfinite(a));
  EXPECT_GT(a, 0.0);
  EXPECT_LE(a, 1.0);
  EXPECT_LT(r.residual, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    RateScales, ExtremeParameterTest,
    ::testing::Combine(::testing::Values(1e2, 1e5, 1e9),     // MTBF hours
                       ::testing::Values(0.1, 60.0, 1e4)));  // MTTR minutes

TEST(Extremes, HugeRedundancyDepth) {
  BlockSpec b;
  b.name = "wide";
  b.quantity = 200;
  b.min_quantity = 100;
  b.mtbf_h = 50'000.0;
  b.mttr_corrective_min = 45.0;
  b.service_response_h = 4.0;
  b.recovery = Transparency::kTransparent;
  b.repair = Transparency::kTransparent;
  const auto model = rascad::mg::generate(b, globals());
  EXPECT_GT(model.chain.size(), 100u);
  const auto r = rascad::markov::solve_steady_state(model.chain);
  EXPECT_NEAR(rascad::linalg::sum(r.pi), 1.0, 1e-9);
}

TEST(Extremes, NearPerfectBlockUnavailabilityStaysPositive) {
  BlockSpec b;
  b.name = "gold";
  b.quantity = 4;
  b.min_quantity = 1;
  b.mtbf_h = 1e9;
  b.mttr_corrective_min = 10.0;
  b.service_response_h = 1.0;
  b.recovery = Transparency::kTransparent;
  b.repair = Transparency::kTransparent;
  const auto model = rascad::mg::generate(b, globals());
  const auto r = rascad::markov::solve_steady_state(model.chain);
  const double u =
      1.0 - rascad::markov::expected_reward(model.chain, r.pi);
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1e-12);
}

TEST(Extremes, TransientHorizonBoundaries) {
  rascad::markov::CtmcBuilder cb;
  const auto up = cb.add_state("Up", 1.0);
  const auto down = cb.add_state("Down", 0.0);
  cb.add_transition(up, down, 1e-7);
  cb.add_transition(down, up, 120.0);  // very stiff
  const auto chain = cb.build();
  const auto pi0 = rascad::markov::point_mass(chain, up);
  // Tiny and huge horizons both complete and bracket correctly.
  EXPECT_NEAR(rascad::markov::point_availability(chain, pi0, 1e-9), 1.0,
              1e-9);
  const double a_long =
      rascad::markov::interval_availability(chain, pi0, 1e6);
  EXPECT_GT(a_long, 0.999999);
  EXPECT_LE(a_long, 1.0);
}

// ---- Crossing rates vs Monte-Carlo ----------------------------------------

TEST(CrossingsVsSim, CountsAgreeOnGeneratedChain) {
  BlockSpec b;
  b.name = "cpu";
  b.quantity = 2;
  b.min_quantity = 1;
  b.mtbf_h = 3'000.0;  // failure-heavy for statistics
  b.mttr_corrective_min = 45.0;
  b.service_response_h = 4.0;
  b.recovery = Transparency::kNontransparent;
  b.ar_time_min = 6.0;
  b.repair = Transparency::kTransparent;
  const auto model = rascad::mg::generate(b, globals());
  const double horizon = 30'000.0;
  const auto pi0 = rascad::markov::point_mass(model.chain, model.initial);
  const double expected =
      rascad::markov::expected_crossings(model.chain, pi0, horizon, true);

  rascad::sim::SampleStats counts;
  for (int rep = 0; rep < 60; ++rep) {
    rascad::sim::Xoshiro256 rng(1000 + rep);
    const auto t =
        rascad::sim::simulate_chain(model.chain, model.initial, horizon, rng);
    counts.add(static_cast<double>(t.down_entries));
  }
  const auto ci = counts.confidence_interval(4.0);
  EXPECT_TRUE(ci.contains(expected))
      << "sim " << counts.mean() << " vs analytic " << expected;
}

// ---- Simulator failure injection ------------------------------------------

TEST(SimRobustness, ZeroEventHorizon) {
  BlockSpec b;
  b.name = "solid";
  b.quantity = 1;
  b.min_quantity = 1;
  b.mtbf_h = 1e12;
  b.mttr_corrective_min = 60.0;
  rascad::sim::Xoshiro256 rng(3);
  const auto r = rascad::sim::simulate_block(b, globals(), 100.0, rng);
  EXPECT_EQ(r.permanent_faults, 0u);
  EXPECT_DOUBLE_EQ(r.down_time, 0.0);
  EXPECT_DOUBLE_EQ(r.availability(), 1.0);
}

TEST(SimRobustness, DownWindowsClampAtHorizon) {
  BlockSpec b;
  b.name = "flappy";
  b.quantity = 1;
  b.min_quantity = 1;
  b.mtbf_h = 1.0;                  // fails constantly
  b.mttr_corrective_min = 600.0;   // repairs take 10 h
  b.service_response_h = 10.0;
  rascad::sim::Xoshiro256 rng(4);
  const auto r = rascad::sim::simulate_block(b, globals(), 50.0, rng);
  EXPECT_LE(r.down_time, 50.0 + 1e-9);
  for (const auto& iv : r.down_intervals) {
    EXPECT_GE(iv.start, 0.0);
    EXPECT_LE(iv.end, 50.0 + 1e-9);
  }
  EXPECT_LT(r.availability(), 0.9);
}

TEST(SimRobustness, SeedsAreReproducibleAndDistinct) {
  BlockSpec b;
  b.name = "cpu";
  b.quantity = 2;
  b.min_quantity = 1;
  b.mtbf_h = 2'000.0;
  b.mttr_corrective_min = 60.0;
  b.service_response_h = 4.0;
  // Nontransparent recovery: every fault produces a continuous-valued
  // downtime window, so distinct seeds give distinct totals a.s.
  b.recovery = Transparency::kNontransparent;
  b.ar_time_min = 6.0;
  b.repair = Transparency::kTransparent;
  rascad::sim::Xoshiro256 rng_a(42);
  rascad::sim::Xoshiro256 rng_b(42);
  rascad::sim::Xoshiro256 rng_c(43);
  const auto a = rascad::sim::simulate_block(b, globals(), 50'000.0, rng_a);
  const auto b2 = rascad::sim::simulate_block(b, globals(), 50'000.0, rng_b);
  const auto c = rascad::sim::simulate_block(b, globals(), 50'000.0, rng_c);
  EXPECT_DOUBLE_EQ(a.down_time, b2.down_time);
  EXPECT_EQ(a.permanent_faults, b2.permanent_faults);
  EXPECT_NE(a.down_time, c.down_time);
}

// ---- Spec fuzzing -----------------------------------------------------------

constexpr const char* kSeedModel = R"(
title = "Fuzz Seed"
globals { reboot_time = 8 min mttm = 48 h mttrfid = 4 h mission_time = 8760 h }
diagram "Root" {
  block "A" { quantity = 2 min_quantity = 1 mtbf = 10000
              mttr_corrective = 30 service_response = 4
              recovery = transparent repair = transparent }
  block "B" { subdiagram = "Sub" }
}
diagram "Sub" { block "C" { transient_rate = 1000 fit } }
)";

TEST(SpecFuzz, MutatedInputNeverCrashes) {
  const std::string seed = kSeedModel;
  rascad::sim::Xoshiro256 rng(20'240'704);
  const std::string alphabet = "{}=\";#abz019. \n";
  int parsed_ok = 0;
  for (int round = 0; round < 2'000; ++round) {
    std::string text = seed;
    const int edits = 1 + static_cast<int>(rng.uniform_below(6));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.uniform_below(text.size());
      switch (rng.uniform_below(3)) {
        case 0:  // replace
          text[pos] = alphabet[rng.uniform_below(alphabet.size())];
          break;
        case 1:  // delete
          text.erase(pos, 1 + rng.uniform_below(4));
          break;
        default:  // insert
          text.insert(pos, 1, alphabet[rng.uniform_below(alphabet.size())]);
          break;
      }
    }
    try {
      const auto model = rascad::spec::parse_model(text);
      rascad::spec::validate(model);  // must not crash either
      ++parsed_ok;
    } catch (const rascad::spec::ParseError&) {
      // expected for most mutations
    } catch (const std::invalid_argument&) {
      // validation rejections are fine too
    }
  }
  // Some mutations must survive (comments/whitespace edits), proving the
  // harness isn't trivially rejecting everything.
  EXPECT_GT(parsed_ok, 0);
}

TEST(SpecFuzz, RandomTokenSoupNeverCrashes) {
  rascad::sim::Xoshiro256 rng(7);
  const char* tokens[] = {"diagram", "block",  "globals", "{",     "}",
                          "=",       "\"x\"",  "3.5",     "min",   "h",
                          "fit",     ";",      "mtbf",    "title", "#c\n",
                          "recovery", "transparent", "quantity"};
  for (int round = 0; round < 2'000; ++round) {
    std::string text;
    const int len = 1 + static_cast<int>(rng.uniform_below(40));
    for (int i = 0; i < len; ++i) {
      text += tokens[rng.uniform_below(std::size(tokens))];
      text += ' ';
    }
    try {
      rascad::spec::parse_model(text);
    } catch (const rascad::spec::ParseError&) {
    }
  }
  SUCCEED();
}

}  // namespace
