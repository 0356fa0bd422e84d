// Tests for first-passage analysis on DTMCs, semi-Markov processes and
// absorbing CTMCs — the GMB engine's reliability-model counterpart. All of
// it runs on the banded GTH absorbing solver; the oracles are closed forms
// and the probability identities of an absorbing chain.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "markov/absorbing.hpp"
#include "markov/ctmc.hpp"
#include "markov/dtmc.hpp"
#include "markov/steady_state.hpp"
#include "mg/generator.hpp"
#include "robust/solve_error.hpp"
#include "semimarkov/smp.hpp"
#include "spec/ast.hpp"

namespace {

double rel_err(double got, double want) {
  return std::abs(got - want) / std::abs(want);
}

/// Birth-death rates over `levels` levels spanning four decades (1e-4 to
/// 1): each level is 10 to 1e4 times likelier to fall back than to climb,
/// so the first passage to the top takes up to ~1e102 time units.
void stiff_birth_death(std::size_t levels, std::vector<double>& birth,
                       std::vector<double>& death) {
  for (std::size_t i = 0; i < levels; ++i) {
    birth.push_back(std::pow(10.0, static_cast<double>(i % 3) - 4.0));
    death.push_back(std::pow(10.0, -static_cast<double>(i % 2)));
  }
}

/// Total outflow of birth-death level i (death[i - 1] leads back to i-1).
double level_out(const std::vector<double>& birth,
                 const std::vector<double>& death, std::size_t i) {
  return birth[i] + (i > 0 ? death[i - 1] : 0.0);
}

TEST(DtmcAbsorption, GamblersRuinStepCount) {
  // States 0..3; 3 absorbing; from i move to i+1 w.p. 1 (a pure counter):
  // expected steps from 0 = 3.
  rascad::markov::DtmcBuilder b;
  for (int i = 0; i < 4; ++i) b.add_state("s" + std::to_string(i));
  b.add_transition(0, 1, 1.0);
  b.add_transition(1, 2, 1.0);
  b.add_transition(2, 3, 1.0);
  b.add_transition(3, 3, 1.0);
  const auto chain = b.build();
  EXPECT_TRUE(chain.is_absorbing(3));
  EXPECT_FALSE(chain.is_absorbing(0));
  EXPECT_NEAR(chain.expected_steps_to_absorption(0), 3.0, 1e-12);
  EXPECT_NEAR(chain.expected_steps_to_absorption(2), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(chain.expected_steps_to_absorption(3), 0.0);
}

TEST(DtmcAbsorption, GeometricRetries) {
  // Succeed w.p. p each step, else retry: expected steps = 1/p.
  rascad::markov::DtmcBuilder b;
  b.add_state("try");
  b.add_state("done");
  const double p = 0.2;
  b.add_transition(0, 0, 1.0 - p);
  b.add_transition(0, 1, p);
  b.add_transition(1, 1, 1.0);
  EXPECT_NEAR(b.build().expected_steps_to_absorption(0), 1.0 / p, 1e-12);
}

TEST(DtmcAbsorption, NoAbsorbingThrows) {
  rascad::markov::DtmcBuilder b;
  b.add_state("a");
  b.add_state("b");
  b.add_transition(0, 1, 1.0);
  b.add_transition(1, 0, 1.0);
  EXPECT_THROW(b.build().expected_steps_to_absorption(0),
               std::invalid_argument);
}

TEST(DtmcAbsorption, EmbeddedBirthDeathMatchesClosedForm) {
  // The jump chain of a birth-death CTMC. Steps to absorption equal the
  // first passage of a CTMC with the jump probabilities as rates: every
  // state then leaves at rate 1, so time counts jumps.
  for (const std::size_t levels : {5u, 10u, 20u, 40u}) {
    std::vector<double> birth;
    std::vector<double> death;
    stiff_birth_death(levels, birth, death);
    std::vector<double> up(levels);
    std::vector<double> back(levels);
    rascad::markov::DtmcBuilder b;
    for (std::size_t i = 0; i <= levels; ++i) {
      b.add_state("L" + std::to_string(i));
    }
    for (std::size_t i = 0; i < levels; ++i) {
      up[i] = birth[i] / level_out(birth, death, i);
      b.add_transition(i, i + 1, up[i]);
      if (i > 0) {
        back[i - 1] = death[i - 1] / level_out(birth, death, i);
        b.add_transition(i, i - 1, back[i - 1]);
      }
    }
    b.add_transition(levels, levels, 1.0);
    const double want = rascad::baselines::birth_death_mttf(up, back);
    EXPECT_LT(rel_err(b.build().expected_steps_to_absorption(0), want),
              1e-12)
        << levels << " levels";
  }
}

TEST(SmpAbsorption, BirthDeathWithDeterministicSojournsMatchesClosedForm) {
  // Deterministic stays with the CTMC's mean sojourns and jump
  // probabilities: the mean first passage only sees the means.
  for (const std::size_t levels : {5u, 10u, 20u, 40u}) {
    std::vector<double> birth;
    std::vector<double> death;
    stiff_birth_death(levels, birth, death);
    rascad::semimarkov::SmpBuilder sb;
    for (std::size_t i = 0; i <= levels; ++i) {
      sb.add_state("L" + std::to_string(i), i < levels ? 1.0 : 0.0,
                   i < levels ? rascad::dist::deterministic(
                                    1.0 / level_out(birth, death, i))
                              : nullptr);
    }
    for (std::size_t i = 0; i < levels; ++i) {
      const double out = level_out(birth, death, i);
      sb.add_transition(i, i + 1, birth[i] / out);
      if (i > 0) sb.add_transition(i, i - 1, death[i - 1] / out);
    }
    const double want = rascad::baselines::birth_death_mttf(birth, death);
    EXPECT_LT(rel_err(sb.build_with_absorbing().mean_time_to_absorption(0),
                      want),
              1e-12)
        << levels << " levels";
  }
}

TEST(SmpAbsorption, MatchesCtmcMttfForExponentialSojourns) {
  // 1-of-2 with repair: the SMP first passage must equal the CTMC MTTF.
  const double lambda = 0.01;
  const double mu = 0.5;
  rascad::semimarkov::SmpBuilder sb;
  const auto s0 = sb.add_state("2good", 1.0);
  const auto s1 = sb.add_state("1good", 1.0);
  const auto fail = sb.add_state("failed", 0.0);
  sb.set_exponential(s0, {{s1, 2 * lambda}});
  sb.set_exponential(s1, {{s0, mu}, {fail, lambda}});
  const auto smp = sb.build_with_absorbing();
  EXPECT_TRUE(smp.is_absorbing(fail));
  EXPECT_FALSE(smp.is_absorbing(s0));
  const double expected =
      rascad::baselines::k_of_n_mttf_with_repair(2, 1, lambda, mu, 0);
  EXPECT_NEAR(smp.mean_time_to_absorption(s0), expected, 1e-9);
  EXPECT_DOUBLE_EQ(smp.mean_time_to_absorption(fail), 0.0);
  EXPECT_THROW(smp.steady_state(), rascad::robust::SolveError);
}

TEST(SmpAbsorption, DeterministicStagesAddUp) {
  // A pipeline of deterministic stages: MTTF is just their sum.
  rascad::semimarkov::SmpBuilder sb;
  const auto a = sb.add_state("a", 1.0, rascad::dist::deterministic(2.0));
  const auto b = sb.add_state("b", 1.0, rascad::dist::deterministic(3.5));
  const auto end = sb.add_state("end", 0.0);
  sb.add_transition(a, b, 1.0);
  sb.add_transition(b, end, 1.0);
  const auto smp = sb.build_with_absorbing();
  EXPECT_NEAR(smp.mean_time_to_absorption(a), 5.5, 1e-12);
}

TEST(SmpAbsorption, BranchingWeibullPipeline) {
  // From Start: 60% to a Weibull stage, 40% straight to absorption; the
  // first passage is h_start + 0.6 * h_stage.
  rascad::semimarkov::SmpBuilder sb;
  const auto start =
      sb.add_state("start", 1.0, rascad::dist::exponential_mean(10.0));
  const auto stage =
      sb.add_state("stage", 1.0, rascad::dist::weibull(2.0, 100.0));
  const auto done = sb.add_state("done", 0.0);
  sb.add_transition(start, stage, 0.6);
  sb.add_transition(start, done, 0.4);
  sb.add_transition(stage, done, 1.0);
  const auto smp = sb.build_with_absorbing();
  const double stage_mean = rascad::dist::weibull(2.0, 100.0)->mean();
  EXPECT_NEAR(smp.mean_time_to_absorption(start), 10.0 + 0.6 * stage_mean,
              1e-9);
}

TEST(SmpAbsorption, TransientWithoutSojournRejected) {
  rascad::semimarkov::SmpBuilder sb;
  sb.add_state("a", 1.0);  // no sojourn, but has an exit: invalid
  sb.add_state("end", 0.0);
  sb.add_transition(0, 1, 1.0);
  EXPECT_THROW(sb.build_with_absorbing(), std::invalid_argument);
}

TEST(SmpAbsorption, RegularBuildHasNoAbsorbingStates) {
  rascad::semimarkov::SmpBuilder sb;
  const auto up = sb.add_state("Up", 1.0);
  const auto down = sb.add_state("Down", 0.0);
  sb.set_exponential(up, {{down, 1.0}});
  sb.set_exponential(down, {{up, 2.0}});
  const auto smp = sb.build();
  EXPECT_FALSE(smp.is_absorbing(up));
  EXPECT_FALSE(smp.is_absorbing(down));
  EXPECT_THROW(smp.mean_time_to_absorption(up), std::invalid_argument);
}

// ----------------------------------------------------- absorbing CTMCs ----

TEST(CtmcAbsorption, ProbabilitiesAndVisitTimesAddUp) {
  // A generated Type 4 block with its down states absorbing: from the
  // fully-up state, absorption lands somewhere with probability 1, and the
  // expected times spent in the transient states add up to the MTTF.
  rascad::spec::BlockSpec b;
  b.name = "cpu";
  b.quantity = 8;
  b.min_quantity = 1;
  b.mtbf_h = 100'000.0;
  b.transient_fit = 2'000.0;
  b.mttr_diagnosis_min = 15.0;
  b.mttr_corrective_min = 45.0;
  b.service_response_h = 4.0;
  b.p_correct_diagnosis = 0.95;
  b.p_latent_fault = 0.05;
  b.mttdlf_h = 48.0;
  b.recovery = rascad::spec::Transparency::kNontransparent;
  b.ar_time_min = 6.0;
  b.p_spf = 0.01;
  b.t_spf_min = 30.0;
  b.repair = rascad::spec::Transparency::kNontransparent;
  b.reintegration_min = 8.0;
  rascad::spec::GlobalParams g;
  g.reboot_time_h = 10.0 / 60.0;
  g.mttm_h = 48.0;
  g.mttrfid_h = 4.0;
  const rascad::mg::GeneratedModel model = rascad::mg::generate(b, g);
  const rascad::markov::Ctmc& chain = model.chain;
  std::vector<bool> down(chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    down[i] = chain.reward(i) <= 0.0;
  }
  const rascad::markov::TransientSplit split =
      rascad::markov::split_transient(chain.generator(), down);
  const std::size_t m = split.states.size();
  // Mean cost accrued from the initial state until absorption.
  const auto accrued = [&](const rascad::linalg::Vector& cost) {
    return rascad::markov::gth_absorption_times(
        split.weights, split.exits,
        cost)[static_cast<std::size_t>(split.position[model.initial])];
  };
  // Cost rate: the rate into `target`, which accrues the probability of
  // landing there.
  std::size_t targets = 0;
  double absorbed = 0.0;
  for (std::size_t target = 0; target < chain.size(); ++target) {
    if (!down[target]) continue;
    ++targets;
    rascad::linalg::Vector into(m);
    for (std::size_t k = 0; k < m; ++k) {
      into[k] = chain.generator().at(split.states[k], target);
    }
    absorbed += accrued(into);
  }
  ASSERT_GT(targets, 1u);
  EXPECT_NEAR(absorbed, 1.0, 1e-12);
  // Cost rate 1 in j alone accrues the time spent in j.
  double visits = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    rascad::linalg::Vector in_j(m, 0.0);
    in_j[j] = 1.0;
    visits += accrued(in_j);
  }
  const double tau = rascad::markov::mttf(chain, model.initial);
  EXPECT_LT(rel_err(visits, tau), 1e-12);
}

TEST(CtmcAbsorption, TrappedTransientStateIsInvalidInput) {
  // "loop" can never reach "dead": its mean time to absorption is
  // infinite, which the solver reports instead of a number.
  rascad::markov::CtmcBuilder b;
  const auto start = b.add_state("start", 1.0);
  const auto loop_a = b.add_state("loop_a", 1.0);
  const auto loop_b = b.add_state("loop_b", 1.0);
  const auto dead = b.add_state("dead", 0.0);
  b.add_transition(start, dead, 1.0);
  b.add_transition(start, loop_a, 1.0);
  b.add_transition(loop_a, loop_b, 1.0);
  b.add_transition(loop_b, loop_a, 1.0);
  try {
    (void)rascad::markov::mttf(b.build(), start);
    FAIL() << "expected SolveError(kInvalidInput)";
  } catch (const rascad::robust::SolveError& e) {
    EXPECT_EQ(e.cause(), rascad::robust::SolveCause::kInvalidInput);
  }
}

}  // namespace
