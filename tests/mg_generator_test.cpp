// Tests for the automatic model generator: chain families, the structure
// the paper describes (Figure 3 / Figure 4, repeated levels for N-K > 1,
// complexity ordering Type 1 < ... < Type 4), and agreement with closed
// forms on the degenerate configurations where closed forms exist.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/baselines.hpp"
#include "markov/steady_state.hpp"
#include "mg/generator.hpp"
#include "mg/measures.hpp"
#include "robust/cancel.hpp"
#include "robust/solve_error.hpp"

namespace {

using rascad::mg::classify;
using rascad::mg::derive_rates;
using rascad::mg::generate;
using rascad::mg::GeneratedModel;
using rascad::mg::GenerationOptions;
using rascad::mg::MarkovModelType;
using rascad::mg::RewardKind;
using rascad::spec::BlockSpec;
using rascad::spec::GlobalParams;
using rascad::spec::RedundancyMode;
using rascad::spec::Transparency;

GlobalParams globals() {
  GlobalParams g;
  g.reboot_time_h = 10.0 / 60.0;
  g.mttm_h = 48.0;
  g.mttrfid_h = 4.0;
  g.mission_time_h = 8760.0;
  return g;
}

/// The canonical redundant block used throughout (N=2, K=1).
BlockSpec redundant_block(Transparency recovery, Transparency repair) {
  BlockSpec b;
  b.name = "CPU Module";
  b.quantity = 2;
  b.min_quantity = 1;
  b.mtbf_h = 100'000.0;
  b.transient_fit = 2'000.0;
  b.mttr_diagnosis_min = 15.0;
  b.mttr_corrective_min = 20.0;
  b.mttr_verification_min = 10.0;
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

BlockSpec simple_block() {
  BlockSpec b;
  b.name = "Board";
  b.quantity = 1;
  b.min_quantity = 1;
  b.mtbf_h = 50'000.0;
  b.mttr_corrective_min = 60.0;
  b.service_response_h = 4.0;
  return b;
}

double steady_availability(const GeneratedModel& model) {
  const auto r = rascad::markov::solve_steady_state(model.chain);
  return rascad::markov::expected_reward(model.chain, r.pi);
}

TEST(Classify, AllFamilies) {
  BlockSpec b = simple_block();
  EXPECT_EQ(classify(b), MarkovModelType::kType0);
  b = redundant_block(Transparency::kTransparent, Transparency::kTransparent);
  EXPECT_EQ(classify(b), MarkovModelType::kType1);
  b.repair = Transparency::kNontransparent;
  EXPECT_EQ(classify(b), MarkovModelType::kType2);
  b.recovery = Transparency::kNontransparent;
  b.repair = Transparency::kTransparent;
  EXPECT_EQ(classify(b), MarkovModelType::kType3);
  b.repair = Transparency::kNontransparent;
  EXPECT_EQ(classify(b), MarkovModelType::kType4);
  b.mode = RedundancyMode::kPrimaryStandby;
  EXPECT_EQ(classify(b), MarkovModelType::kPrimaryStandby);
}

TEST(DeriveRates, Arithmetic) {
  const BlockSpec b =
      redundant_block(Transparency::kTransparent, Transparency::kTransparent);
  const auto d = derive_rates(b, globals());
  EXPECT_DOUBLE_EQ(d.lambda_p, 1.0 / 100'000.0);
  EXPECT_DOUBLE_EQ(d.lambda_t, 2'000.0 * 1e-9);
  EXPECT_DOUBLE_EQ(d.mttr_h, 45.0 / 60.0);
  EXPECT_DOUBLE_EQ(d.deferred_repair_h(), 48.0 + 4.0 + 0.75);
  EXPECT_DOUBLE_EQ(d.immediate_repair_h(), 4.75);
  EXPECT_DOUBLE_EQ(d.ar_time_h, 0.1);
}

// ---- Type 0 (paper Figure 3) -------------------------------------------

TEST(Type0, StructureMatchesFigure3) {
  BlockSpec b = simple_block();
  b.transient_fit = 1'000.0;
  b.p_correct_diagnosis = 0.95;
  const GeneratedModel m = generate(b, globals());
  EXPECT_EQ(m.type, MarkovModelType::kType0);
  // Ok, LogisticWait, Repair, ServiceError, TF.
  EXPECT_EQ(m.chain.size(), 5u);
  EXPECT_TRUE(m.chain.find_state("Ok").has_value());
  EXPECT_TRUE(m.chain.find_state("LogisticWait").has_value());
  EXPECT_TRUE(m.chain.find_state("Repair").has_value());
  EXPECT_TRUE(m.chain.find_state("ServiceError").has_value());
  EXPECT_TRUE(m.chain.find_state("TF").has_value());
  // Only Ok is an up state.
  EXPECT_EQ(m.chain.up_states().size(), 1u);
}

TEST(Type0, AvailabilityMatchesClosedForm) {
  // Perfect diagnosis, no transients: a renewal process with mean up time
  // MTBF/N and mean down time Tresp + MTTR.
  BlockSpec b = simple_block();
  const GeneratedModel m = generate(b, globals());
  const double mdt = 4.0 + 1.0;  // Tresp + MTTR
  const double expected =
      rascad::baselines::single_unit_availability(50'000.0, mdt);
  EXPECT_NEAR(steady_availability(m), expected, 1e-12);
}

TEST(Type0, QuantityScalesFailureRate) {
  BlockSpec b = simple_block();
  b.quantity = 4;
  b.min_quantity = 4;
  const GeneratedModel m = generate(b, globals());
  const double mdt = 5.0;
  const double expected =
      rascad::baselines::single_unit_availability(50'000.0 / 4.0, mdt);
  EXPECT_NEAR(steady_availability(m), expected, 1e-12);
}

TEST(Type0, ImperfectDiagnosisAddsDowntime) {
  BlockSpec perfect = simple_block();
  BlockSpec sloppy = simple_block();
  sloppy.p_correct_diagnosis = 0.8;
  const double a_perfect = steady_availability(generate(perfect, globals()));
  const double a_sloppy = steady_availability(generate(sloppy, globals()));
  EXPECT_LT(a_sloppy, a_perfect);
  // Closed form: expected down time gains (1-Pcd) * MTTRFID.
  const double mdt = 5.0 + 0.2 * 4.0;
  EXPECT_NEAR(a_sloppy,
              rascad::baselines::single_unit_availability(50'000.0, mdt),
              1e-12);
}

TEST(Type0, TransientOnlyBlock) {
  BlockSpec b;
  b.name = "OS";
  b.quantity = 1;
  b.min_quantity = 1;
  b.transient_fit = 20'000.0;  // 2e-5 per hour
  const GeneratedModel m = generate(b, globals());
  EXPECT_EQ(m.chain.size(), 2u);
  const double lambda = 2e-5;
  const double mu = 6.0;  // 10 minutes
  EXPECT_NEAR(steady_availability(m),
              rascad::baselines::two_state_availability(lambda, mu), 1e-12);
}

// ---- Types 1-4 -----------------------------------------------------------

TEST(Type3, StructureMatchesFigure4Narrative) {
  // N=2, K=1, nontransparent recovery, transparent repair: the paper's
  // Figure 4 states: Ok, TF1, AR1, SPF, Latent1, PF1, TF2, PF2,
  // ServiceError (our generator names SPF/SE per level).
  const BlockSpec b =
      redundant_block(Transparency::kNontransparent, Transparency::kTransparent);
  const GeneratedModel m = generate(b, globals());
  EXPECT_EQ(m.type, MarkovModelType::kType3);
  for (const char* name :
       {"Ok", "PF1", "PF2", "Latent1", "AR1", "SPF1", "TF1", "TF2", "SE1",
        "SE2"}) {
    EXPECT_TRUE(m.chain.find_state(name).has_value()) << name;
  }
  EXPECT_EQ(m.chain.size(), 10u);

  const auto& q = m.chain.generator();
  const auto idx = [&](const char* n) { return *m.chain.find_state(n); };
  const auto d = derive_rates(b, globals());

  // Ok -> AR1 at 2 lambda_p (1 - Plf): detected permanent fault.
  EXPECT_NEAR(q.at(idx("Ok"), idx("AR1")), 2 * d.lambda_p * 0.95, 1e-15);
  // Ok -> Latent1 at 2 lambda_p Plf.
  EXPECT_NEAR(q.at(idx("Ok"), idx("Latent1")), 2 * d.lambda_p * 0.05, 1e-15);
  // Ok -> TF1 at 2 lambda_t.
  EXPECT_NEAR(q.at(idx("Ok"), idx("TF1")), 2 * d.lambda_t, 1e-18);
  // AR1 branches between PF1 and SPF1.
  EXPECT_NEAR(q.at(idx("AR1"), idx("PF1")), 0.99 / d.ar_time_h, 1e-9);
  EXPECT_NEAR(q.at(idx("AR1"), idx("SPF1")), 0.01 / d.ar_time_h, 1e-9);
  // Latent1 detected after MTTDLF -> AR1 (paper: Latent1 -> AR1).
  EXPECT_NEAR(q.at(idx("Latent1"), idx("AR1")), 1.0 / 48.0, 1e-12);
  // Second fault from the degraded and latent modes (paper: PF1/Latent1 ->
  // PF2 / TF2).
  EXPECT_NEAR(q.at(idx("PF1"), idx("PF2")), d.lambda_p, 1e-15);
  EXPECT_NEAR(q.at(idx("PF1"), idx("TF2")), d.lambda_t, 1e-18);
  EXPECT_NEAR(q.at(idx("Latent1"), idx("PF2")), d.lambda_p, 1e-15);
  EXPECT_NEAR(q.at(idx("Latent1"), idx("TF2")), d.lambda_t, 1e-18);
  // Deferred repair from PF1 with the Pcd branch (paper: PF1 -> Ok after
  // MTTM + Tresp; PF1 -> ServiceError otherwise).
  const double deferred = 1.0 / d.deferred_repair_h();
  EXPECT_NEAR(q.at(idx("PF1"), idx("Ok")), 0.95 * deferred, 1e-12);
  EXPECT_NEAR(q.at(idx("PF1"), idx("SE1")), 0.05 * deferred, 1e-12);
  // PF2: immediate service call.
  const double immediate = 1.0 / d.immediate_repair_h();
  EXPECT_NEAR(q.at(idx("PF2"), idx("PF1")), 0.95 * immediate, 1e-12);
  EXPECT_NEAR(q.at(idx("PF2"), idx("SE2")), 0.05 * immediate, 1e-12);
  // SPF dwell ends at the degraded level.
  EXPECT_NEAR(q.at(idx("SPF1"), idx("PF1")), 2.0, 1e-12);  // 1 / 0.5 h

  // Reward structure: Ok, PF1, Latent1 up; everything else down.
  EXPECT_EQ(m.chain.up_states().size(), 3u);
}

TEST(Types, RewardAndInitial) {
  for (auto rec : {Transparency::kTransparent, Transparency::kNontransparent}) {
    for (auto rep :
         {Transparency::kTransparent, Transparency::kNontransparent}) {
      const GeneratedModel m = generate(redundant_block(rec, rep), globals());
      EXPECT_EQ(m.chain.state_name(m.initial), "Ok");
      EXPECT_GT(m.chain.up_states().size(), 0u);
      EXPECT_GT(m.chain.down_states().size(), 0u);
    }
  }
}

TEST(Types, ComplexityOrderingMatchesPaper) {
  // Paper: "The complexity of the model increases from type 1 to type 4."
  const auto t1 = generate(
      redundant_block(Transparency::kTransparent, Transparency::kTransparent),
      globals());
  const auto t2 = generate(redundant_block(Transparency::kTransparent,
                                           Transparency::kNontransparent),
                           globals());
  const auto t3 = generate(redundant_block(Transparency::kNontransparent,
                                           Transparency::kTransparent),
                           globals());
  const auto t4 = generate(redundant_block(Transparency::kNontransparent,
                                           Transparency::kNontransparent),
                           globals());
  EXPECT_LT(t1.chain.size(), t2.chain.size());
  EXPECT_LT(t2.chain.size(), t4.chain.size());
  EXPECT_LT(t1.chain.size(), t3.chain.size());
  EXPECT_LT(t3.chain.size(), t4.chain.size());
  EXPECT_LT(t1.chain.transition_count(), t4.chain.transition_count());
}

TEST(Types, TransparencyImprovesAvailability) {
  const double a1 = steady_availability(generate(
      redundant_block(Transparency::kTransparent, Transparency::kTransparent),
      globals()));
  const double a2 = steady_availability(generate(
      redundant_block(Transparency::kTransparent,
                      Transparency::kNontransparent),
      globals()));
  const double a3 = steady_availability(generate(
      redundant_block(Transparency::kNontransparent,
                      Transparency::kTransparent),
      globals()));
  const double a4 = steady_availability(generate(
      redundant_block(Transparency::kNontransparent,
                      Transparency::kNontransparent),
      globals()));
  EXPECT_GT(a1, a2);
  EXPECT_GT(a1, a3);
  EXPECT_GT(a2, a4);
  EXPECT_GT(a3, a4);
  for (double a : {a1, a2, a3, a4}) {
    EXPECT_GT(a, 0.999);
    EXPECT_LT(a, 1.0);
  }
}

TEST(Types, RedundancyBeatsNoRedundancy) {
  BlockSpec single = simple_block();
  BlockSpec dual = simple_block();
  dual.quantity = 2;
  dual.recovery = Transparency::kTransparent;
  dual.repair = Transparency::kTransparent;
  const double a_single = steady_availability(generate(single, globals()));
  const double a_dual = steady_availability(generate(dual, globals()));
  EXPECT_GT(a_dual, a_single);
}

TEST(Types, StateCountGrowsLinearlyWithDepth) {
  // Paper: "if N-K > 1, states TF1, AR1, PF1 and Latent1 will be repeated".
  std::vector<std::size_t> sizes;
  for (unsigned n = 2; n <= 6; ++n) {
    BlockSpec b =
        redundant_block(Transparency::kNontransparent,
                        Transparency::kTransparent);
    b.quantity = n;
    b.min_quantity = 1;
    sizes.push_back(generate(b, globals()).chain.size());
  }
  // Constant per-level increment.
  const std::ptrdiff_t delta =
      static_cast<std::ptrdiff_t>(sizes[1]) - static_cast<std::ptrdiff_t>(sizes[0]);
  EXPECT_GT(delta, 0);
  for (std::size_t i = 2; i < sizes.size(); ++i) {
    EXPECT_EQ(static_cast<std::ptrdiff_t>(sizes[i]) -
                  static_cast<std::ptrdiff_t>(sizes[i - 1]),
              delta);
  }
  // Per-level family for Type 3 with all features on:
  // PF, Latent, AR, SPF, TF, SE (+ Reint for Type 2/4).
  EXPECT_EQ(delta, 6);
}

TEST(Types, DegenerateParametersShrinkChain) {
  BlockSpec full =
      redundant_block(Transparency::kNontransparent, Transparency::kTransparent);
  BlockSpec lean = full;
  lean.p_latent_fault = 0.0;   // no Latent states
  lean.p_spf = 0.0;            // no SPF states
  lean.p_correct_diagnosis = 1.0;  // no SE states
  lean.transient_fit = 0.0;    // no TF states
  const auto m_full = generate(full, globals());
  const auto m_lean = generate(lean, globals());
  EXPECT_LT(m_lean.chain.size(), m_full.chain.size());
  // Ok, AR1, PF1, PF2 only.
  EXPECT_EQ(m_lean.chain.size(), 4u);
}

TEST(Types, LeanType1MatchesBirthDeathClosedForm) {
  // Type 1 with no latent/SPF/transients and perfect diagnosis is exactly
  // the 1-of-2 birth-death model... except the repair rates differ between
  // the degraded level (deferred) and the down level (immediate), so build
  // the matching baseline by hand.
  BlockSpec b =
      redundant_block(Transparency::kTransparent, Transparency::kTransparent);
  b.p_latent_fault = 0.0;
  b.p_spf = 0.0;
  b.p_correct_diagnosis = 1.0;
  b.transient_fit = 0.0;
  const auto m = generate(b, globals());
  ASSERT_EQ(m.chain.size(), 3u);  // Ok, PF1, PF2
  const auto d = derive_rates(b, globals());
  const auto pi = rascad::baselines::birth_death_stationary(
      {2 * d.lambda_p, d.lambda_p},
      {1.0 / d.deferred_repair_h(), 1.0 / d.immediate_repair_h()});
  const double expected = pi[0] + pi[1];
  EXPECT_NEAR(steady_availability(m), expected, 1e-12);
}

TEST(Types, TransientOnlyRedundantBlock) {
  BlockSpec b;
  b.name = "Cache";
  b.quantity = 2;
  b.min_quantity = 1;
  b.transient_fit = 10'000.0;
  b.recovery = Transparency::kTransparent;
  b.repair = Transparency::kTransparent;
  // Fully masked: availability 1.
  auto m = generate(b, globals());
  EXPECT_NEAR(steady_availability(m), 1.0, 1e-15);
  // Nontransparent: every transient costs a reboot.
  b.recovery = Transparency::kNontransparent;
  m = generate(b, globals());
  const double lambda = 2 * 1e-5;
  const double mu = 6.0;
  EXPECT_NEAR(steady_availability(m),
              rascad::baselines::two_state_availability(lambda, mu), 1e-12);
}

TEST(Types, GeneratorRejectsInvalidSpecs) {
  BlockSpec b;
  b.name = "empty";
  EXPECT_THROW(generate(b, globals()), std::invalid_argument);

  BlockSpec no_repair = simple_block();
  no_repair.mttr_corrective_min = 0.0;
  no_repair.service_response_h = 0.0;
  EXPECT_THROW(generate(no_repair, globals()), std::invalid_argument);

  BlockSpec bad_ar =
      redundant_block(Transparency::kNontransparent, Transparency::kTransparent);
  bad_ar.ar_time_min = 0.0;
  EXPECT_THROW(generate(bad_ar, globals()), std::invalid_argument);

  BlockSpec bad_quantities = simple_block();
  bad_quantities.min_quantity = 5;
  EXPECT_THROW(generate(bad_quantities, globals()), std::invalid_argument);
}

TEST(Types, EveryFaultLatentWithNontransparentRecovery) {
  // p_latent_fault = 1 leaves no detected faults, so no arc may carry the
  // detected share; the AR states are reached through latent detection.
  // Both measures are continuous in p_latent_fault at 1.
  for (const auto repair :
       {Transparency::kTransparent, Transparency::kNontransparent}) {
    BlockSpec all_latent =
        redundant_block(Transparency::kNontransparent, repair);
    all_latent.p_latent_fault = 1.0;
    BlockSpec near = all_latent;
    near.p_latent_fault = 1.0 - 1e-9;
    const auto model = generate(all_latent, globals());
    EXPECT_EQ(model.chain.size(), generate(near, globals()).chain.size());
    const double a = steady_availability(model);
    const double a_near = steady_availability(generate(near, globals()));
    EXPECT_LT(std::abs(a - a_near), 1e-9 * a_near);
    EXPECT_LT(a, 1.0);
    const double a_smp = rascad::mg::smp_availability(all_latent, globals());
    const double a_smp_near = rascad::mg::smp_availability(near, globals());
    EXPECT_LT(std::abs(a_smp - a_smp_near), 1e-9 * a_smp_near);
    EXPECT_EQ(rascad::mg::generate_smp(all_latent, globals()).size(),
              model.chain.size());
  }
}

TEST(Types, GeneratorRowSumsVanish) {
  for (auto rec : {Transparency::kTransparent, Transparency::kNontransparent}) {
    for (auto rep :
         {Transparency::kTransparent, Transparency::kNontransparent}) {
      for (unsigned n : {2u, 3u, 5u}) {
        BlockSpec b = redundant_block(rec, rep);
        b.quantity = n;
        const auto m = generate(b, globals());
        for (double s : m.chain.generator().row_sums()) {
          EXPECT_NEAR(s, 0.0, 1e-12);
        }
      }
    }
  }
}

// ---- Primary/standby extension -------------------------------------------

TEST(PrimaryStandby, GeneratesAndSolves) {
  BlockSpec b = redundant_block(Transparency::kTransparent,
                                Transparency::kTransparent);
  b.mode = RedundancyMode::kPrimaryStandby;
  b.mtbf_h = 30'000.0;
  b.failover_time_min = 3.0;
  b.p_failover = 0.98;
  const auto m = generate(b, globals());
  EXPECT_EQ(m.type, MarkovModelType::kPrimaryStandby);
  for (const char* name : {"Ok", "Failover", "Degraded", "StandbyDown",
                           "BothDown", "FailoverStuck"}) {
    EXPECT_TRUE(m.chain.find_state(name).has_value()) << name;
  }
  const double a = steady_availability(m);
  EXPECT_GT(a, 0.99);
  EXPECT_LT(a, 1.0);
}

TEST(PrimaryStandby, BetterFailoverIsBetter) {
  BlockSpec b = redundant_block(Transparency::kTransparent,
                                Transparency::kTransparent);
  b.mode = RedundancyMode::kPrimaryStandby;
  b.mtbf_h = 30'000.0;
  b.failover_time_min = 3.0;
  b.t_spf_min = 45.0;
  double prev = 0.0;
  for (double p : {0.5, 0.9, 0.99, 1.0}) {
    b.p_failover = p;
    const double a = steady_availability(generate(b, globals()));
    EXPECT_GT(a, prev) << p;
    prev = a;
  }
}

// ---- Structure memo -------------------------------------------------------

/// A generated chain in full, rates and rewards as bit patterns.
struct ChainDump {
  std::vector<std::string> names;
  std::vector<std::uint64_t> rewards;
  std::vector<std::uint32_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<std::uint64_t> values;
  std::size_t transitions = 0;
  std::size_t initial = 0;

  bool operator==(const ChainDump&) const = default;
};

ChainDump dump(const GeneratedModel& m) {
  ChainDump d;
  for (const auto& s : m.chain.states()) {
    d.names.push_back(s.name);
    d.rewards.push_back(std::bit_cast<std::uint64_t>(s.reward));
  }
  const auto& q = m.chain.generator();
  d.row_ptr = q.row_ptr();
  d.col_idx = q.col_idx();
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const auto row = q.row(i);
    for (std::size_t k = 0; k < row.size; ++k) {
      d.values.push_back(std::bit_cast<std::uint64_t>(row.values[k]));
    }
  }
  d.transitions = m.chain.transition_count();
  d.initial = m.initial;
  return d;
}

/// generate on a thread of its own, whose structure memo is empty.
GeneratedModel generate_fresh(const BlockSpec& b,
                              const GenerationOptions& options = {}) {
  GeneratedModel out;
  std::thread([&] { out = generate(b, globals(), options); }).join();
  return out;
}

struct MemoCase {
  std::string label;
  BlockSpec block;
  GenerationOptions options;
};

/// Every family, and every value that decides whether an arc or a state
/// exists, on both sides of its threshold.
std::vector<MemoCase> memo_cases() {
  std::vector<MemoCase> cases;
  const auto add = [&](std::string label, const BlockSpec& b,
                       RewardKind reward = RewardKind::kAvailability) {
    GenerationOptions options;
    options.reward = reward;
    cases.push_back({std::move(label), b, options});
  };
  for (auto rec : {Transparency::kTransparent, Transparency::kNontransparent}) {
    for (auto rep :
         {Transparency::kTransparent, Transparency::kNontransparent}) {
      for (double p_spf : {0.0, 0.01, 1.0}) {
        for (double pcd : {0.9, 1.0}) {
          for (double plf : {0.0, 0.05}) {
            for (double fit : {0.0, 2'000.0}) {
              for (auto reward :
                   {RewardKind::kAvailability, RewardKind::kCapacity}) {
                BlockSpec b = redundant_block(rec, rep);
                b.quantity = 3;
                b.p_spf = p_spf;
                b.p_correct_diagnosis = pcd;
                b.p_latent_fault = plf;
                b.transient_fit = fit;
                add("redundant rec=" + std::to_string(int(rec)) +
                        " rep=" + std::to_string(int(rep)) +
                        " p_spf=" + std::to_string(p_spf) +
                        " pcd=" + std::to_string(pcd) +
                        " plf=" + std::to_string(plf) +
                        " fit=" + std::to_string(fit) +
                        " reward=" + std::to_string(int(reward)),
                    b, reward);
              }
            }
          }
        }
      }
      for (double p_spf : {0.0, 0.01, 1.0}) {
        BlockSpec b = redundant_block(rec, rep);
        b.mtbf_h = 0.0;
        b.p_spf = p_spf;
        add("transient-only rec=" + std::to_string(int(rec)) +
                " p_spf=" + std::to_string(p_spf),
            b);
      }
    }
  }
  for (double pcd : {0.9, 1.0}) {
    for (double fit : {0.0, 2'000.0}) {
      for (auto [response, mttr] : {std::pair{4.0, 60.0}, std::pair{0.0, 60.0},
                                    std::pair{4.0, 0.0}}) {
        BlockSpec b = simple_block();
        b.p_correct_diagnosis = pcd;
        b.transient_fit = fit;
        b.service_response_h = response;
        b.mttr_corrective_min = mttr;
        add("type0 pcd=" + std::to_string(pcd) + " fit=" + std::to_string(fit) +
                " response=" + std::to_string(response) +
                " mttr=" + std::to_string(mttr),
            b);
      }
    }
  }
  {
    BlockSpec b = simple_block();
    b.mtbf_h = 0.0;
    b.transient_fit = 5'000.0;
    add("type0 transient-only", b);
  }
  for (double failover : {0.0, 3.0}) {
    for (double p_fo : {1.0, 0.99}) {
      for (double pcd : {0.9, 1.0}) {
        for (double fit : {0.0, 2'000.0}) {
          for (auto rep :
               {Transparency::kTransparent, Transparency::kNontransparent}) {
            BlockSpec b = redundant_block(Transparency::kTransparent, rep);
            b.mode = RedundancyMode::kPrimaryStandby;
            b.failover_time_min = failover;
            b.p_failover = p_fo;
            b.p_correct_diagnosis = pcd;
            b.transient_fit = fit;
            add("standby failover=" + std::to_string(failover) +
                    " p_fo=" + std::to_string(p_fo) +
                    " pcd=" + std::to_string(pcd) +
                    " fit=" + std::to_string(fit) +
                    " rep=" + std::to_string(int(rep)),
                b);
          }
        }
      }
    }
  }
  {
    BlockSpec b = redundant_block(Transparency::kTransparent,
                                  Transparency::kTransparent);
    b.mode = RedundancyMode::kPrimaryStandby;
    b.mtbf_h = 0.0;
    add("standby transient-only", b);
  }
  return cases;
}

/// The same block with every rate and duration moved, and every
/// probability moved within the side of its threshold it was on: the same
/// structure, new values.
BlockSpec with_new_rates(BlockSpec b) {
  b.mtbf_h *= 1.7;
  b.transient_fit *= 1.3;
  b.mttr_diagnosis_min *= 1.1;
  b.mttr_corrective_min *= 1.2;
  b.mttr_verification_min *= 0.9;
  b.service_response_h *= 1.25;
  b.mttdlf_h *= 0.8;
  b.ar_time_min *= 1.5;
  b.t_spf_min *= 0.7;
  b.reintegration_min *= 1.4;
  b.failover_time_min *= 1.6;
  if (b.p_correct_diagnosis < 1.0) b.p_correct_diagnosis = 0.85;
  if (b.p_latent_fault > 0.0) b.p_latent_fault = 0.07;
  if (b.p_spf > 0.0 && b.p_spf < 1.0) b.p_spf = 0.02;
  if (b.p_failover < 1.0) b.p_failover = 0.95;
  return b;
}

// Generate A, then B, then A with new rates on one thread: every chain
// matches the one a thread with an empty memo generates, bit for bit, and
// the two A chains share one state table.
TEST(StructureMemo, RefilledChainsMatchFreshOnes) {
  const std::vector<MemoCase> cases = memo_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const MemoCase& a = cases[i];
    const MemoCase& b = cases[(i + 1) % cases.size()];
    const BlockSpec moved = with_new_rates(a.block);
    const GeneratedModel first = generate(a.block, globals(), a.options);
    const GeneratedModel other = generate(b.block, globals(), b.options);
    const GeneratedModel again = generate(moved, globals(), a.options);
    EXPECT_EQ(dump(first), dump(generate_fresh(a.block, a.options)))
        << a.label;
    EXPECT_EQ(dump(other), dump(generate_fresh(b.block, b.options)))
        << b.label;
    EXPECT_EQ(dump(again), dump(generate_fresh(moved, a.options))) << a.label;
    if (first.chain.size() > 1) {  // a lone state has no rates to move
      EXPECT_NE(dump(again).values, dump(first).values) << a.label;
    }
    EXPECT_EQ(again.chain.state_table(), first.chain.state_table())
        << a.label;
  }
}

// A generate that throws after recording part of its tape leaves the memo
// serving correct chains, for a known structure and for a new one.
TEST(StructureMemo, ThrowMidTapeLeavesTheMemoCorrect) {
  BlockSpec a = redundant_block(Transparency::kNontransparent,
                                Transparency::kNontransparent);
  a.quantity = 3;
  (void)generate(a, globals());
  BlockSpec broken = a;
  broken.mttdlf_h = std::nan("");  // the latent-detection arcs' rate
  EXPECT_THROW(generate(broken, globals()), std::invalid_argument);
  const BlockSpec moved = with_new_rates(a);
  EXPECT_EQ(dump(generate(moved, globals())), dump(generate_fresh(moved)));
  BlockSpec wider = a;
  wider.quantity = 5;
  EXPECT_THROW(generate(broken, globals()), std::invalid_argument);
  EXPECT_EQ(dump(generate(wider, globals())), dump(generate_fresh(wider)));
}

// Generation polls the stop token: one stopped before a 50,397-state
// block is generated stops it with the token's cause; a live token changes
// no bit.
TEST(Generate, StoppedTokenStopsGeneration) {
  using rascad::robust::CancelToken;
  using rascad::robust::SolveCause;
  using rascad::robust::SolveError;
  BlockSpec b = redundant_block(Transparency::kNontransparent,
                                Transparency::kNontransparent);
  b.quantity = 7200;
  const CancelToken cancelled = CancelToken::manual();
  cancelled.request_cancel();
  const CancelToken expired = CancelToken::with_deadline_ms(1e-3);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  for (const auto& [token, cause] :
       {std::pair{cancelled, SolveCause::kCancelled},
        std::pair{expired, SolveCause::kDeadlineExceeded}}) {
    try {
      (void)generate(b, globals(), {}, token);
      ADD_FAILURE() << "expected SolveError";
    } catch (const SolveError& e) {
      EXPECT_EQ(e.cause(), cause) << e.what();
    }
  }
  const GeneratedModel plain = generate(b, globals());
  EXPECT_EQ(plain.chain.size(), 50'397u);
  EXPECT_EQ(dump(generate(b, globals(), {}, CancelToken::manual())),
            dump(plain));
}

// ---- Measures -------------------------------------------------------------

TEST(Measures, BlockMeasureBundle) {
  const auto m = generate(
      redundant_block(Transparency::kNontransparent, Transparency::kTransparent),
      globals());
  const auto meas = rascad::mg::compute_measures(m, globals());
  EXPECT_GT(meas.availability, 0.999);
  EXPECT_LT(meas.availability, 1.0);
  EXPECT_NEAR(meas.yearly_downtime_min,
              (1.0 - meas.availability) * 525'600.0, 1e-9);
  EXPECT_GT(meas.eq_failure_rate, 0.0);
  EXPECT_GT(meas.eq_recovery_rate, meas.eq_failure_rate);
  EXPECT_GT(meas.mttf_h, 0.0);
  EXPECT_GT(meas.reliability_at_mission, 0.0);
  EXPECT_LT(meas.reliability_at_mission, 1.0);
  EXPECT_GT(meas.interval_availability, meas.availability);
  EXPECT_GT(meas.interval_failure_rate, 0.0);
  EXPECT_GT(meas.hazard_rate_at_mission, 0.0);
}

TEST(Measures, YearlyDowntimeHelper) {
  EXPECT_DOUBLE_EQ(rascad::mg::yearly_downtime_minutes(1.0), 0.0);
  EXPECT_NEAR(rascad::mg::yearly_downtime_minutes(0.999), 525.6, 1e-9);
}

}  // namespace
