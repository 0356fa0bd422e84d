// Tests for the simulation substrate: RNG determinism, statistics,
// interval merging, CTMC trajectory sampling vs analytic steady state, and
// the semantic block/system simulators vs the generated chains.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/baselines.hpp"
#include "markov/steady_state.hpp"
#include "mg/generator.hpp"
#include "mg/system.hpp"
#include "sim/block_sim.hpp"
#include "sim/chain_sim.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/streaming.hpp"
#include "sim/system_sim.hpp"
#include "spec/parser.hpp"

namespace {

using rascad::sim::SampleStats;
using rascad::sim::Xoshiro256;
using rascad::spec::Transparency;

TEST(Rng, DeterministicAndUniform) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  Xoshiro256 c(124);
  EXPECT_NE(a.next_u64(), c.next_u64());

  Xoshiro256 rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GT(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100'000, 0.5, 0.01);
}

TEST(Rng, StreamSeedsAreDecorrelated) {
  // Regression: the stream constructor used to derive seeds with a linear
  // mix (seed ^ GOLDEN*(stream+1)), leaving nearby streams correlated. The
  // splitmix64 hash must give adjacent streams unrelated first outputs.
  Xoshiro256 reference(123, 0);
  Xoshiro256 replay(123, 0);
  EXPECT_EQ(reference.next_u64(), replay.next_u64());  // reproducible

  std::vector<std::uint64_t> firsts;
  for (std::uint64_t s = 0; s < 64; ++s) {
    Xoshiro256 rng(123, s);
    firsts.push_back(rng.next_u64());
  }
  for (std::size_t i = 0; i < firsts.size(); ++i) {
    for (std::size_t j = i + 1; j < firsts.size(); ++j) {
      ASSERT_NE(firsts[i], firsts[j]) << "streams " << i << " and " << j;
    }
  }

  // Avalanche: flipping the stream index by one should flip roughly half
  // of the first output's bits on average.
  double popcount_sum = 0.0;
  for (std::uint64_t s = 0; s < 256; ++s) {
    Xoshiro256 a(99, s);
    Xoshiro256 b(99, s + 1);
    popcount_sum +=
        static_cast<double>(__builtin_popcountll(a.next_u64() ^ b.next_u64()));
  }
  const double mean_flips = popcount_sum / 256.0;
  EXPECT_GT(mean_flips, 24.0);
  EXPECT_LT(mean_flips, 40.0);
}

TEST(Rng, StreamZeroDiffersFromPlainSeed) {
  Xoshiro256 plain(123);
  Xoshiro256 stream0(123, 0);
  EXPECT_NE(plain.next_u64(), stream0.next_u64());
}

TEST(Rng, UniformBelowIsInRange) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_below(17), 17u);
  }
  EXPECT_EQ(rng.uniform_below(0), 0u);
}

TEST(Stats, WelfordMatchesDirect) {
  SampleStats s;
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 10.0};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_NEAR(s.variance(), 12.5, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  const auto ci = s.confidence_interval();
  EXPECT_LT(ci.lo, s.mean());
  EXPECT_GT(ci.hi, s.mean());
  EXPECT_TRUE(ci.contains(4.0));
}

TEST(Stats, MergedLength) {
  using rascad::sim::Interval;
  EXPECT_DOUBLE_EQ(rascad::sim::merged_length({}), 0.0);
  EXPECT_DOUBLE_EQ(rascad::sim::merged_length({{0.0, 1.0}}), 1.0);
  // Overlapping + disjoint.
  EXPECT_DOUBLE_EQ(
      rascad::sim::merged_length({{0.0, 2.0}, {1.0, 3.0}, {5.0, 6.0}}), 4.0);
  // Nested.
  EXPECT_DOUBLE_EQ(rascad::sim::merged_length({{0.0, 10.0}, {2.0, 3.0}}),
                   10.0);
}

TEST(ChainSim, TwoStateMatchesAnalytic) {
  rascad::markov::CtmcBuilder b;
  const auto up = b.add_state("Up", 1.0);
  const auto down = b.add_state("Down", 0.0);
  b.add_transition(up, down, 0.01);
  b.add_transition(down, up, 1.0);
  const auto chain = b.build();
  const auto stats = rascad::sim::replicate_chain_availability(
      chain, 0, 50'000.0, 200, 42);
  const double analytic = rascad::baselines::two_state_availability(0.01, 1.0);
  const auto ci = stats.confidence_interval(3.0);
  EXPECT_TRUE(ci.contains(analytic))
      << "sim " << stats.mean() << " vs analytic " << analytic;
}

TEST(ChainSim, RecordsDownIntervals) {
  rascad::markov::CtmcBuilder b;
  const auto up = b.add_state("Up", 1.0);
  const auto down = b.add_state("Down", 0.0);
  b.add_transition(up, down, 0.1);
  b.add_transition(down, up, 2.0);
  Xoshiro256 rng(5);
  const auto result =
      rascad::sim::simulate_chain(b.build(), 0, 10'000.0, rng, true);
  EXPECT_GT(result.down_entries, 100u);
  EXPECT_EQ(result.down_intervals.size(), result.down_entries);
  double total = 0.0;
  for (const auto& iv : result.down_intervals) {
    EXPECT_LT(iv.start, iv.end);
    total += iv.end - iv.start;
  }
  EXPECT_NEAR(total, result.down_time, 1e-9);
}

TEST(ChainSim, StartingDownCountsAsDownEntry) {
  // Regression: a trajectory that starts in a down state used to record
  // the initial down interval without counting it in down_entries, so the
  // two bookkeeping views disagreed.
  rascad::markov::CtmcBuilder b;
  const auto up = b.add_state("Up", 1.0);
  const auto down = b.add_state("Down", 0.0);
  b.add_transition(up, down, 0.1);
  b.add_transition(down, up, 2.0);
  Xoshiro256 rng(11);
  const auto result =
      rascad::sim::simulate_chain(b.build(), down, 10'000.0, rng, true);
  EXPECT_GE(result.down_entries, 1u);
  EXPECT_EQ(result.down_intervals.size(), result.down_entries);
  ASSERT_FALSE(result.down_intervals.empty());
  EXPECT_EQ(result.down_intervals.front().start, 0.0);
  double total = 0.0;
  for (const auto& iv : result.down_intervals) total += iv.end - iv.start;
  EXPECT_NEAR(total, result.down_time, 1e-9);
}

TEST(ChainSim, AbsorbingStartInDownStateIsOneEntry) {
  // A chain that starts (and stays) down: exactly one down entry and one
  // interval covering the whole horizon.
  rascad::markov::CtmcBuilder b;
  b.add_state("Up", 1.0);
  const auto dead = b.add_state("Dead", 0.0);
  b.add_transition(0, dead, 1.0);
  Xoshiro256 rng(12);
  const auto result =
      rascad::sim::simulate_chain(b.build(), dead, 50.0, rng, true);
  EXPECT_EQ(result.down_entries, 1u);
  ASSERT_EQ(result.down_intervals.size(), 1u);
  EXPECT_EQ(result.down_intervals.front().start, 0.0);
  EXPECT_EQ(result.down_intervals.front().end, 50.0);
  EXPECT_EQ(result.up_time, 0.0);
  EXPECT_NEAR(result.down_time, 50.0, 1e-12);
}

TEST(ChainSim, AbsorbingChainStopsAccumulating) {
  rascad::markov::CtmcBuilder b;
  const auto up = b.add_state("Up", 1.0);
  b.add_state("Dead", 0.0);
  b.add_transition(up, 1, 1.0);
  Xoshiro256 rng(6);
  const auto result = rascad::sim::simulate_chain(b.build(), 0, 100.0, rng);
  EXPECT_NEAR(result.up_time + result.down_time, 100.0, 1e-9);
  EXPECT_GT(result.down_time, 0.0);
}

// ---- Semantic block simulator vs generated chain -------------------------

rascad::spec::GlobalParams sim_globals() {
  rascad::spec::GlobalParams g;
  g.reboot_time_h = 10.0 / 60.0;
  g.mttm_h = 12.0;
  g.mttrfid_h = 4.0;
  g.mission_time_h = 8760.0;
  return g;
}

double chain_availability(const rascad::spec::BlockSpec& b,
                          const rascad::spec::GlobalParams& g) {
  const auto model = rascad::mg::generate(b, g);
  const auto r = rascad::markov::solve_steady_state(model.chain);
  return rascad::markov::expected_reward(model.chain, r.pi);
}

void expect_sim_matches_chain(const rascad::spec::BlockSpec& b,
                              double horizon, std::size_t reps,
                              double z = 4.0) {
  const auto g = sim_globals();
  const double analytic = chain_availability(b, g);
  const auto stats = rascad::sim::replicate_block_availability(
      b, g, horizon, reps, 20'240'704);
  const auto ci = stats.confidence_interval(z);
  EXPECT_TRUE(ci.contains(analytic))
      << b.name << ": sim " << stats.mean() << " +- " << stats.std_error()
      << " vs analytic " << analytic;
}

TEST(BlockSim, Type0MatchesChain) {
  rascad::spec::BlockSpec b;
  b.name = "Board";
  b.quantity = 1;
  b.min_quantity = 1;
  b.mtbf_h = 5'000.0;  // failure-heavy so the estimate converges fast
  b.mttr_corrective_min = 120.0;
  b.service_response_h = 4.0;
  b.p_correct_diagnosis = 0.9;
  b.transient_fit = 50'000.0;
  expect_sim_matches_chain(b, 200'000.0, 60);
}

TEST(BlockSim, Type1MatchesChain) {
  rascad::spec::BlockSpec b;
  b.name = "PSU";
  b.quantity = 2;
  b.min_quantity = 1;
  b.mtbf_h = 2'000.0;
  b.mttr_corrective_min = 60.0;
  b.service_response_h = 4.0;
  b.recovery = Transparency::kTransparent;
  b.repair = Transparency::kTransparent;
  expect_sim_matches_chain(b, 200'000.0, 60);
}

TEST(BlockSim, Type4MatchesChain) {
  rascad::spec::BlockSpec b;
  b.name = "IOB";
  b.quantity = 2;
  b.min_quantity = 1;
  b.mtbf_h = 2'000.0;
  b.transient_fit = 100'000.0;
  b.mttr_corrective_min = 60.0;
  b.service_response_h = 4.0;
  b.p_correct_diagnosis = 0.9;
  b.p_latent_fault = 0.1;
  b.mttdlf_h = 24.0;
  b.recovery = Transparency::kNontransparent;
  b.ar_time_min = 6.0;
  b.p_spf = 0.05;
  b.t_spf_min = 30.0;
  b.repair = Transparency::kNontransparent;
  b.reintegration_min = 10.0;
  expect_sim_matches_chain(b, 200'000.0, 60);
}

TEST(BlockSim, PrimaryStandbyMatchesChain) {
  rascad::spec::BlockSpec b;
  b.name = "Cluster";
  b.quantity = 2;
  b.min_quantity = 1;
  b.mode = rascad::spec::RedundancyMode::kPrimaryStandby;
  b.mtbf_h = 3'000.0;
  b.transient_fit = 50'000.0;
  b.mttr_corrective_min = 90.0;
  b.service_response_h = 4.0;
  b.failover_time_min = 4.0;
  b.p_failover = 0.95;
  b.t_spf_min = 45.0;
  expect_sim_matches_chain(b, 200'000.0, 60);
}

TEST(BlockSim, CountsAreConsistent) {
  rascad::spec::BlockSpec b;
  b.name = "X";
  b.quantity = 2;
  b.min_quantity = 1;
  b.mtbf_h = 1'000.0;
  b.mttr_corrective_min = 60.0;
  b.service_response_h = 2.0;
  b.recovery = Transparency::kTransparent;
  b.repair = Transparency::kTransparent;
  Xoshiro256 rng(77);
  const auto r =
      rascad::sim::simulate_block(b, sim_globals(), 100'000.0, rng);
  EXPECT_GT(r.permanent_faults, 50u);
  EXPECT_EQ(r.transient_faults, 0u);
  EXPECT_GT(r.repairs_completed, 0u);
  EXPECT_NEAR(r.availability(), 1.0 - r.down_time / r.horizon, 1e-12);
  double sum = 0.0;
  for (const auto& iv : r.down_intervals) sum += iv.end - iv.start;
  EXPECT_NEAR(sum, r.down_time, 1e-9);
}

TEST(BlockSim, NonExponentialOptionStillClose) {
  // Same means, different shapes: long-run availability should stay in the
  // same neighbourhood (ratio-of-means argument), though not identical.
  rascad::spec::BlockSpec b;
  b.name = "Board";
  b.quantity = 1;
  b.min_quantity = 1;
  b.mtbf_h = 5'000.0;
  b.mttr_corrective_min = 120.0;
  b.service_response_h = 4.0;
  const auto g = sim_globals();
  const double analytic = chain_availability(b, g);
  rascad::sim::BlockSimOptions opts;
  opts.exponential_everything = false;
  const auto stats = rascad::sim::replicate_block_availability(
      b, g, 200'000.0, 40, 99, opts);
  EXPECT_NEAR(stats.mean(), analytic, 5e-4);
}

TEST(SystemSim, MatchesAnalyticSystemAvailability) {
  const auto model = rascad::spec::parse_model(R"(
globals { reboot_time = 10 min mttm = 12 h mttrfid = 4 h mission_time = 8760 h }
diagram "Sys" {
  block "A" { mtbf = 4000 mttr_corrective = 120 service_response = 4 }
  block "B" {
    quantity = 2 min_quantity = 1 mtbf = 3000
    mttr_corrective = 60 service_response = 4
    recovery = transparent repair = transparent
  }
}
)");
  const auto system = rascad::mg::SystemModel::build(model);
  const double analytic = system.availability();
  const auto rep =
      rascad::sim::replicate_system_streaming(model, 100'000.0, 80, 7);
  const auto ci = rep.availability.confidence_interval(4.0);
  EXPECT_TRUE(ci.contains(analytic))
      << "sim " << rep.availability.mean() << " vs analytic " << analytic;
  EXPECT_GT(rep.outages.mean(), 0.0);
}

TEST(SystemSim, RejectsBadInput) {
  const auto model = rascad::spec::parse_model(
      R"(diagram "D" { block "B" { mtbf = 100 mttr_corrective = 30 } })");
  EXPECT_THROW(rascad::sim::simulate_system(model, -1.0, 1),
               std::invalid_argument);
  EXPECT_THROW(rascad::sim::simulate_system(model, 0.0, 1),
               std::invalid_argument);
}

}  // namespace
