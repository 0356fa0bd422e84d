// Tests for the exec parallel layer (thread pool, parallel_for) and the
// bit-identical-across-thread-counts contract of every batch path wired
// through it: replications, sensitivities, and the system build itself.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/importance.hpp"
#include "exec/parallel.hpp"
#include "markov/ctmc.hpp"
#include "mg/system.hpp"
#include "sim/block_sim.hpp"
#include "sim/chain_sim.hpp"
#include "sim/stats.hpp"
#include "spec/parser.hpp"

namespace {

using rascad::exec::ParallelOptions;
using rascad::exec::parallel_for;
using rascad::sim::SampleStats;

ParallelOptions threads(std::size_t n) {
  ParallelOptions opts;
  opts.threads = n;
  return opts;
}

// The thread counts every determinism test sweeps, per the PR contract.
const std::size_t kThreadCounts[] = {1, 2, 8};

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t n = 4096;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(
      n, [&](std::size_t i) { hits[i].fetch_add(1); }, threads(8));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroCountIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; }, threads(8));
  EXPECT_FALSE(called);
}

TEST(ParallelFor, NullFunctionThrows) {
  EXPECT_THROW(parallel_for(4, std::function<void(std::size_t)>{}),
               std::invalid_argument);
}

TEST(ParallelFor, SerialFallbackRunsOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  parallel_for(
      64, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); },
      threads(1));
}

TEST(ParallelFor, ExceptionFromLowestChunkPropagates) {
  // Every index throws; all chunks run, and the error recorded for the
  // lowest-numbered chunk (which starts at index 0) is the one rethrown.
  try {
    parallel_for(
        100,
        [](std::size_t i) {
          throw std::runtime_error(std::to_string(i));
        },
        threads(8));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

TEST(ParallelFor, ExceptionDoesNotAbortOtherChunks) {
  constexpr std::size_t n = 256;
  std::vector<std::atomic<int>> hits(n);
  EXPECT_THROW(parallel_for(
                   n,
                   [&](std::size_t i) {
                     hits[i].fetch_add(1);
                     if (i == 17) throw std::runtime_error("one bad index");
                   },
                   threads(8)),
               std::runtime_error);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, NestedLoopsComplete) {
  std::vector<std::atomic<int>> sums(8);
  parallel_for(
      8,
      [&](std::size_t outer) {
        parallel_for(
            100, [&](std::size_t) { sums[outer].fetch_add(1); }, threads(4));
      },
      threads(4));
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(sums[i].load(), 100);
}

TEST(ParallelFor, ConcurrentWritersOnSharedCounter) {
  // A deliberately contended counter: this is the test the TSan preset
  // targets to prove the pool's synchronization is sound.
  std::atomic<std::size_t> counter{0};
  parallel_for(
      100'000, [&](std::size_t) { counter.fetch_add(1); }, threads(8));
  EXPECT_EQ(counter.load(), 100'000u);
}

TEST(ThreadCount, EnvOverrideWinsWhenWellFormed) {
  ASSERT_EQ(setenv("RASCAD_THREADS", "3", 1), 0);
  EXPECT_EQ(rascad::exec::default_thread_count(), 3u);
  ASSERT_EQ(setenv("RASCAD_THREADS", "not-a-number", 1), 0);
  EXPECT_EQ(rascad::exec::default_thread_count(),
            rascad::exec::hardware_thread_count());
  ASSERT_EQ(setenv("RASCAD_THREADS", "0", 1), 0);
  EXPECT_EQ(rascad::exec::default_thread_count(),
            rascad::exec::hardware_thread_count());
  ASSERT_EQ(unsetenv("RASCAD_THREADS"), 0);
  EXPECT_EQ(rascad::exec::default_thread_count(),
            rascad::exec::hardware_thread_count());
}

// ---- Determinism of the wired batch paths --------------------------------

void expect_identical_stats(const SampleStats& a, const SampleStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

rascad::markov::Ctmc two_state_chain() {
  rascad::markov::CtmcBuilder b;
  const auto up = b.add_state("Up", 1.0);
  const auto down = b.add_state("Down", 0.0);
  b.add_transition(up, down, 0.02);
  b.add_transition(down, up, 1.5);
  return b.build();
}

TEST(Determinism, ChainReplicationsBitIdenticalAcrossThreadCounts) {
  const auto chain = two_state_chain();
  const auto serial = rascad::sim::replicate_chain_availability(
      chain, 0, 20'000.0, 64, 99, threads(1));
  for (std::size_t t : kThreadCounts) {
    const auto stats = rascad::sim::replicate_chain_availability(
        chain, 0, 20'000.0, 64, 99, threads(t));
    expect_identical_stats(stats, serial);
  }
}

rascad::spec::ModelSpec parallel_test_model() {
  return rascad::spec::parse_model(R"(
globals { reboot_time = 10 min mttm = 12 h mttrfid = 4 h mission_time = 8760 h }
diagram "Sys" {
  block "A" { mtbf = 4000 mttr_corrective = 120 service_response = 4 }
  block "B" {
    quantity = 2 min_quantity = 1 mtbf = 3000
    mttr_corrective = 60 service_response = 4
    recovery = transparent repair = transparent
  }
  block "C" { mtbf = 9000 mttr_corrective = 45 service_response = 2 }
}
)");
}

TEST(Determinism, BlockReplicationsBitIdenticalAcrossThreadCounts) {
  rascad::spec::BlockSpec b;
  b.name = "Board";
  b.quantity = 1;
  b.min_quantity = 1;
  b.mtbf_h = 5'000.0;
  b.mttr_corrective_min = 120.0;
  b.service_response_h = 4.0;
  rascad::spec::GlobalParams g;
  g.reboot_time_h = 10.0 / 60.0;
  g.mttm_h = 12.0;
  g.mttrfid_h = 4.0;
  g.mission_time_h = 8760.0;
  const auto serial = rascad::sim::replicate_block_availability(
      b, g, 50'000.0, 24, 7, {}, threads(1));
  for (std::size_t t : kThreadCounts) {
    const auto stats = rascad::sim::replicate_block_availability(
        b, g, 50'000.0, 24, 7, {}, threads(t));
    expect_identical_stats(stats, serial);
  }
}

TEST(Determinism, SensitivitiesBitIdenticalAcrossThreadCounts) {
  const auto system = rascad::mg::SystemModel::build(parallel_test_model());
  const auto serial =
      rascad::core::parameter_sensitivity(system, 0.05, threads(1));
  for (std::size_t t : kThreadCounts) {
    const auto sens =
        rascad::core::parameter_sensitivity(system, 0.05, threads(t));
    ASSERT_EQ(sens.size(), serial.size());
    for (std::size_t i = 0; i < sens.size(); ++i) {
      EXPECT_EQ(sens[i].block, serial[i].block);
      EXPECT_EQ(sens[i].mtbf_elasticity, serial[i].mtbf_elasticity);
      EXPECT_EQ(sens[i].mttr_elasticity, serial[i].mttr_elasticity);
      EXPECT_EQ(sens[i].tresp_elasticity, serial[i].tresp_elasticity);
    }
  }
}

TEST(Determinism, SystemBuildBitIdenticalAcrossThreadCounts) {
  const auto model = parallel_test_model();
  rascad::mg::SystemModel::Options serial_opts;
  serial_opts.parallel = threads(1);
  const auto serial = rascad::mg::SystemModel::build(model, serial_opts);
  for (std::size_t t : kThreadCounts) {
    rascad::mg::SystemModel::Options opts;
    opts.parallel = threads(t);
    const auto system = rascad::mg::SystemModel::build(model, opts);
    EXPECT_EQ(system.availability(), serial.availability());
    ASSERT_EQ(system.blocks().size(), serial.blocks().size());
    for (std::size_t i = 0; i < system.blocks().size(); ++i) {
      const auto& a = system.blocks()[i];
      const auto& b = serial.blocks()[i];
      // Block order and per-block measures must not depend on scheduling.
      EXPECT_EQ(a.block.name, b.block.name);
      EXPECT_EQ(a.availability, b.availability);
      EXPECT_EQ(a.eq_failure_rate, b.eq_failure_rate);
      // Each parallel solve keeps its own attributable SolveTrace.
      EXPECT_TRUE(a.solve_trace.success);
      EXPECT_TRUE(b.solve_trace.success);
    }
  }
}

TEST(Determinism, IntervalAvailabilityStableAcrossThreadCounts) {
  const auto model = parallel_test_model();
  rascad::mg::SystemModel::Options serial_opts;
  serial_opts.parallel = threads(1);
  const auto serial = rascad::mg::SystemModel::build(model, serial_opts);
  const double expected = serial.interval_availability(1000.0);
  const double expected_rel = serial.reliability(1000.0);
  for (std::size_t t : kThreadCounts) {
    rascad::mg::SystemModel::Options opts;
    opts.parallel = threads(t);
    const auto system = rascad::mg::SystemModel::build(model, opts);
    EXPECT_EQ(system.interval_availability(1000.0), expected);
    EXPECT_EQ(system.reliability(1000.0), expected_rel);
  }
}

}  // namespace
