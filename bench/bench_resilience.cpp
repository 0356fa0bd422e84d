// Resilience-ladder overhead and recovery latency.
//
// The healthy-path comparison (bare direct solve vs the full ladder with
// health checks) is the fixed cost every MG block solve pays on top of the
// banded elimination: a residual re-check, the health scan and the trace
// bookkeeping, all O(n). The recovery benchmarks measure the wall-clock
// price of escalating when the first rung fails.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "markov/steady_state.hpp"
#include "mg/generator.hpp"
#include "obs/bench_json.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/resilience.hpp"

namespace {

using namespace rascad;

/// A representative generated block chain (type-3: redundancy with latent
/// faults and nontransparent recovery).
markov::Ctmc block_chain() {
  spec::BlockSpec block;
  block.name = "bench";
  block.quantity = 4;
  block.min_quantity = 2;
  block.mtbf_h = 50'000.0;
  block.mttr_corrective_min = 45.0;
  block.service_response_h = 4.0;
  block.p_latent_fault = 0.05;
  block.mttdlf_h = 168.0;
  block.ar_time_min = 2.0;
  block.reintegration_min = 10.0;
  return mg::generate(block, spec::GlobalParams{}).chain;
}

void BM_DirectBare(benchmark::State& state) {
  const markov::Ctmc chain = block_chain();
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::solve_steady_state(chain));
  }
}
BENCHMARK(BM_DirectBare);

void BM_LadderHealthyPath(benchmark::State& state) {
  const markov::Ctmc chain = block_chain();
  const resilience::ResilienceConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        resilience::solve_steady_state_resilient(chain, config));
  }
}
BENCHMARK(BM_LadderHealthyPath);

/// Healthy path on a 201-state chain. The elimination is O(n b^2) with
/// b = 1 here, so the ladder's O(n) checks are a visible fraction of it.
void BM_DirectBareLarge(benchmark::State& state) {
  const markov::Ctmc chain = resilience::ill_conditioned_chain(100, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::solve_steady_state(chain));
  }
}
BENCHMARK(BM_DirectBareLarge);

void BM_LadderHealthyPathLarge(benchmark::State& state) {
  const markov::Ctmc chain = resilience::ill_conditioned_chain(100, 2.0);
  const resilience::ResilienceConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        resilience::solve_steady_state_resilient(chain, config));
  }
}
BENCHMARK(BM_LadderHealthyPathLarge);

/// Recovery latency: the direct rung is forced to fail, so every solve
/// pays one wasted elimination plus the BiCGStab recovery.
void BM_LadderRecoveryAfterDirectFault(benchmark::State& state) {
  const markov::Ctmc chain = block_chain();
  resilience::ResilienceConfig config;
  config.fault_plan.fail(resilience::Rung::kDirect,
                         resilience::FaultKind::kThrowSingular);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        resilience::solve_steady_state_resilient(chain, config));
  }
}
BENCHMARK(BM_LadderRecoveryAfterDirectFault);

/// Worst-case recovery: everything but the last rung (Power) fails.
void BM_LadderRecoveryAtPower(benchmark::State& state) {
  const markov::Ctmc chain = block_chain();
  resilience::ResilienceConfig config;
  for (const resilience::Rung rung :
       {resilience::Rung::kDirect, resilience::Rung::kBiCgStab,
        resilience::Rung::kSor}) {
    config.fault_plan.fail(rung, resilience::FaultKind::kThrowNonConverged);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        resilience::solve_steady_state_resilient(chain, config));
  }
}
BENCHMARK(BM_LadderRecoveryAtPower);

/// Genuinely sick input: a stiff chain under a capped iteration budget,
/// where SOR and Power fail for real before the direct rung recovers.
void BM_LadderStiffChainEscalation(benchmark::State& state) {
  const markov::Ctmc chain = resilience::ill_conditioned_chain(8, 1e9);
  resilience::ResilienceConfig config;
  config.rungs = {resilience::Rung::kSor, resilience::Rung::kPower,
                  resilience::Rung::kDirect};
  config.base.max_iterations = 300;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        resilience::solve_steady_state_resilient(chain, config));
  }
}
BENCHMARK(BM_LadderStiffChainEscalation);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): after the google-benchmark run,
// emit the shared one-line JSON metrics summary CI greps for (the console
// reporter's table is not machine-parsed).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Direct timing of the headline comparison — bare solve vs full ladder
  // on the 201-state chain.
  using Clock = std::chrono::steady_clock;
  const markov::Ctmc chain = resilience::ill_conditioned_chain(100, 2.0);
  const resilience::ResilienceConfig config;
  constexpr int kIters = 50;
  const auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    benchmark::DoNotOptimize(markov::solve_steady_state(chain));
  }
  const auto t1 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    benchmark::DoNotOptimize(
        resilience::solve_steady_state_resilient(chain, config));
  }
  const auto t2 = Clock::now();
  const double bare_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count() / kIters;
  const double ladder_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count() / kIters;
  const double overhead_pct =
      bare_ms > 0.0 ? (ladder_ms - bare_ms) / bare_ms * 100.0 : 0.0;

  rascad::obs::BenchMetricsLine("resilience")
      .metric("direct_bare_ms", bare_ms)
      .metric("ladder_healthy_ms", ladder_ms)
      .metric("healthy_overhead_pct", overhead_pct)
      .write(std::cout);
  return 0;
}
