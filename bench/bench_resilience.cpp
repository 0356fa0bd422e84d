// Overhead of the checked solve episode.
//
// The healthy-path comparison (bare GTH solve vs the full episode with
// health checks) is the fixed cost every MG block solve pays on top of the
// banded elimination: a residual re-check, the health scan and the trace
// bookkeeping, all O(n). The failure benchmark measures what a refused
// answer costs: the elimination, the failed check and the thrown error.
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

void BM_EpisodeHealthyPath(benchmark::State& state) {
  const markov::Ctmc chain = block_chain();
  const resilience::ResilienceConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        resilience::solve_steady_state_resilient(chain, config));
  }
}
BENCHMARK(BM_EpisodeHealthyPath);

/// Healthy path on a 201-state chain. The elimination is O(n b^2) with
/// b = 1 here, so the episode's O(n) checks are a visible fraction of it.
void BM_DirectBareLarge(benchmark::State& state) {
  const markov::Ctmc chain = resilience::ill_conditioned_chain(100, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::solve_steady_state(chain));
  }
}
BENCHMARK(BM_DirectBareLarge);

void BM_EpisodeHealthyPathLarge(benchmark::State& state) {
  const markov::Ctmc chain = resilience::ill_conditioned_chain(100, 2.0);
  const resilience::ResilienceConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        resilience::solve_steady_state_resilient(chain, config));
  }
}
BENCHMARK(BM_EpisodeHealthyPathLarge);

/// Failure latency: a health-check failure on every solve (a NaN seeded
/// into the answer), caught and reported as SolveError(kNanOrInf).
void BM_EpisodeRefusedAnswer(benchmark::State& state) {
  const markov::Ctmc chain = block_chain();
  resilience::ResilienceConfig config;
  config.fault_plan.fail(resilience::FaultKind::kNanResult);
  for (auto _ : state) {
    try {
      benchmark::DoNotOptimize(
          resilience::solve_steady_state_resilient(chain, config));
    } catch (const resilience::SolveError& e) {
      benchmark::DoNotOptimize(e.cause());
    }
  }
}
BENCHMARK(BM_EpisodeRefusedAnswer);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): after the google-benchmark run,
// emit the shared one-line JSON metrics summary CI greps for (the console
// reporter's table is not machine-parsed).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Direct timing of the headline comparison — bare solve vs full episode
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
  const double episode_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count() / kIters;
  const double overhead_pct =
      bare_ms > 0.0 ? (episode_ms - bare_ms) / bare_ms * 100.0 : 0.0;

  rascad::obs::BenchMetricsLine("resilience")
      .metric("direct_bare_ms", bare_ms)
      .metric("episode_healthy_ms", episode_ms)
      .metric("healthy_overhead_pct", overhead_pct)
      .write(std::cout);
  return 0;
}
