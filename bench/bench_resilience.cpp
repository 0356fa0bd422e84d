// Cost of the checked solve.
//
// One case per chain: markov::solve_steady_state, the banded GTH
// elimination plus its O(n) health check (residual re-check, distribution
// scan, trace bookkeeping), on a generated block chain and on a 201-state
// birth-death chain where the elimination is cheap enough (bandwidth 1)
// that the check is a visible fraction. The refusal case measures what a
// refused answer costs: the elimination, a NaN seeded through the
// post-solve test seam, the failed check and the thrown error.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "markov/health.hpp"
#include "markov/steady_state.hpp"
#include "mg/generator.hpp"
#include "obs/bench_json.hpp"
#include "fault_seam.hpp"

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

/// 201 states, bandwidth 1 after RCM.
markov::Ctmc large_chain() { return testing::ill_conditioned_chain(100, 2.0); }

void BM_CheckedSolve(benchmark::State& state) {
  const markov::Ctmc chain = block_chain();
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::solve_steady_state(chain));
  }
}
BENCHMARK(BM_CheckedSolve);

void BM_CheckedSolveLarge(benchmark::State& state) {
  const markov::Ctmc chain = large_chain();
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::solve_steady_state(chain));
  }
}
BENCHMARK(BM_CheckedSolveLarge);

/// Failure latency: a health-check failure on every solve (a NaN seeded
/// into the answer), caught and reported as SolveError(kNanOrInf).
void BM_RefusedAnswer(benchmark::State& state) {
  const markov::Ctmc chain = block_chain();
  const markov::ScopedPostSolveHook seam(testing::nan_hook());
  for (auto _ : state) {
    try {
      benchmark::DoNotOptimize(markov::solve_steady_state(chain));
    } catch (const robust::SolveError& e) {
      benchmark::DoNotOptimize(e.cause());
    }
  }
}
BENCHMARK(BM_RefusedAnswer);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): after the google-benchmark run,
// emit the shared one-line JSON metrics summary CI greps for (the console
// reporter's table is not machine-parsed).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Direct timing of the large chain's checked solve and of a refusal.
  using Clock = std::chrono::steady_clock;
  const markov::Ctmc chain = large_chain();
  constexpr int kIters = 50;
  const auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    benchmark::DoNotOptimize(markov::solve_steady_state(chain));
  }
  const auto t1 = Clock::now();
  {
    const markov::ScopedPostSolveHook seam(testing::nan_hook());
    for (int i = 0; i < kIters; ++i) {
      try {
        benchmark::DoNotOptimize(markov::solve_steady_state(chain));
      } catch (const robust::SolveError& e) {
        benchmark::DoNotOptimize(e.cause());
      }
    }
  }
  const auto t2 = Clock::now();
  const double solve_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count() / kIters;
  const double refused_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count() / kIters;

  rascad::obs::BenchMetricsLine("resilience")
      .metric("checked_solve_ms", solve_ms)
      .metric("refused_answer_ms", refused_ms)
      .write(std::cout);
  return 0;
}
