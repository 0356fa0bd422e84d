// E10 — numerical-method cost ("solved using numerical methods",
// Section 1): google-benchmark timings of generation and of the one
// steady-state solver (banded GTH) on generated chains of growing size,
// plus the Krylov transient engine's cost vs horizon and curve
// resolution. Accuracy is asserted by the test suite; this binary
// measures cost.
#include <benchmark/benchmark.h>

#include "markov/steady_state.hpp"
#include "markov/transient.hpp"
#include "mg/generator.hpp"
#include "spec/ast.hpp"

namespace {

rascad::mg::GeneratedModel chain_of_depth(unsigned n) {
  rascad::spec::BlockSpec b;
  b.name = "bench";
  b.quantity = n;
  b.min_quantity = 1;
  b.mtbf_h = 100'000.0;
  b.transient_fit = 2'000.0;
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
  return rascad::mg::generate(b, g);
}

void BM_Generate(benchmark::State& state) {
  rascad::spec::GlobalParams g;
  rascad::spec::BlockSpec b;
  b.name = "bench";
  b.quantity = static_cast<unsigned>(state.range(0));
  b.min_quantity = 1;
  b.mtbf_h = 100'000.0;
  b.mttr_corrective_min = 45.0;
  b.service_response_h = 4.0;
  b.recovery = rascad::spec::Transparency::kNontransparent;
  b.ar_time_min = 6.0;
  b.repair = rascad::spec::Transparency::kTransparent;
  for (auto _ : state) {
    auto model = rascad::mg::generate(b, g);
    benchmark::DoNotOptimize(model.chain.size());
  }
}
BENCHMARK(BM_Generate)->Arg(2)->Arg(16)->Arg(64)->Arg(256);

void BM_SolveDirect(benchmark::State& state) {
  const auto model = chain_of_depth(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto result = rascad::markov::solve_steady_state(model.chain);
    benchmark::DoNotOptimize(result.pi.data());
  }
  state.counters["states"] = static_cast<double>(model.chain.size());
}
BENCHMARK(BM_SolveDirect)->Arg(2)->Arg(16)->Arg(64)->Arg(128);

void BM_IntervalAvailability(benchmark::State& state) {
  const auto model = chain_of_depth(4);
  const auto pi0 = rascad::markov::point_mass(model.chain, model.initial);
  const double horizon = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const double a =
        rascad::markov::interval_availability(model.chain, pi0, horizon);
    benchmark::DoNotOptimize(a);
  }
  state.counters["horizon_h"] = horizon;
}
BENCHMARK(BM_IntervalAvailability)->Arg(24)->Arg(720)->Arg(8760);

void BM_TransientDistribution(benchmark::State& state) {
  const auto model = chain_of_depth(4);
  const auto pi0 = rascad::markov::point_mass(model.chain, model.initial);
  const double horizon = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const auto pit =
        rascad::markov::transient_distribution(model.chain, pi0, horizon);
    benchmark::DoNotOptimize(pit.data());
  }
}
BENCHMARK(BM_TransientDistribution)->Arg(24)->Arg(720);

void BM_RewardCurve(benchmark::State& state) {
  const auto model = chain_of_depth(4);
  const auto pi0 = rascad::markov::point_mass(model.chain, model.initial);
  for (auto _ : state) {
    const auto curve = rascad::markov::reward_curve(
        model.chain, pi0, 8760.0, static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(curve.data());
  }
}
BENCHMARK(BM_RewardCurve)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
