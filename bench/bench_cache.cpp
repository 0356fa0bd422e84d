// E16 — memoized block solves + incremental rebuild: a 64-point parametric
// sweep of the paper's Data Center System, solved three ways:
//
//   full   every point is a from-scratch SystemModel::build, no memo table
//          (a plain loop here; sweeps always rebuild)
//   cold   incremental rebuild against one baseline, empty cache
//   warm   the same sweep again on the now-populated cache
//
// The three series (and the same sweep at 2 and 8 threads) must be
// bit-identical — the cache trades work, never accuracy. Exits nonzero if
// any series differs bitwise or the warm sweep is not at least 3x faster
// than the full rebuild at a single thread, so CI catches regressions in
// either the determinism contract or the speedup.
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cache/solve_cache.hpp"
#include "core/library.hpp"
#include "core/sweep.hpp"
#include "mg/system.hpp"
#include "obs/bench_json.hpp"
#include "spec/ast.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using rascad::cache::SolveCache;
using rascad::core::SweepOptions;
using rascad::core::SweepPoint;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr std::size_t kPoints = 64;

// Centerplane service response: a single-block parameter, so the
// incremental path re-solves exactly one of the model's 22 chains per
// point.
void set_tresp(rascad::spec::BlockSpec& b, double v) {
  b.service_response_h = v;
}

std::vector<double> sweep_values() {
  return rascad::core::linspace(0.5, 24.0, kPoints);
}

std::vector<SweepPoint> run_sweep(const rascad::spec::ModelSpec& model,
                                  SolveCache* cache, std::size_t threads) {
  SweepOptions opts;
  opts.model.cache = cache;
  opts.parallel.threads = threads;
  return rascad::core::sweep_block_parameter(
      model, "Server Box", "Centerplane", set_tresp, sweep_values(), opts);
}

/// The same series from a from-scratch, uncached build of every point.
std::vector<SweepPoint> full_builds(const rascad::spec::ModelSpec& model) {
  rascad::mg::SystemModel::Options opts;
  opts.cache = nullptr;
  std::vector<SweepPoint> out;
  for (const double v : sweep_values()) {
    rascad::spec::ModelSpec point = model;
    set_tresp(*point.find_block("Server Box", "Centerplane"), v);
    const auto system =
        rascad::mg::SystemModel::build(std::move(point), opts);
    SweepPoint p;
    p.value = v;
    p.availability = system.availability();
    p.yearly_downtime_min = system.yearly_downtime_min();
    p.eq_failure_rate = system.eq_failure_rate();
    out.push_back(p);
  }
  return out;
}

bool bitwise_equal(const std::vector<SweepPoint>& a,
                   const std::vector<SweepPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].value != b[i].value || a[i].availability != b[i].availability ||
        a[i].yearly_downtime_min != b[i].yearly_downtime_min ||
        a[i].eq_failure_rate != b[i].eq_failure_rate) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  rascad::obs::JsonOnlyGuard json(argc, argv);
  const rascad::spec::ModelSpec model =
      rascad::core::library::datacenter_system();

  std::cout << "=== E16: block-solve memoization / incremental rebuild ===\n\n"
            << kPoints << "-point Centerplane Tresp sweep of the Data Center "
               "System, 1 thread:\n";

  auto t0 = Clock::now();
  const auto full = full_builds(model);
  const double full_ms = ms_since(t0);

  SolveCache cache;
  t0 = Clock::now();
  const auto cold = run_sweep(model, &cache, 1);
  const double cold_ms = ms_since(t0);

  t0 = Clock::now();
  const auto warm = run_sweep(model, &cache, 1);
  const double warm_ms = ms_since(t0);

  const double speedup_cold = cold_ms > 0.0 ? full_ms / cold_ms : 0.0;
  const double speedup_warm = warm_ms > 0.0 ? full_ms / warm_ms : 0.0;
  const auto counters = cache.block_counters();

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "  full rebuild (no cache) : " << std::setw(9) << full_ms
            << " ms\n";
  std::cout << "  incremental, cold cache : " << std::setw(9) << cold_ms
            << " ms  (" << speedup_cold << "x)\n";
  std::cout << "  incremental, warm cache : " << std::setw(9) << warm_ms
            << " ms  (" << speedup_warm << "x)\n";
  std::cout << "  block table: " << counters.hits << " hits, "
            << counters.misses << " misses, " << counters.entries
            << " entries (hit rate " << std::setprecision(3)
            << counters.hit_rate() << ")\n";
  std::cout.unsetf(std::ios::fixed);

  bool identical = bitwise_equal(full, cold) && bitwise_equal(full, warm);
  // The determinism contract also spans thread counts: rerun the
  // incremental sweep (cold per count, then warm on the shared cache).
  for (std::size_t threads : {2u, 8u}) {
    SolveCache per_count;
    identical = identical &&
                bitwise_equal(full, run_sweep(model, &per_count, threads)) &&
                bitwise_equal(full, run_sweep(model, &cache, threads));
  }
  std::cout << "  series bit-identical (full/cold/warm, threads 1/2/8): "
            << (identical ? "yes" : "NO") << "\n\n";

  const bool fast_enough = speedup_warm >= 3.0;
  if (!fast_enough) {
    std::cout << "FAIL: warm-cache speedup " << speedup_warm
              << "x below the 3x floor\n";
  }
  if (!identical) {
    std::cout << "FAIL: cached series differ bitwise from the full rebuild\n";
  }

  json.restore();
  rascad::obs::BenchMetricsLine("cache")
      .metric("points", kPoints)
      .metric("full_ms", full_ms)
      .metric("cold_ms", cold_ms)
      .metric("warm_ms", warm_ms)
      .metric("speedup_cold_vs_full", speedup_cold)
      .metric("speedup_warm_vs_full", speedup_warm)
      .metric("block_hits", counters.hits)
      .metric("block_misses", counters.misses)
      .metric("block_hit_rate", counters.hit_rate())
      .metric("bitwise_identical", identical)
      .write(std::cout);

  return (fast_enough && identical) ? EXIT_SUCCESS : EXIT_FAILURE;
}
