// Parallel-execution scaling: the embarrassingly parallel batch paths
// (parameter sweeps, Monte-Carlo replications) timed serial vs
// multi-threaded, with a bit-identical-results check
// across thread counts {1, 2, 8}. Speedups track the machine's core
// count; on a single-core box every configuration degenerates to ~1x
// while the determinism checks still run.
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <vector>

#include "core/library.hpp"
#include "core/sweep.hpp"
#include "exec/parallel.hpp"
#include "mg/generator.hpp"
#include "obs/bench_json.hpp"
#include "sim/chain_sim.hpp"

namespace {

using Clock = std::chrono::steady_clock;

rascad::exec::ParallelOptions threads(std::size_t n) {
  rascad::exec::ParallelOptions opts;
  opts.threads = n;
  return opts;
}

template <typename Fn>
double time_ms(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void print_row(const char* name, double serial_ms, double t2_ms,
               double t8_ms) {
  std::cout << "  " << std::left << std::setw(26) << name << std::right
            << std::fixed << std::setprecision(1) << std::setw(10) << serial_ms
            << std::setw(10) << t2_ms << std::setw(10) << t8_ms
            << std::setprecision(2) << std::setw(9) << serial_ms / t2_ms << 'x'
            << std::setw(9) << serial_ms / t8_ms << 'x' << '\n';
  std::cout.unsetf(std::ios::fixed);
}

bool same_series(const std::vector<rascad::core::SweepPoint>& a,
                 const std::vector<rascad::core::SweepPoint>& b) {
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

bool same_stats(const rascad::sim::SampleStats& a,
                const rascad::sim::SampleStats& b) {
  return a.count() == b.count() && a.mean() == b.mean() &&
         a.variance() == b.variance() && a.min() == b.min() &&
         a.max() == b.max();
}

}  // namespace

int main() {
  std::cout << "=== parallel execution scaling ===\n";
  std::cout << "hardware threads: " << rascad::exec::hardware_thread_count()
            << ", default threads: " << rascad::exec::default_thread_count()
            << "\n\n";
  std::cout << "  " << std::left << std::setw(26) << "workload" << std::right
            << std::setw(10) << "t=1 (ms)" << std::setw(10) << "t=2 (ms)"
            << std::setw(10) << "t=8 (ms)" << std::setw(10) << "speedup2"
            << std::setw(10) << "speedup8" << '\n';

  bool identical = true;
  // Headline serial/8-thread timings per workload for the metrics line.
  double sweep_ms1 = 0.0, sweep_ms8 = 0.0;
  double sim_ms1 = 0.0, sim_ms8 = 0.0;

  // --- 64-point sweep over the midrange-server library model ------------
  {
    const auto base = rascad::core::library::midrange_server();
    const auto values = rascad::core::logspace(50'000.0, 2'000'000.0, 64);
    const auto mutate = [](rascad::spec::BlockSpec& b, double v) {
      b.mtbf_h = v;
    };
    const auto run = [&](std::size_t t) {
      return rascad::core::sweep_block_parameter(
          base, "Midrange Server", "CPU Module", mutate, values, threads(t));
    };
    std::vector<rascad::core::SweepPoint> s1, s2, s8;
    const double ms1 = time_ms([&] { s1 = run(1); });
    const double ms2 = time_ms([&] { s2 = run(2); });
    const double ms8 = time_ms([&] { s8 = run(8); });
    identical = identical && same_series(s1, s2) && same_series(s1, s8);
    print_row("64-point sweep", ms1, ms2, ms8);
    sweep_ms1 = ms1;
    sweep_ms8 = ms8;
  }

  // --- 1000-replication chain simulation --------------------------------
  {
    rascad::spec::BlockSpec block;
    block.name = "Board";
    block.quantity = 2;
    block.min_quantity = 1;
    block.mtbf_h = 2'000.0;
    block.mttr_corrective_min = 60.0;
    block.service_response_h = 4.0;
    block.recovery = rascad::spec::Transparency::kTransparent;
    block.repair = rascad::spec::Transparency::kTransparent;
    rascad::spec::GlobalParams globals;
    globals.reboot_time_h = 10.0 / 60.0;
    globals.mttm_h = 12.0;
    globals.mttrfid_h = 4.0;
    globals.mission_time_h = 8760.0;
    const auto model = rascad::mg::generate(block, globals);
    const auto run = [&](std::size_t t) {
      return rascad::sim::replicate_chain_availability(
          model.chain, model.initial, 50'000.0, 1000, 42, threads(t));
    };
    rascad::sim::SampleStats r1, r2, r8;
    const double ms1 = time_ms([&] { r1 = run(1); });
    const double ms2 = time_ms([&] { r2 = run(2); });
    const double ms8 = time_ms([&] { r8 = run(8); });
    identical = identical && same_stats(r1, r2) && same_stats(r1, r8);
    print_row("1000-rep simulation", ms1, ms2, ms8);
    sim_ms1 = ms1;
    sim_ms8 = ms8;
  }

  std::cout << "\nresults bit-identical across thread counts {1, 2, 8}: "
            << (identical ? "yes" : "NO — DETERMINISM VIOLATION") << '\n';

  rascad::obs::BenchMetricsLine("parallel")
      .metric("hardware_threads", rascad::exec::hardware_thread_count())
      .metric("sweep_ms_t1", sweep_ms1)
      .metric("sweep_ms_t8", sweep_ms8)
      .metric("sim_ms_t1", sim_ms1)
      .metric("sim_ms_t8", sim_ms8)
      .metric("bitwise_identical", identical)
      .write(std::cout);
  return identical ? EXIT_SUCCESS : EXIT_FAILURE;
}
