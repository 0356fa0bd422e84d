// E7 — automatic generation at scale: state count, generation time, and
// solve time as the redundancy depth N-K and the hierarchy width grow
// ("these states are all generated automatically in RAScad" — Section 4).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "cache/solve_cache.hpp"
#include "core/library.hpp"
#include "core/sweep.hpp"
#include "markov/absorbing.hpp"
#include "markov/steady_state.hpp"
#include "markov/transient.hpp"
#include "obs/bench_json.hpp"
#include "mg/generator.hpp"
#include "mg/system.hpp"
#include "spec/ast.hpp"
#include "spec/parser.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

rascad::spec::BlockSpec deep_block(unsigned n, unsigned k) {
  rascad::spec::BlockSpec b;
  b.name = "deep";
  b.quantity = n;
  b.min_quantity = k;
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
  return b;
}

/// The perfbench `deep_sweep` model at its nominal rates: a Type 4 block
/// of 48 disks (333 states), one of which must work, in series with a
/// controller.
std::string deep_sweep_model(double mtbf_h) {
  return R"(title = "Deep Storage"
globals {
  reboot_time = 6 min
  mttm = 24 h
  mttrfid = 4 h
  mission_time = 8760 h
}
diagram "Storage" {
  block "Disk Shelf" {
    quantity = 48  min_quantity = 1
    mtbf = )" + std::to_string(mtbf_h) + R"( h  transient_rate = 2000 fit
    mttr_corrective = 45 min  service_response = 4 h
    p_correct_diagnosis = 0.95
    p_latent_fault = 0.05  mttdlf = 48 h
    recovery = nontransparent  ar_time = 6 min
    p_spf = 0.01  t_spf = 30 min
    repair = nontransparent  reintegration_time = 8 min
  }
  block "Controller" {
    mtbf = 300000 h
    mttr_corrective = 60 min  service_response = 4 h
  }
}
)";
}

}  // namespace

int main(int argc, char** argv) {
  rascad::obs::JsonOnlyGuard json(argc, argv);
  rascad::spec::GlobalParams g;

  // Headline figures collected along the way for the final metrics line.
  std::size_t deep_max_states = 0;
  double deep_max_gen_ms = 0.0;
  double deep_max_solve_ms = 0.0;
  double deep_n2400_mttf_ms = 0.0;
  std::size_t wide_max_states = 0;
  double wide_max_ms = 0.0;
  std::uint64_t wide_cache_hits = 0;
  double web_shop_interval_ms = 0.0;
  double web_shop_reliability_ms = 0.0;
  double deep_n480_curve_ms = 0.0;
  std::size_t deep_n480_curve_dim = 0;
  double deep_n1440_solve_ms = 0.0;
  double deep_n48_sweep64_ms = 0.0;
  double deep_n48_generate_us = 0.0;
  double deep_n48_steady_us = 0.0;
  double deep_n48_steady_plan_ratio = 0.0;

  std::cout << "=== E7: generation + solution scalability ===\n\n";
  std::cout << "Type 4 block, K=1, growing N (redundancy depth N-1):\n";
  std::cout << std::right << std::setw(6) << "N" << std::setw(9) << "states"
            << std::setw(13) << "transitions" << std::setw(13) << "gen (ms)"
            << std::setw(13) << "solve (ms)" << std::setw(16)
            << "availability" << '\n';
  for (unsigned n : {2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const auto b = deep_block(n, 1);
    const auto t0 = Clock::now();
    const auto model = rascad::mg::generate(b, g);
    const double gen_ms = ms_since(t0);
    const auto t1 = Clock::now();
    const auto r = rascad::markov::solve_steady_state(model.chain);
    const double solve_ms = ms_since(t1);
    std::cout << std::setw(6) << n << std::setw(9) << model.chain.size()
              << std::setw(13) << model.chain.transition_count()
              << std::setw(13) << std::fixed << std::setprecision(3) << gen_ms
              << std::setw(13) << solve_ms << std::setw(16)
              << std::setprecision(10)
              << rascad::markov::expected_reward(model.chain, r.pi) << '\n';
    std::cout.unsetf(std::ios::fixed);
    deep_max_states = model.chain.size();
    deep_max_gen_ms = gen_ms;
    deep_max_solve_ms = solve_ms;
  }

  std::cout << "\nMTTF (down states absorbing) of a deeper block, in one "
               "checked episode\n(banded GTH, the same elimination as "
               "the stationary solve):\n";
  {
    const auto model = rascad::mg::generate(deep_block(2400, 1), g);
    rascad::markov::SolveTrace trace;
    const auto t0 = Clock::now();
    const double mttf =
        rascad::markov::mttf(model.chain, model.initial, {}, &trace);
    deep_n2400_mttf_ms = ms_since(t0);
    std::cout << "  N=2400, " << model.chain.size() << " states: "
              << std::fixed << std::setprecision(3) << deep_n2400_mttf_ms
              << " ms, MTTF " << std::setprecision(4) << mttf << " h, "
              << trace.summary() << '\n';
    std::cout.unsetf(std::ios::fixed);
  }

  std::cout << "\ntransient curves (one shift-and-invert Krylov basis per "
               "curve):\n";
  {
    // The mission-time interval availability and reliability of the
    // example web shop, the curve-sampling half of a cold `solve`. Cache
    // off, so every call samples all block curves; the median of 9 calls
    // of each is reported.
    std::ifstream in(RASCAD_EXAMPLES_DIR "/web_shop.rsc");
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    rascad::mg::SystemModel::Options opts;
    opts.cache = nullptr;
    const auto system = rascad::mg::SystemModel::build(
        rascad::spec::parse_model(text), opts);
    const double mission = system.spec().globals.mission_time_h;
    const auto median_of_9 = [](const auto& measure, double& value) {
      std::vector<double> samples;
      for (int rep = 0; rep < 9; ++rep) {
        const auto t0 = Clock::now();
        value = measure();
        samples.push_back(ms_since(t0));
      }
      std::sort(samples.begin(), samples.end());
      return samples[samples.size() / 2];
    };
    double value = 0.0;
    web_shop_interval_ms = median_of_9(
        [&] { return system.interval_availability(mission); }, value);
    std::cout << "  web_shop.rsc interval availability over " << mission
              << " h: " << std::fixed << std::setprecision(3)
              << web_shop_interval_ms << " ms (median of 9), A = "
              << std::setprecision(12) << value << '\n';
    web_shop_reliability_ms =
        median_of_9([&] { return system.reliability(mission); }, value);
    std::cout << "  web_shop.rsc reliability at " << std::setprecision(0)
              << mission << " h: " << std::setprecision(3)
              << web_shop_reliability_ms << " ms (median of 9), R = "
              << std::setprecision(12) << value << '\n';
    std::cout.unsetf(std::ios::fixed);

    const auto model = rascad::mg::generate(deep_block(480, 1), g);
    const auto pi0 =
        rascad::markov::point_mass(model.chain, model.initial);
    rascad::markov::TransientStats stats;
    const auto t0 = Clock::now();
    const auto curve = rascad::markov::reward_curve(model.chain, pi0, 8760.0,
                                                    256, {}, &stats);
    deep_n480_curve_ms = ms_since(t0);
    deep_n480_curve_dim = stats.krylov_dim;
    std::cout << "  N=480, " << model.chain.size()
              << " states, 256-step availability curve: " << std::fixed
              << std::setprecision(1) << deep_n480_curve_ms
              << " ms, Krylov dimension " << deep_n480_curve_dim
              << ", A(8760 h) = " << std::setprecision(12) << curve.back()
              << '\n';
    std::cout.unsetf(std::ios::fixed);
  }
  {
    // A one-block N=1440 `solve` (10,077 states), cache off: generation,
    // the steady solve, the interval availability and R(T).
    rascad::spec::ModelSpec spec;
    spec.title = "deep";
    rascad::spec::DiagramSpec d;
    d.name = "deep";
    d.blocks.push_back(deep_block(1440, 1));
    spec.diagrams.push_back(d);
    rascad::mg::SystemModel::Options opts;
    opts.cache = nullptr;
    const auto t0 = Clock::now();
    const auto system = rascad::mg::SystemModel::build(spec, opts);
    const double a = system.availability();
    const double ia = system.interval_availability(8760.0);
    const double r = system.reliability(8760.0);
    deep_n1440_solve_ms = ms_since(t0);
    std::cout << "  N=1440, " << system.total_states()
              << " states, one-block solve: " << std::fixed
              << std::setprecision(1) << deep_n1440_solve_ms << " ms, A = "
              << std::setprecision(12) << a << ", IA = " << ia
              << ", R(8760 h) = " << r << '\n';
    std::cout.unsetf(std::ios::fixed);
  }

  std::cout << "\nparametric sweep (64 MTBF points of the N=48 Type 4 "
               "block, one thread, no solve cache):\n";
  {
    // Every repeat sweeps a new range, so no point repeats a value; the
    // median of 9 is reported.
    rascad::core::SweepOptions opts;
    opts.parallel.threads = 1;
    opts.model.cache = nullptr;
    const auto mutate = [](rascad::spec::BlockSpec& b, double v) {
      b.mtbf_h = v;
    };
    std::vector<double> samples;
    rascad::core::SweepPoint first;
    for (int rep = 0; rep < 9; ++rep) {
      const double lo = 40'000.0 + 1'000.0 * rep;
      const auto spec = rascad::spec::parse_model(deep_sweep_model(lo));
      const auto t0 = Clock::now();
      const auto points = rascad::core::sweep_block_parameter(
          spec, "Storage", "Disk Shelf", mutate,
          rascad::core::linspace(lo, 2.0 * lo, 64), opts);
      samples.push_back(ms_since(t0));
      first = points.front();
    }
    std::sort(samples.begin(), samples.end());
    deep_n48_sweep64_ms = samples[samples.size() / 2];
    std::cout << "  " << std::fixed << std::setprecision(3)
              << deep_n48_sweep64_ms << " ms per sweep (median of 9), A("
              << std::setprecision(0) << first.value << " h) = "
              << std::setprecision(12) << first.availability << '\n';
    std::cout.unsetf(std::ios::fixed);
  }
  {
    // One sweep point's generation: the same block with a new MTBF each
    // call, after a first call has recorded its structure on this thread.
    const auto spec = rascad::spec::parse_model(deep_sweep_model(40'000.0));
    auto block = spec.diagrams.front().blocks.front();
    (void)rascad::mg::generate(block, spec.globals);
    std::vector<double> samples;
    std::size_t states = 0;
    for (int rep = 0; rep < 201; ++rep) {
      block.mtbf_h = 40'000.0 + 100.0 * rep;
      const auto t0 = Clock::now();
      const auto model = rascad::mg::generate(block, spec.globals);
      samples.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      states = model.chain.size();
    }
    std::sort(samples.begin(), samples.end());
    deep_n48_generate_us = samples[samples.size() / 2];
    std::cout << "  generation of one point's " << states << "-state chain: "
              << std::fixed << std::setprecision(2) << deep_n48_generate_us
              << " us (median of 201, structure known)\n";
    std::cout.unsetf(std::ios::fixed);
  }
  {
    // One sweep point's checked steady solve: the same block with a new
    // MTBF each call, after a first solve has planned its elimination on
    // this thread. Generation stays outside the clock. Each point is then
    // solved again after solves of the N=40..47 blocks, whose eight plans
    // fill the thread's eight slots, so that solve plans first. The share
    // of it the warm solve takes is a ratio of two times taken back to
    // back, which the host's speed does not move.
    const auto spec = rascad::spec::parse_model(deep_sweep_model(40'000.0));
    auto block = spec.diagrams.front().blocks.front();
    std::vector<rascad::markov::Ctmc> evict;
    for (unsigned less = 1; less <= 8; ++less) {
      auto other = block;
      other.quantity = block.quantity - less;
      evict.push_back(rascad::mg::generate(other, spec.globals).chain);
    }
    (void)rascad::markov::solve_steady_state(
        rascad::mg::generate(block, spec.globals).chain);
    const auto solve_us = [](const rascad::markov::Ctmc& chain) {
      const auto t0 = Clock::now();
      (void)rascad::markov::solve_steady_state(chain);
      return std::chrono::duration<double, std::micro>(Clock::now() - t0)
          .count();
    };
    std::vector<double> samples;
    std::vector<double> ratios;
    for (int rep = 0; rep < 201; ++rep) {
      block.mtbf_h = 40'000.0 + 100.0 * rep;
      const auto model = rascad::mg::generate(block, spec.globals);
      const double warm = solve_us(model.chain);
      for (const auto& chain : evict) {
        (void)rascad::markov::solve_steady_state(chain);
      }
      const double planning = solve_us(model.chain);
      samples.push_back(warm);
      ratios.push_back(warm / planning);
    }
    std::sort(samples.begin(), samples.end());
    std::sort(ratios.begin(), ratios.end());
    deep_n48_steady_us = samples[samples.size() / 2];
    deep_n48_steady_plan_ratio = ratios[ratios.size() / 2];
    std::cout << "  checked steady solve of one point: " << std::fixed
              << std::setprecision(2) << deep_n48_steady_us
              << " us (median of 201, elimination planned), "
              << std::setprecision(3) << deep_n48_steady_plan_ratio
              << " of a solve that plans it\n";
    std::cout.unsetf(std::ios::fixed);
  }

  std::cout << "\nhierarchy width: flat system of W copies of a Type 3 "
               "block (N=4, K=2):\n";
  std::cout << std::right << std::setw(8) << "width" << std::setw(14)
            << "total states" << std::setw(16) << "build+solve ms"
            << std::setw(16) << "availability" << '\n';
  for (unsigned width : {5u, 20u, 50u, 100u}) {
    rascad::spec::ModelSpec spec;
    spec.title = "wide";
    rascad::spec::DiagramSpec d;
    d.name = "wide";
    for (unsigned i = 0; i < width; ++i) {
      auto b = deep_block(4, 2);
      b.repair = rascad::spec::Transparency::kTransparent;
      b.reintegration_min = 0.0;
      b.name = "blk" + std::to_string(i);
      d.blocks.push_back(b);
    }
    spec.diagrams.push_back(d);
    // Fresh memo table per width: the W copies are parameter-identical, so
    // a shared/global cache would reduce every row to one real solve and
    // hide the scaling being measured. Per-width, the hit counter instead
    // shows the intra-model sharing (W - 1 hits).
    rascad::cache::SolveCache cache;
    rascad::mg::SystemModel::Options opts;
    opts.cache = &cache;
    const auto t0 = Clock::now();
    const auto system = rascad::mg::SystemModel::build(spec, opts);
    const double build_ms = ms_since(t0);
    std::cout << std::setw(8) << width << std::setw(14)
              << system.total_states() << std::setw(16) << std::fixed
              << std::setprecision(2) << build_ms << std::setw(16)
              << std::setprecision(8) << system.availability() << '\n';
    std::cout.unsetf(std::ios::fixed);
    wide_max_states = system.total_states();
    wide_max_ms = build_ms;
    wide_cache_hits = cache.block_counters().hits;
  }

  std::cout << "\nexpected shape: states grow linearly in N-K; generation is\n"
               "microseconds; the banded direct solve grows linearly too\n"
               "(the RCM bandwidth stays ~9 at every depth). The width\n"
               "table's identical copies collapse to one solve + W-1 memo\n"
               "hits when a solve cache is attached.\n";

  json.restore();
  rascad::obs::BenchMetricsLine("scalability")
      .metric("deep_n128_states", deep_max_states)
      .metric("deep_n128_gen_ms", deep_max_gen_ms)
      .metric("deep_n128_solve_ms", deep_max_solve_ms)
      .metric("deep_n2400_mttf_ms", deep_n2400_mttf_ms)
      .metric("wide_w100_states", wide_max_states)
      .metric("wide_w100_build_ms", wide_max_ms)
      .metric("wide_w100_cache_hits", wide_cache_hits)
      .metric("web_shop_interval_ms", web_shop_interval_ms)
      .metric("web_shop_reliability_ms", web_shop_reliability_ms)
      .metric("deep_n480_curve_ms", deep_n480_curve_ms)
      .metric("deep_n480_curve_dim", deep_n480_curve_dim)
      .metric("deep_n1440_solve_ms", deep_n1440_solve_ms)
      .metric("deep_n48_sweep64_ms", deep_n48_sweep64_ms)
      .metric("deep_n48_generate_us", deep_n48_generate_us)
      .metric("deep_n48_steady_us", deep_n48_steady_us)
      .metric("deep_n48_steady_plan_ratio", deep_n48_steady_plan_ratio)
      .write(std::cout);
  return 0;
}
