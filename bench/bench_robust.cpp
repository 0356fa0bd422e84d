// Robustness-layer gates: cancellation/deadline cost and behaviour.
//
// Three sections, two of them hard gates (nonzero exit on violation):
//
//   1. Healthy-path overhead (< 2%) and bitwise identity (gate). The
//      overhead is measured where the polls actually live: the GTH solve of
//      a generated Type 4 block of ~50k states, run once with no token (the
//      pre-robust configuration) and once under a far-future deadline
//      token. The gate is estimate-based like bench_obs — measured cost of
//      one armed-token poll x a generous overcount of the polls the
//      workload executes (eliminated states / checkpoint cadence, plus
//      episode checks), as a fraction of the baseline solve time;
//      wall-clock deltas of ms-scale workloads are scheduler noise. Bitwise
//      identity is checked on both the solve (pi, residual) and a full
//      token-threaded sweep series, because a checkpoint may only ever
//      throw, never perturb arithmetic.
//
//   2. Graceful degradation under a deadline (gate). A 64-point
//      single-threaded sweep runs with a stall hook on the post-solve test
//      seam (each fresh solve sleeps 2 ms, ignoring its token, then
//      succeeds) under a
//      request deadline sized so only a prefix of the points can finish.
//      The gate: at least one point completes, at least one does not, the
//      completed points form a prefix, and every unfinished point reports
//      kDeadlineExceeded.
//
//   3. Cancellation latency (report only): ~20 episodes of a GTH solve on
//      an 80 x 80 grid chain, cancelled from another thread; p99 of the
//      checkpoint-observed latency lands in the JSON metrics line. The
//      grid's RCM band is ~80 wide, so the polled elimination is nearly
//      all of a ~20 ms solve: a cancel lands inside it even when the
//      canceller's 2 ms sleep overshoots by several milliseconds, which it
//      does on busy hosts. (On the Type 4 block above, the elimination is
//      only about half of a 5 ms episode.) One uncancelled solve runs
//      first: the first solve of a pattern computes its RCM order and
//      touches a fresh 8 MB band, whose page faults delay the first
//      checkpoint by 1-3 ms, a one-off cost the cadence metric leaves out.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/solve_cache.hpp"
#include "core/library.hpp"
#include "core/sweep.hpp"
#include "mg/generator.hpp"
#include "mg/system.hpp"
#include "markov/health.hpp"
#include "markov/steady_state.hpp"
#include "obs/bench_json.hpp"
#include "robust/cancel.hpp"
#include "robust/solve_error.hpp"
#include "spec/ast.hpp"
#include "fault_seam.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using rascad::robust::CancelToken;
using rascad::robust::PointStatus;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr std::size_t kOverheadPoints = 32;

/// A generated Type 4 block of N = 7200 disks, one of which must work
/// (~50k states, RCM bandwidth 9): a GTH solve of tens of milliseconds
/// that passes a cancellation checkpoint every 64 eliminated states.
rascad::markov::Ctmc large_type4_chain() {
  rascad::spec::BlockSpec b;
  b.name = "deep";
  b.quantity = 7200;
  b.min_quantity = 1;
  b.mtbf_h = 100'000.0;
  b.transient_fit = 2'000.0;
  b.mttr_diagnosis_min = 15.0;
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
  g.reboot_time_h = 10.0 / 60.0;
  g.mttm_h = 48.0;
  g.mttrfid_h = 4.0;
  return rascad::mg::generate(b, g).chain;
}

/// A rows x cols grid availability chain (moves right/down at rate 1,
/// back at rate 2). Its RCM band is about `rows` wide, so the elimination
/// costs O(cols rows^3) and dominates the O(cols rows^2) setup and
/// back-substitution.
rascad::markov::Ctmc grid_chain(std::size_t rows, std::size_t cols) {
  rascad::markov::CtmcBuilder b;
  for (std::size_t i = 0; i < rows * cols; ++i) {
    b.add_state("g" + std::to_string(i), (i / cols + i % cols) % 2 ? 0.0 : 1.0);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t at = r * cols + c;
      if (c + 1 < cols) {
        b.add_transition(at, at + 1, 1.0);
        b.add_transition(at + 1, at, 2.0);
      }
      if (r + 1 < rows) {
        b.add_transition(at, at + cols, 1.0);
        b.add_transition(at + cols, at, 2.0);
      }
    }
  }
  return b.build();
}

/// The sweep workload: an incremental single-threaded MTBF sweep of the
/// Entry Server model against a fresh memo cache. `cancel` is inert for
/// the baseline run and a never-firing deadline token for the token run.
std::vector<rascad::core::SweepPoint> overhead_sweep(
    const rascad::spec::ModelSpec& spec, const CancelToken& cancel,
    double* out_ms) {
  rascad::cache::SolveCache cache;
  rascad::core::SweepOptions opts;
  opts.parallel.threads = 1;
  opts.parallel.cancel = cancel;
  opts.model.parallel.threads = 1;
  opts.model.cache = &cache;
  const auto t0 = Clock::now();
  auto points = rascad::core::sweep_block_parameter(
      spec, "Entry Server", "Boot Disk",
      [](rascad::spec::BlockSpec& b, double v) { b.mtbf_h = v; },
      rascad::core::linspace(1e5, 4e5, kOverheadPoints), opts);
  *out_ms = ms_since(t0);
  return points;
}

bool bitwise_equal(const std::vector<rascad::core::SweepPoint>& a,
                   const std::vector<rascad::core::SweepPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].value != b[i].value || a[i].availability != b[i].availability ||
        a[i].yearly_downtime_min != b[i].yearly_downtime_min ||
        a[i].eq_failure_rate != b[i].eq_failure_rate ||
        a[i].fresh_blocks != b[i].fresh_blocks ||
        a[i].cached_blocks != b[i].cached_blocks ||
        a[i].reused_blocks != b[i].reused_blocks) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  rascad::obs::JsonOnlyGuard json_guard(argc, argv);
  const rascad::spec::ModelSpec spec = rascad::core::library::entry_server();

  std::cout << "=== robust: cancellation & deadline gates ===\n\n";

  // --- 1. healthy-path overhead + bitwise identity ----------------------
  // A deadline ~12 days out: the token is fully armed (every poll takes the
  // deadline-check path, the most expensive healthy case) but never fires.
  const CancelToken far_deadline = CancelToken::with_deadline_ms(1e9);

  // The overhead workload: a GTH solve of ~50k states with a cancellation
  // checkpoint every 64 eliminated states.
  const rascad::markov::Ctmc large = large_type4_chain();
  double baseline_ms = 0.0;
  rascad::markov::SteadyStateResult base_solve;
  for (int run = 0; run < 3; ++run) {  // best of 3 against scheduler noise
    const auto t0 = Clock::now();
    base_solve = rascad::markov::solve_steady_state(large);
    const double ms = ms_since(t0);
    if (run == 0 || ms < baseline_ms) baseline_ms = ms;
  }
  const auto t1 = Clock::now();
  const rascad::markov::SteadyStateResult token_solve =
      rascad::markov::solve_steady_state(large, far_deadline);
  const double token_ms = ms_since(t1);

  bool identical = base_solve.residual == token_solve.residual &&
                   base_solve.pi.size() == token_solve.pi.size();
  for (std::size_t i = 0; identical && i < base_solve.pi.size(); ++i) {
    identical = base_solve.pi[i] == token_solve.pi[i];
  }

  // The same token threaded through a full sweep (build + solve + memo
  // cache) must also leave the series untouched.
  double sweep_base_ms = 0.0;
  double sweep_token_ms = 0.0;
  const auto sweep_base = overhead_sweep(spec, CancelToken{}, &sweep_base_ms);
  const auto sweep_token = overhead_sweep(spec, far_deadline, &sweep_token_ms);
  identical = identical && bitwise_equal(sweep_base, sweep_token);
  bool statuses_ok = true;
  for (const auto& p : sweep_token) statuses_ok = statuses_ok && p.ok();

  // Measured cost of ONE poll on an armed deadline token (includes the
  // monotonic clock read — the worst healthy-path checkpoint).
  constexpr std::uint64_t kProbes = 1u << 21;
  const auto p0 = Clock::now();
  bool fired = false;
  for (std::uint64_t i = 0; i < kProbes; ++i) {
    fired = fired || far_deadline.stop_requested();
  }
  const double per_poll_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - p0)
                              .count()) /
      static_cast<double>(kProbes);

  // Generous poll overcount: one poll per 64 eliminated states (the
  // checkpoint cadence, rounded up) plus 16 for episode/watchdog checks
  // around the solve (the actual count is ~2).
  const std::uint64_t polls = large.size() / 64 + 17;
  const double overhead_ms = static_cast<double>(polls) * per_poll_ns * 1e-6;
  const double overhead_pct =
      baseline_ms > 0.0 ? overhead_ms / baseline_ms * 100.0 : 0.0;
  const bool under_budget = overhead_pct < 2.0;

  std::cout << std::fixed << std::setprecision(3);
  std::cout << "  baseline solve (no token): " << baseline_ms << " ms ("
            << large.size() << " states)\n";
  std::cout << "  solve under armed token  : " << token_ms << " ms\n";
  std::cout << "  cost per token poll      : " << per_poll_ns << " ns\n";
  std::cout << "  polls (overcount)        : " << polls << "\n";
  std::cout << "  estimated overhead       : " << overhead_pct
            << " % (budget 2%)\n";
  std::cout.unsetf(std::ios::fixed);
  std::cout << "  solve + sweep bitwise identical : "
            << (identical ? "yes" : "NO") << "\n\n";

  // --- 2. deadline-bounded sweep returns a completed prefix -------------
  constexpr std::size_t kDeadlinePoints = 64;
  rascad::cache::SolveCache deadline_cache;
  rascad::mg::SystemModel::Options warm_opts;
  // Every fresh solve stalls 2 ms without polling its token and then
  // succeeds, charging real wall-clock against the request deadline.
  std::optional<rascad::markov::ScopedPostSolveHook> stall(
      std::in_place, rascad::testing::stall_hook(2.0));
  warm_opts.cache = &deadline_cache;
  warm_opts.parallel.threads = 1;
  // Warm the memo cache so the sweep's baseline build is cheap and every
  // point costs about one stalled solve: the prefix length then
  // tracks the deadline instead of the first point swallowing it whole.
  (void)rascad::mg::SystemModel::build(spec, warm_opts);

  rascad::core::SweepOptions dopts;
  dopts.parallel.threads = 1;
  dopts.parallel.cancel = CancelToken::with_deadline_ms(40.0);
  dopts.model = warm_opts;
  const auto d0 = Clock::now();
  const std::vector<rascad::core::SweepPoint> degraded =
      rascad::core::sweep_block_parameter(
          spec, "Entry Server", "Boot Disk",
          [](rascad::spec::BlockSpec& b, double v) { b.mtbf_h = v; },
          rascad::core::linspace(1e5, 4e5, kDeadlinePoints), dopts);
  const double degraded_ms = ms_since(d0);
  stall.reset();

  std::size_t ok_points = 0;
  bool prefix = true;
  bool statuses_deadline = true;
  bool seen_bad = false;
  for (const auto& p : degraded) {
    if (p.ok()) {
      ++ok_points;
      if (seen_bad) prefix = false;  // a completed point after a missing one
    } else {
      seen_bad = true;
      statuses_deadline =
          statuses_deadline && p.status == PointStatus::kDeadlineExceeded;
    }
  }
  const bool degrade_gate = ok_points >= 1 && ok_points < kDeadlinePoints &&
                            prefix && statuses_deadline;

  std::cout << std::fixed << std::setprecision(3);
  std::cout << "  deadline-bounded sweep   : " << degraded_ms << " ms for "
            << ok_points << "/" << kDeadlinePoints << " points (40 ms "
            << "budget)\n";
  std::cout.unsetf(std::ios::fixed);
  std::cout << "  completed points form a prefix: " << (prefix ? "yes" : "NO")
            << ", unfinished all deadline-exceeded: "
            << (statuses_deadline ? "yes" : "NO") << "\n\n";

  // --- 3. cancellation latency (report only) ----------------------------
  const rascad::markov::Ctmc grid = grid_chain(80, 80);
  (void)rascad::markov::solve_steady_state(grid);
  std::vector<double> latencies;
  for (int episode = 0; episode < 20; ++episode) {
    const CancelToken token = CancelToken::manual();
    std::thread canceller([&token] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      token.request_cancel();
    });
    bool cancelled = false;
    try {
      (void)rascad::markov::solve_steady_state(grid, token);
    } catch (const rascad::robust::SolveError&) {
      cancelled = true;
    }
    canceller.join();
    const double latency = token.observed_latency_ms();
    if (cancelled && latency >= 0.0) latencies.push_back(latency);
  }
  double p99 = 0.0;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    const std::size_t idx =
        (latencies.size() * 99 + 99) / 100 - 1;  // ceil(0.99 n) - 1
    p99 = latencies[std::min(idx, latencies.size() - 1)];
  }
  std::cout << std::fixed << std::setprecision(3);
  std::cout << "  cancellation latency     : p99 " << p99 << " ms over "
            << latencies.size() << " episodes\n\n";
  std::cout.unsetf(std::ios::fixed);

  if (!under_budget) {
    std::cout << "FAIL: healthy-path overhead estimate above the 2% budget\n";
  }
  if (!identical || !statuses_ok) {
    std::cout << "FAIL: armed-but-unfired token changed the sweep series\n";
  }
  if (!degrade_gate) {
    std::cout << "FAIL: deadline-bounded sweep did not degrade to a "
                 "completed prefix with kDeadlineExceeded provenance\n";
  }

  json_guard.restore();
  rascad::obs::BenchMetricsLine("robust")
      .metric("baseline_solve_ms", baseline_ms)
      .metric("token_solve_ms", token_ms)
      .metric("solve_states", large.size())
      .metric("baseline_sweep_ms", sweep_base_ms)
      .metric("token_sweep_ms", sweep_token_ms)
      .metric("ns_per_poll", per_poll_ns)
      .metric("polls", polls)
      .metric("overhead_pct", overhead_pct)
      .metric("bitwise_identical", identical && statuses_ok)
      .metric("deadline_ok_points", ok_points)
      .metric("deadline_total_points", kDeadlinePoints)
      .metric("prefix_ok", prefix)
      .metric("p99_cancel_latency_ms", p99)
      .metric("cancel_episodes", latencies.size())
      .write(std::cout);

  const bool pass =
      under_budget && identical && statuses_ok && degrade_gate;
  return pass ? EXIT_SUCCESS : EXIT_FAILURE;
}
