// E17 — the solve-service daemon under sustained concurrent load.
//
// An in-process rascad_serve Service answers requests from several
// concurrent client connections, all sharing ONE warm SolveCache:
//
//   oneshot  the CLI path: a 64-point Centerplane sweep built from
//            scratch, no daemon, no cache (bench_cache's "full" series)
//   cold     the same sweep as the daemon's first request (empty cache,
//            socket + chunk-streaming overhead included)
//   warm     median sweep-request latency once the shared cache is hot
//   solve    single-solve latency through the hot daemon, for scale
//   load     sustained req/sec with N concurrent clients hammering the
//            daemon (retry-after honored when the admission gate rejects)
//
// Tail latency (p50/p99) comes from the daemon's own serve.request_ms obs
// histogram — the same telemetry a production deployment would scrape.
// Exits nonzero if the warm-cache sweep request through the whole socket
// stack is slower than the one-shot CLI sweep: the daemon's reason to
// exist is that amortizing the shared cache beats re-solving, frame and
// streaming overhead included.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/library.hpp"
#include "core/sweep.hpp"
#include "mg/system.hpp"
#include "obs/bench_json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "spec/parser.hpp"
#include "spec/writer.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using rascad::serve::Client;
using rascad::serve::Reply;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr std::size_t kWarmProbes = 21;   // median of an odd count
constexpr std::size_t kSweepPoints = 64;  // bench_cache's workload size
constexpr std::size_t kSweepProbes = 5;
constexpr std::size_t kClients = 6;
constexpr std::size_t kRequestsPerClient = 25;

}  // namespace

int main(int argc, char** argv) {
  rascad::obs::JsonOnlyGuard json(argc, argv);
  // The daemon's histograms are the bench's measurement instrument.
  rascad::obs::set_enabled(true);
  rascad::obs::Registry::global().reset();
  rascad::obs::clear_trace();

  const std::string text = rascad::spec::to_rsc_string(
      rascad::core::library::datacenter_system());

  std::cout << "=== E17: solve-service daemon over the shared cache ===\n\n";

  // Reference availability for the bitwise checks (untimed).
  const double oneshot_avail =
      rascad::mg::SystemModel::build(rascad::spec::parse_model(text))
          .availability();

  // Baseline: the one-shot CLI path — the 64-point Centerplane Tresp
  // sweep built from scratch every point, no cache (median of a few
  // runs; first run also pays any process-wide lazy init). The memo is
  // off: the untimed build above has already filled the global one.
  const rascad::spec::ModelSpec model =
      rascad::core::library::datacenter_system();
  const std::vector<double> values =
      rascad::core::linspace(0.5, 24.0, kSweepPoints);
  rascad::mg::SystemModel::Options uncached;
  uncached.cache = nullptr;
  std::vector<double> oneshot_runs;
  for (std::size_t i = 0; i < kSweepProbes; ++i) {
    const auto t0 = Clock::now();
    for (const double v : values) {
      rascad::spec::ModelSpec point = model;
      point.find_block("Server Box", "Centerplane")->service_response_h = v;
      (void)rascad::mg::SystemModel::build(std::move(point), uncached);
    }
    oneshot_runs.push_back(ms_since(t0));
  }
  std::sort(oneshot_runs.begin(), oneshot_runs.end());
  const double oneshot_ms = oneshot_runs[oneshot_runs.size() / 2];

  rascad::serve::ServiceConfig cfg;
  cfg.socket_path =
      "/tmp/rascad_bench_serve_" + std::to_string(::getpid()) + ".sock";
  cfg.queue_capacity = 32;
  rascad::serve::Service service(cfg);
  service.start();

  // Cold: the daemon's first sweep request populates the shared cache.
  Client probe;
  probe.connect_retry(cfg.socket_path, 5000.0);
  auto t0 = Clock::now();
  const Reply cold = probe.sweep(text, "Server Box", "Centerplane",
                                 "service_response_h", 0.5, 24.0,
                                 kSweepPoints);
  const double cold_ms = ms_since(t0);
  if (!cold.ok()) {
    std::cerr << "FAIL: cold sweep errored: " << cold.text << '\n';
    return 1;
  }

  // Warm: median sweep-request latency on the hot cache — the gated
  // number. Same workload as the one-shot baseline, plus socket framing
  // and chunk streaming.
  std::vector<double> warm_runs;
  for (std::size_t i = 0; i < kSweepProbes; ++i) {
    t0 = Clock::now();
    const Reply r = probe.sweep(text, "Server Box", "Centerplane",
                                "service_response_h", 0.5, 24.0,
                                kSweepPoints);
    warm_runs.push_back(ms_since(t0));
    if (!r.ok() ||
        rascad::serve::reply_value(r.text, "completed") != kSweepPoints) {
      std::cerr << "FAIL: warm sweep errored: " << r.text << '\n';
      return 1;
    }
  }
  std::sort(warm_runs.begin(), warm_runs.end());
  const double warm_ms = warm_runs[warm_runs.size() / 2];

  // Single-solve latency through the hot daemon, for scale.
  const Reply first_solve = probe.solve(text);
  if (!first_solve.ok()) {
    std::cerr << "FAIL: solve errored: " << first_solve.text << '\n';
    return 1;
  }
  const double daemon_avail =
      rascad::serve::reply_value(first_solve.text, "availability");
  std::vector<double> solve_runs;
  for (std::size_t i = 0; i < kWarmProbes; ++i) {
    t0 = Clock::now();
    const Reply r = probe.solve(text);
    solve_runs.push_back(ms_since(t0));
    if (!r.ok()) {
      std::cerr << "FAIL: solve errored: " << r.text << '\n';
      return 1;
    }
  }
  std::sort(solve_runs.begin(), solve_runs.end());
  const double solve_ms = solve_runs[solve_runs.size() / 2];

  // Sustained concurrent load: every reply must carry the bitwise-same
  // availability (shared cache trades work, never accuracy). The load runs
  // in interleaved A/B rounds — plain, then the identical load under two
  // live `watch` telemetry streams ticking every 100 ms — and the gated
  // scrape cost is the MINIMUM over the per-round pairs. Sequential
  // phases would let a burstable CI host throttle mid-run and bill the
  // frequency swing to the scrapers; external noise can only inflate a
  // round's measured cost, so the cleanest round is the tightest upper
  // bound on the true cost (the same interleaving idiom bench_sim uses
  // for its engine comparison).
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> mismatch{false};
  const auto run_load = [&]() -> double {
    std::atomic<std::size_t> done{0};
    const auto start = Clock::now();
    {
      std::vector<std::thread> clients;
      clients.reserve(kClients);
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
          Client client;
          client.connect_retry(cfg.socket_path, 5000.0);
          for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
            const Reply reply = client.solve_retrying(text, 30000.0);
            if (!reply.ok() ||
                rascad::serve::reply_value(reply.text, "availability") !=
                    oneshot_avail) {
              mismatch.store(true);
              return;
            }
            done.fetch_add(1);
          }
        });
      }
      for (auto& t : clients) t.join();
    }
    const double ms = ms_since(start);
    completed.fetch_add(done.load());
    return ms > 0.0 ? 1000.0 * static_cast<double>(done.load()) / ms : 0.0;
  };

  constexpr int kRounds = 3;
  std::atomic<std::uint64_t> scrape_chunks{0};
  double req_per_sec = 0.0;
  double scraped_req_per_sec = 0.0;
  double scrape_cost_pct = std::numeric_limits<double>::infinity();
  double p50_ms = 0.0, p99_ms = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    const double plain = run_load();

    if (round == 0) {
      // Tail latency from the daemon's own request histogram, captured
      // before any scraper exists so p50/p99 keep describing the
      // uncontended load the baseline history recorded (the histogram is
      // cumulative). It is observed just after each terminal frame is
      // pushed, so give the last replies a moment to settle.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      for (const auto& h :
           rascad::obs::Registry::global().snapshot().histograms) {
        if (h.name == "serve.request_ms") {
          p50_ms = h.data.quantile_ms(0.50);
          p99_ms = h.data.quantile_ms(0.99);
        }
      }
    }

    // Scraped half of the round: two watch sessions stream incremental
    // telemetry chunks at 100 ms while the identical load repeats.
    // Scrapes are answered on reader/scraper threads and never take a
    // solver slot. Drop the trace backlog the plain half accumulated (a
    // first tick would serialize all of it in one giant chunk) and let
    // both scrapers take their baseline tick before the clock starts.
    rascad::obs::clear_trace();
    std::atomic<bool> scrape_stop{false};
    std::vector<std::thread> scrapers;
    for (int s = 0; s < 2; ++s) {
      scrapers.emplace_back([&] {
        Client scraper;
        scraper.connect_retry(cfg.socket_path, 5000.0);
        // Bounded watch calls back to back ≈ one continuous 100 ms
        // stream, with a clean client-side exit point between calls.
        while (!scrape_stop.load(std::memory_order_acquire)) {
          const Reply r = scraper.watch(100, 5, 0,
                                        [&scrape_chunks](std::string_view) {
                                          scrape_chunks.fetch_add(1);
                                        });
          if (!r.ok() &&
              r.status != rascad::robust::PointStatus::kCancelled) {
            return;
          }
        }
      });
    }
    const std::uint64_t chunks_before = scrape_chunks.load();
    while (scrape_chunks.load() < chunks_before + 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const double scraped = run_load();
    scrape_stop.store(true, std::memory_order_release);
    for (auto& t : scrapers) t.join();

    req_per_sec = std::max(req_per_sec, plain);
    scraped_req_per_sec = std::max(scraped_req_per_sec, scraped);
    const double cost =
        plain > 0.0 ? std::max(0.0, (plain - scraped) / plain * 100.0) : 0.0;
    scrape_cost_pct = std::min(scrape_cost_pct, cost);
  }
  const std::size_t kLoadRuns = 2 * kRounds;  // plain + scraped per round

  const auto stats = service.stats();
  service.stop();

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "  one-shot CLI sweep      : " << std::setw(8) << oneshot_ms
            << " ms  (" << kSweepPoints << " points, no cache)\n";
  std::cout << "  daemon sweep, cold      : " << std::setw(8) << cold_ms
            << " ms\n";
  std::cout << "  daemon sweep, warm      : " << std::setw(8) << warm_ms
            << " ms  (" << (warm_ms > 0.0 ? oneshot_ms / warm_ms : 0.0)
            << "x vs one-shot)\n";
  std::cout << "  daemon solve, warm      : " << std::setw(8) << solve_ms
            << " ms\n";
  std::cout << "  sustained load          : " << std::setw(8) << req_per_sec
            << " req/s  (" << kClients << " clients x "
            << kRequestsPerClient << " requests)\n";
  std::cout << "  under 2 watch scrapers  : " << std::setw(8)
            << scraped_req_per_sec << " req/s  (100 ms ticks, "
            << scrape_chunks.load() << " chunks, cost "
            << scrape_cost_pct << "%)\n";
  std::cout << "  request latency p50/p99 : " << p50_ms << " / " << p99_ms
            << " ms (serve.request_ms histogram)\n";
  std::cout << "  admission               : " << stats.accepted
            << " accepted, " << stats.rejected << " rejected, "
            << stats.failed << " failed\n";
  std::cout << "  shared block cache      : " << stats.cache_blocks.hits
            << " hits / " << stats.cache_blocks.misses << " misses (hit rate "
            << std::setprecision(3) << stats.cache_blocks.hit_rate() << ")\n";
  std::cout.unsetf(std::ios::fixed);

  bool ok = true;
  if (mismatch.load() || daemon_avail != oneshot_avail) {
    std::cout << "FAIL: daemon availability differs bitwise from the "
                 "one-shot path\n";
    ok = false;
  }
  if (completed.load() != kLoadRuns * kClients * kRequestsPerClient) {
    std::cout << "FAIL: only " << completed.load() << "/"
              << kLoadRuns * kClients * kRequestsPerClient
              << " load requests ok\n";
    ok = false;
  }
  if (scrape_chunks.load() == 0) {
    std::cout << "FAIL: the watch scrapers never received a chunk\n";
    ok = false;
  }
  if (scrape_cost_pct >= 2.0) {
    std::cout << "FAIL: two 100 ms watch scrapers cost " << scrape_cost_pct
              << "% throughput (budget 2%)\n";
    ok = false;
  }
  if (stats.cache_blocks.hits == 0) {
    std::cout << "FAIL: sustained load never hit the shared cache\n";
    ok = false;
  }
  if (warm_ms >= oneshot_ms) {
    std::cout << "FAIL: warm-cache sweep request (" << warm_ms
              << " ms) slower than the one-shot CLI sweep (" << oneshot_ms
              << " ms)\n";
    ok = false;
  }
  std::cout << (ok ? "\nOK\n" : "\nFAILED\n") << '\n';

  json.restore();
  rascad::obs::BenchMetricsLine("serve")
      .metric("sweep_points", kSweepPoints)
      .metric("oneshot_sweep_ms", oneshot_ms)
      .metric("cold_sweep_ms", cold_ms)
      .metric("warm_sweep_ms", warm_ms)
      .metric("warm_speedup", warm_ms > 0.0 ? oneshot_ms / warm_ms : 0.0)
      .metric("warm_solve_ms", solve_ms)
      .metric("req_per_sec", req_per_sec)
      .metric("scraped_req_per_sec", scraped_req_per_sec)
      .metric("scrape_cost_pct", scrape_cost_pct)
      .metric("scrape_chunks", scrape_chunks.load())
      .metric("p50_ms", p50_ms)
      .metric("p99_ms", p99_ms)
      .metric("clients", kClients)
      .metric("requests", kLoadRuns * kClients * kRequestsPerClient)
      .metric("accepted", stats.accepted)
      .metric("rejected", stats.rejected)
      .metric("cache_hits", stats.cache_blocks.hits)
      .metric("cache_hit_rate", stats.cache_blocks.hit_rate())
      .metric("ok", ok)
      .write(std::cout);
  return ok ? 0 : 1;
}
