// Event-engine simulator gates: million-replication throughput, flat
// streaming memory, and bitwise determinism.
//
// Sections, two of them hard gates (nonzero exit on violation):
//
//   1. Flat memory (gate) and throughput (report). Peak RSS is sampled
//      after a 100k-replication streaming run and again after the
//      1M-replication run: the growth must stay under 32 MB, i.e.
//      streaming statistics hold O(batch) state no matter how many
//      replications flow through. (ru_maxrss is a monotone high-water
//      mark, so both samples are taken before any other section runs.)
//      The 1M-replication run also reports replications/sec and simulated
//      events/sec on the failure-heavy model; tools/check_bench.py gates
//      their trajectory.
//
//   2. Bitwise determinism (gate). The streaming fold must be bitwise
//      identical across thread counts {1, 2, 8}, including the P² marker
//      states (quantile values) and event counts. The engine's agreement
//      with an independent sort+merge union and its golden values are
//      ctest's job (sim_stream_test).
//
//   3. CI early exit (report only): a stop_when_ci_below run shows how
//      many replications a target half-width actually needs.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "obs/bench_json.hpp"
#include "sim/streaming.hpp"
#include "spec/parser.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using rascad::sim::StreamingOptions;
using rascad::sim::StreamingReplicationResult;

double sec_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak RSS in MB (Linux ru_maxrss is KB). Monotone: only meaningful as
/// a high-water mark, which is exactly how the flat-memory gate uses it.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Failure-heavy reference system: one year of mission time over four
/// blocks with few-thousand-hour MTBFs, so every replication schedules a
/// realistic handful of failure/repair/logistics events.
rascad::spec::ModelSpec bench_model() {
  return rascad::spec::parse_model(R"(
globals { reboot_time = 10 min mttm = 12 h mttrfid = 4 h mission_time = 8760 h }
diagram "Node" {
  block "Board" { mtbf = 3000 mttr_corrective = 120 service_response = 4
                  p_correct_diagnosis = 0.9 transient_rate = 60000 fit }
  block "PSU" {
    quantity = 2 min_quantity = 1 mtbf = 2000
    mttr_corrective = 60 service_response = 4
    recovery = transparent repair = transparent
  }
  block "IOB" {
    quantity = 2 min_quantity = 1 mtbf = 2500 transient_rate = 80000 fit
    mttr_corrective = 90 service_response = 4
    p_correct_diagnosis = 0.9 p_latent_fault = 0.1 mttdlf = 24
    recovery = nontransparent ar_time = 6 p_spf = 0.05 t_spf = 30
    repair = nontransparent reintegration_time = 10
  }
  block "Cluster" {
    quantity = 2 min_quantity = 1 mode = primary_standby mtbf = 3500
    transient_rate = 50000 fit mttr_corrective = 90 service_response = 4
    failover_time = 4 min p_failover = 0.95 t_spf = 45 min
    repair = transparent
  }
}
)");
}

constexpr double kHorizonH = 8760.0;
constexpr std::uint64_t kSeed = 20'260'807;

bool streaming_equal(const StreamingReplicationResult& a,
                     const StreamingReplicationResult& b) {
  return a.availability.mean() == b.availability.mean() &&
         a.availability.variance() == b.availability.variance() &&
         a.availability.min() == b.availability.min() &&
         a.availability.max() == b.availability.max() &&
         a.downtime_minutes.mean() == b.downtime_minutes.mean() &&
         a.outages.mean() == b.outages.mean() &&
         a.availability_p50.value() == b.availability_p50.value() &&
         a.availability_p99.value() == b.availability_p99.value() &&
         a.availability_p999.value() == b.availability_p999.value() &&
         a.outage_minutes_p50.value() == b.outage_minutes_p50.value() &&
         a.outage_minutes_p99.value() == b.outage_minutes_p99.value() &&
         a.events == b.events && a.completed == b.completed;
}

}  // namespace

int main(int argc, char** argv) {
  rascad::obs::JsonOnlyGuard json_guard(argc, argv);
  const auto model = bench_model();
  bool pass = true;

  std::cout << "== bench_sim: event-engine simulator gates ==\n\n";

  // Warm-up: fault the code paths and the thread pool in before any
  // timing or RSS sample.
  {
    StreamingOptions w;
    rascad::sim::replicate_system_streaming(model, kHorizonH, 1'000, kSeed, w);
  }

  // -- 1. Flat memory across a 10x replication jump ------------------------
  StreamingOptions sopts;
  rascad::sim::replicate_system_streaming(model, kHorizonH, 100'000, kSeed,
                                          sopts);
  const double rss_100k_mb = peak_rss_mb();

  const Clock::time_point t1m = Clock::now();
  const auto r1m = rascad::sim::replicate_system_streaming(
      model, kHorizonH, 1'000'000, kSeed, sopts);
  const double s1m = sec_since(t1m);
  const double rss_1m_mb = peak_rss_mb();
  const double rss_growth_mb = rss_1m_mb - rss_100k_mb;

  const double streaming_rps = static_cast<double>(r1m.completed) / s1m;
  const double events_per_sec = static_cast<double>(r1m.events) / s1m;

  std::cout << "streaming 1M replications: " << std::fixed
            << std::setprecision(2) << s1m << " s  ("
            << std::setprecision(0) << streaming_rps << " reps/s, "
            << events_per_sec << " events/s)\n";
  std::cout << std::setprecision(2) << "peak RSS after 100k: " << rss_100k_mb
            << " MB, after 1M: " << rss_1m_mb << " MB (growth "
            << rss_growth_mb << " MB)\n";
  std::cout << std::setprecision(7)
            << "availability mean=" << r1m.availability.mean()
            << " p50=" << r1m.availability_p50.value()
            << " p99=" << r1m.availability_p99.value()
            << " p999=" << r1m.availability_p999.value() << "\n";
  std::cout << std::setprecision(2)
            << "outage minutes p50=" << r1m.outage_minutes_p50.value()
            << " p99=" << r1m.outage_minutes_p99.value() << "\n\n";

  if (rss_growth_mb > 32.0) {
    std::cout << "FAIL: peak RSS grew " << rss_growth_mb
              << " MB from 100k to 1M replications (limit 32 MB)\n";
    pass = false;
  }

  // -- 2. Thread-count determinism of the streaming fold --------------------
  bool threads_bitwise = true;
  StreamingOptions base;
  base.batch = 1024;
  base.parallel.threads = 1;
  const auto ref = rascad::sim::replicate_system_streaming(
      model, kHorizonH, 20'000, kSeed, base);
  for (std::size_t threads : {2u, 8u}) {
    StreamingOptions t = base;
    t.parallel.threads = threads;
    const auto run = rascad::sim::replicate_system_streaming(
        model, kHorizonH, 20'000, kSeed, t);
    if (!streaming_equal(ref, run)) {
      std::cout << "FAIL: streaming statistics drift at " << threads
                << " threads\n";
      threads_bitwise = false;
      pass = false;
    }
  }
  std::cout << "streaming fold across 1/2/8 threads: "
            << (threads_bitwise ? "bitwise identical" : "DRIFT") << "\n";

  // -- 3. CI early exit (report) --------------------------------------------
  StreamingOptions ci;
  ci.stop_when_ci_below = 5e-5;
  const auto rci = rascad::sim::replicate_system_streaming(
      model, kHorizonH, 1'000'000, kSeed, ci);
  std::cout << "\nCI early exit at half-width 5e-5: " << rci.completed
            << " replications (half-width " << std::scientific
            << std::setprecision(2) << rci.ci_half_width() << ")\n";

  std::cout << "\n== bench_sim: " << (pass ? "PASS" : "FAIL") << " ==\n";

  json_guard.restore();
  rascad::obs::BenchMetricsLine line("sim");
  line.metric("replications", r1m.completed)
      .metric("streaming_sec", s1m)
      .metric("streaming_rps", streaming_rps)
      .metric("events_per_sec", events_per_sec)
      .metric("events", r1m.events)
      .metric("availability_mean", r1m.availability.mean())
      .metric("availability_p50", r1m.availability_p50.value())
      .metric("availability_p99", r1m.availability_p99.value())
      .metric("availability_p999", r1m.availability_p999.value())
      .metric("outage_min_p50", r1m.outage_minutes_p50.value())
      .metric("outage_min_p99", r1m.outage_minutes_p99.value())
      .metric("rss_100k_mb", rss_100k_mb)
      .metric("rss_1m_mb", rss_1m_mb)
      .metric("rss_growth_mb", rss_growth_mb)
      .metric("threads_bitwise", threads_bitwise)
      .metric("ci_early_exit_reps", rci.completed)
      .metric("pass", pass);
  line.write(std::cout);
  return pass ? EXIT_SUCCESS : EXIT_FAILURE;
}
