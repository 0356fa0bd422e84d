// Tests for the event-engine simulator and the streaming statistics layer:
// P² quantile accuracy against exact sorted-sample quantiles, the event
// engine against a sort+merge union of independently simulated block
// windows, golden values, thread-count and batch-size determinism of the
// streaming fold, CI early exit, cancellation degradation, and the async
// JSONL replication sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/library.hpp"
#include "sim/block_sim.hpp"
#include "sim/rng.hpp"
#include "sim/sink.hpp"
#include "sim/stats.hpp"
#include "sim/streaming.hpp"
#include "sim/system_sim.hpp"
#include "spec/parser.hpp"

namespace {

using rascad::sim::BlockSimOptions;
using rascad::sim::P2Quantile;
using rascad::sim::SampleStats;
using rascad::sim::StreamingOptions;
using rascad::sim::SystemSimResult;
using rascad::sim::Xoshiro256;

// ---- SampleStats empty extremes (regression) ------------------------------

TEST(Stats, EmptyMinMaxIsNaN) {
  // Regression: an empty accumulator used to report min()/max() of 0.0,
  // indistinguishable from a genuinely observed extreme of 0.
  SampleStats s;
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  s.add(-3.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), -3.0);
}

// ---- P² quantile estimator -------------------------------------------------

double exact_quantile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= xs.size()) idx = xs.size() - 1;
  return xs[idx];
}

void expect_p2_tracks(const std::vector<double>& xs, double p, double tol,
                      const char* what) {
  P2Quantile est(p);
  for (double x : xs) est.add(x);
  const double exact = exact_quantile(xs, p);
  EXPECT_NEAR(est.value(), exact, tol)
      << what << " p=" << p << ": P2 " << est.value() << " vs exact " << exact;
}

TEST(P2Quantile, EmptyIsNaNAndSmallSamplesAreExact) {
  P2Quantile est(0.5);
  EXPECT_TRUE(std::isnan(est.value()));
  est.add(5.0);
  EXPECT_DOUBLE_EQ(est.value(), 5.0);  // one sample: every quantile is it
  est.add(1.0);
  est.add(3.0);
  // Three samples {1,3,5}: nearest-rank median is the 2nd order statistic.
  EXPECT_DOUBLE_EQ(est.value(), 3.0);
  EXPECT_EQ(est.count(), 3u);

  P2Quantile p99(0.99);
  for (double x : {4.0, 2.0, 8.0, 6.0}) p99.add(x);
  EXPECT_DOUBLE_EQ(p99.value(), 8.0);  // nearest-rank on 4 samples
}

TEST(P2Quantile, RejectsDegenerateProbability) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(-0.5), std::invalid_argument);
}

TEST(P2Quantile, TracksUniform) {
  Xoshiro256 rng(101);
  std::vector<double> xs(20'000);
  for (double& x : xs) x = rng.uniform01();
  expect_p2_tracks(xs, 0.50, 0.01, "uniform");
  expect_p2_tracks(xs, 0.99, 0.01, "uniform");
  expect_p2_tracks(xs, 0.999, 0.005, "uniform");
}

TEST(P2Quantile, TracksExponential) {
  Xoshiro256 rng(202);
  std::vector<double> xs(20'000);
  for (double& x : xs) x = -std::log(rng.uniform01());
  expect_p2_tracks(xs, 0.50, 0.05, "exponential");
  expect_p2_tracks(xs, 0.99, 0.30, "exponential");
  expect_p2_tracks(xs, 0.999, 1.50, "exponential");
}

TEST(P2Quantile, TracksBimodal) {
  // Half U(0,1), half U(9,10): quantiles inside either mode must land in
  // the right mode despite the 8-wide density gap.
  Xoshiro256 rng(303);
  std::vector<double> xs(20'000);
  for (double& x : xs) {
    x = rng.uniform01() < 0.5 ? rng.uniform01() : 9.0 + rng.uniform01();
  }
  expect_p2_tracks(xs, 0.25, 0.10, "bimodal");
  expect_p2_tracks(xs, 0.90, 0.15, "bimodal");
  expect_p2_tracks(xs, 0.999, 0.05, "bimodal");
}

TEST(P2Quantile, OrderIsDeterministic) {
  // The estimator is a pure function of the sample order: same order, same
  // marker state — the property the index-ordered streaming fold relies on.
  Xoshiro256 rng(7);
  P2Quantile a(0.99);
  P2Quantile b(0.99);
  std::vector<double> xs(5'000);
  for (double& x : xs) x = rng.uniform01();
  for (double x : xs) a.add(x);
  for (double x : xs) b.add(x);
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.count(), b.count());
}

// ---- Event engine ------------------------------------------------------------

rascad::spec::ModelSpec test_model() {
  return rascad::spec::parse_model(R"(
globals { reboot_time = 10 min mttm = 12 h mttrfid = 4 h mission_time = 8760 h }
diagram "Sys" {
  block "A" { mtbf = 4000 mttr_corrective = 120 service_response = 4 }
  block "B" {
    quantity = 2 min_quantity = 1 mtbf = 3000
    mttr_corrective = 60 service_response = 4
    recovery = transparent repair = transparent
  }
  block "C" {
    quantity = 2 min_quantity = 1 mtbf = 2500 transient_rate = 80000 fit
    mttr_corrective = 90 service_response = 4
    p_correct_diagnosis = 0.9 p_latent_fault = 0.1 mttdlf = 24
    recovery = nontransparent ar_time = 6 p_spf = 0.05 t_spf = 30
    repair = nontransparent reintegration_time = 10
  }
}
)");
}

TEST(EventEngine, MatchesSortMergeUnionOfBlockWindows) {
  // Oracle: simulate each block on its own stream, materialize its down
  // windows, and take their union by sort+merge. The heap-scheduled sweep
  // must produce the same downtime to the bit and the same tallies.
  const auto model = test_model();
  const double horizon = 50'000.0;
  const std::vector<double> shocks{500.0, 12'000.0, 30'000.0, 44'000.0};
  BlockSimOptions exponential;
  BlockSimOptions lognormal;
  lognormal.exponential_everything = false;
  lognormal.repair_cv = 0.4;
  BlockSimOptions common_cause;
  common_cause.common_cause_times = &shocks;
  common_cause.p_common_cause = 0.5;

  const auto blocks = rascad::sim::collect_failing_blocks(model);
  ASSERT_EQ(blocks.size(), 3u);
  for (const BlockSimOptions* opts : {&exponential, &lognormal, &common_cause}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      std::vector<rascad::sim::Interval> windows;
      SystemSimResult oracle;
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        Xoshiro256 rng(seed, i + 1);
        const auto b = rascad::sim::simulate_block(*blocks[i], model.globals,
                                                   horizon, rng, *opts);
        windows.insert(windows.end(), b.down_intervals.begin(),
                       b.down_intervals.end());
        oracle.events += b.events;
        oracle.permanent_faults += b.permanent_faults;
        oracle.transient_faults += b.transient_faults;
        oracle.service_errors += b.service_errors;
      }
      const auto sys = rascad::sim::simulate_system(model, horizon, seed, *opts);
      EXPECT_EQ(sys.down_time, rascad::sim::merged_length(windows))
          << "seed " << seed;
      EXPECT_EQ(sys.events, oracle.events) << "seed " << seed;
      EXPECT_EQ(sys.permanent_faults, oracle.permanent_faults)
          << "seed " << seed;
      EXPECT_EQ(sys.transient_faults, oracle.transient_faults)
          << "seed " << seed;
      EXPECT_EQ(sys.service_errors, oracle.service_errors) << "seed " << seed;
      EXPECT_GT(sys.events, 0u);
    }
  }
}

TEST(EventEngine, GoldenValues) {
  // Pinned outputs of the simulator for fixed seeds. A change here means
  // every published simulation number moves: the RNG draw order, the
  // block semantics or the union arithmetic changed.
  struct Golden {
    bool exponential;
    std::uint64_t seed;
    double down_time;
    std::size_t outages;
    std::uint64_t events;
    std::size_t permanent_faults;
    std::size_t transient_faults;
    std::size_t service_errors;
  };
  const Golden golden[] = {
      {true, 1, 0x1.78e86b6b88978p+6, 101, 170, 83, 14, 3},
      {true, 2, 0x1.5e0b0f65617ep+6, 114, 177, 87, 11, 4},
      {false, 1, 0x1.a135fedd3999p+6, 101, 186, 92, 8, 5},
      {false, 2, 0x1.d32dc02f4222p+6, 94, 148, 74, 9, 5},
  };
  const auto model = test_model();
  for (const Golden& g : golden) {
    BlockSimOptions opts;
    if (!g.exponential) {
      opts.exponential_everything = false;
      opts.repair_cv = 0.4;
    }
    const auto r = rascad::sim::simulate_system(model, 50'000.0, g.seed, opts);
    const std::string what = std::string(g.exponential ? "exp" : "non-exp") +
                             " seed " + std::to_string(g.seed);
    EXPECT_DOUBLE_EQ(r.down_time, g.down_time) << what;
    EXPECT_EQ(r.outages, g.outages) << what;
    EXPECT_EQ(r.events, g.events) << what;
    EXPECT_EQ(r.permanent_faults, g.permanent_faults) << what;
    EXPECT_EQ(r.transient_faults, g.transient_faults) << what;
    EXPECT_EQ(r.service_errors, g.service_errors) << what;
  }
}

// ---- Streaming replication driver ------------------------------------------

TEST(StreamingSim, BatchSizeDoesNotChangeStatistics) {
  const auto model = test_model();
  StreamingOptions small;
  small.batch = 7;  // deliberately misaligned with 50 to cross boundaries
  const auto a =
      rascad::sim::replicate_system_streaming(model, 20'000.0, 50, 7, small);
  const auto b =
      rascad::sim::replicate_system_streaming(model, 20'000.0, 50, 7, {});

  EXPECT_EQ(a.completed, 50u);
  EXPECT_TRUE(a.complete());
  EXPECT_EQ(a.availability.mean(), b.availability.mean());
  EXPECT_EQ(a.availability.variance(), b.availability.variance());
  EXPECT_EQ(a.availability.min(), b.availability.min());
  EXPECT_EQ(a.availability.max(), b.availability.max());
  EXPECT_EQ(a.downtime_minutes.mean(), b.downtime_minutes.mean());
  EXPECT_EQ(a.outages.mean(), b.outages.mean());
  EXPECT_EQ(a.availability_p99.value(), b.availability_p99.value());
  EXPECT_EQ(a.outage_minutes_p50.value(), b.outage_minutes_p50.value());
  EXPECT_EQ(a.events, b.events);
  EXPECT_GT(a.events, 0u);
}

/// Three independent blocks with no latent faults or SPF windows.
rascad::spec::ModelSpec simple_model() {
  return rascad::spec::parse_model(R"(
globals { reboot_time = 10 min mttm = 12 h mttrfid = 4 h mission_time = 8760 h }
diagram "Sys" {
  block "A" { mtbf = 4000 mttr_corrective = 120 service_response = 4 }
  block "B" {
    quantity = 2 min_quantity = 1 mtbf = 3000
    mttr_corrective = 60 service_response = 4
    recovery = transparent repair = transparent
  }
  block "C" { mtbf = 9000 mttr_corrective = 45 service_response = 2 }
}
)");
}

TEST(StreamingSim, DeterministicAcrossThreadCounts) {
  struct Input {
    rascad::spec::ModelSpec model;
    double horizon;
    std::size_t replications;
    std::uint64_t seed;
    std::size_t batch;
  };
  const Input inputs[] = {
      {test_model(), 20'000.0, 200, 99, 32},
      {simple_model(), 30'000.0, 24, 7, StreamingOptions{}.batch},
  };
  for (const Input& in : inputs) {
    std::vector<rascad::sim::StreamingReplicationResult> runs;
    for (std::size_t threads : {1u, 2u, 8u}) {
      StreamingOptions sopts;
      sopts.batch = in.batch;
      sopts.parallel.threads = threads;
      runs.push_back(rascad::sim::replicate_system_streaming(
          in.model, in.horizon, in.replications, in.seed, sopts));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[0].availability.mean(), runs[i].availability.mean());
      EXPECT_EQ(runs[0].availability.variance(),
                runs[i].availability.variance());
      EXPECT_EQ(runs[0].availability.min(), runs[i].availability.min());
      EXPECT_EQ(runs[0].availability.max(), runs[i].availability.max());
      EXPECT_EQ(runs[0].downtime_minutes.mean(),
                runs[i].downtime_minutes.mean());
      EXPECT_EQ(runs[0].downtime_minutes.variance(),
                runs[i].downtime_minutes.variance());
      EXPECT_EQ(runs[0].outages.mean(), runs[i].outages.mean());
      EXPECT_EQ(runs[0].outages.variance(), runs[i].outages.variance());
      EXPECT_EQ(runs[0].availability_p50.value(),
                runs[i].availability_p50.value());
      EXPECT_EQ(runs[0].availability_p99.value(),
                runs[i].availability_p99.value());
      EXPECT_EQ(runs[0].availability_p999.value(),
                runs[i].availability_p999.value());
      EXPECT_EQ(runs[0].outage_minutes_p50.value(),
                runs[i].outage_minutes_p50.value());
      EXPECT_EQ(runs[0].outage_minutes_p99.value(),
                runs[i].outage_minutes_p99.value());
      EXPECT_EQ(runs[0].events, runs[i].events);
      EXPECT_EQ(runs[0].completed, runs[i].completed);
    }
  }
}

TEST(StreamingSim, EarlyExitOnTightCi) {
  const auto model = test_model();
  StreamingOptions sopts;
  sopts.batch = 64;
  sopts.stop_when_ci_below = 1.0;  // any CI satisfies this immediately
  const auto r =
      rascad::sim::replicate_system_streaming(model, 20'000.0, 1'000, 5, sopts);
  // The exit waits for the 256-replication floor: four batches.
  EXPECT_TRUE(r.early_exit);
  EXPECT_EQ(r.completed, 256u);
  EXPECT_EQ(r.requested, 1'000u);
  EXPECT_EQ(r.status, rascad::robust::PointStatus::kOk);
  EXPECT_LE(r.ci_half_width(), 1.0);
}

TEST(StreamingSim, PreCancelledTokenCompletesNothing) {
  const rascad::spec::ModelSpec models[] = {
      test_model(), rascad::core::library::entry_server()};
  for (const auto& model : models) {
    StreamingOptions sopts;
    sopts.batch = 8;
    sopts.parallel.threads = 1;
    sopts.parallel.cancel = rascad::robust::CancelToken::manual();
    sopts.parallel.cancel.request_cancel();
    const auto r =
        rascad::sim::replicate_system_streaming(model, 1'000.0, 100, 5, sopts);
    EXPECT_EQ(r.completed, 0u);
    EXPECT_EQ(r.requested, 100u);
    EXPECT_FALSE(r.complete());
    EXPECT_FALSE(r.early_exit);
    EXPECT_EQ(r.status, rascad::robust::PointStatus::kCancelled);
    EXPECT_TRUE(std::isnan(r.availability_p50.value()));
  }
}

TEST(StreamingSim, RejectsBadInput) {
  const auto model = test_model();
  EXPECT_THROW(
      rascad::sim::replicate_system_streaming(model, -1.0, 10, 1, {}),
      std::invalid_argument);
  // Zero replications have no statistics; an ok result with availability
  // 0 would read as a real answer.
  EXPECT_THROW(rascad::sim::replicate_system_streaming(model, 1'000.0, 0, 1),
               std::invalid_argument);
}

// ---- JSONL replication sink -------------------------------------------------

TEST(StreamingSim, SinkWritesOneLinePerReplication) {
  const auto model = test_model();
  const std::string path = ::testing::TempDir() + "sim_stream_sink.jsonl";
  std::remove(path.c_str());

  StreamingOptions sopts;
  sopts.batch = 9;
  sopts.jsonl_path = path;
  const auto r =
      rascad::sim::replicate_system_streaming(model, 20'000.0, 30, 13, sopts);
  EXPECT_EQ(r.completed, 30u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  std::size_t last_index = 0;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"type\":\"replication\""), std::string::npos);
    EXPECT_NE(line.find("\"availability\":"), std::string::npos);
    const auto pos = line.find("\"index\":");
    ASSERT_NE(pos, std::string::npos);
    last_index = static_cast<std::size_t>(
        std::stoul(line.substr(pos + 8)));
    ++lines;
  }
  EXPECT_EQ(lines, 30u);
  EXPECT_EQ(last_index, 29u);  // records land in replication-index order
  std::remove(path.c_str());
}

TEST(ReplicationSink, ThrowsOnUnwritablePath) {
  EXPECT_THROW(rascad::sim::ReplicationSink("/nonexistent-dir/sink.jsonl"),
               std::runtime_error);
}

TEST(StreamingSim, FailedSinkWriteThrowsNamingThePath) {
  // /dev/full opens but fails every write with ENOSPC: a full disk must
  // fail the run, not lose its records silently.
  const std::string path = "/dev/full";
  if (!std::ifstream(path).good()) GTEST_SKIP() << path << " is absent";
  StreamingOptions sopts;
  sopts.batch = 9;
  sopts.jsonl_path = path;
  try {
    (void)rascad::sim::replicate_system_streaming(test_model(), 20'000.0, 30,
                                                  13, sopts);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

}  // namespace
