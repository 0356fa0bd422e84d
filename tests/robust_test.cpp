// Robustness layer: cooperative cancel/deadline tokens, the graceful-
// degradation surfaces built on them (partial sweeps, importance rankings,
// replication runs), parallel-loop failure accounting, the stall watchdog,
// and the status columns of the CSV round-trip.
#include <atomic>
#include <chrono>
#include <locale>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/solve_cache.hpp"
#include "core/csv.hpp"
#include "core/importance.hpp"
#include "core/library.hpp"
#include "core/sweep.hpp"
#include "exec/parallel.hpp"
#include "markov/ctmc.hpp"
#include "markov/health.hpp"
#include "markov/steady_state.hpp"
#include "mg/system.hpp"
#include "robust/cancel.hpp"
#include "robust/solve_error.hpp"
#include "robust/watchdog.hpp"
#include "sim/streaming.hpp"
#include "fault_seam.hpp"

namespace {

using rascad::markov::Ctmc;
using rascad::markov::CtmcBuilder;
using rascad::robust::CancelToken;
using rascad::robust::PointStatus;
using rascad::robust::StopReason;
using rascad::markov::ScopedPostSolveHook;
using rascad::markov::solve_steady_state;
using rascad::markov::SteadyStateResult;
using rascad::robust::SolveCause;
using rascad::robust::SolveError;

Ctmc repair_chain() {
  CtmcBuilder b;
  const auto ok = b.add_state("ok", 1.0);
  const auto deg = b.add_state("degraded", 1.0);
  const auto down = b.add_state("down", 0.0);
  b.add_transition(ok, deg, 2.0);
  b.add_transition(deg, ok, 5.0);
  b.add_transition(deg, down, 1.0);
  b.add_transition(down, ok, 10.0);
  return b.build();
}

// ------------------------------------------------------------- tokens ----

TEST(CancelToken, InertByDefault) {
  const CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.stop_requested());
  EXPECT_EQ(token.reason(), StopReason::kNone);
  token.request_cancel();  // no-op, must not crash
  EXPECT_FALSE(token.stop_requested());
  EXPECT_LT(token.observed_latency_ms(), 0.0);
}

TEST(CancelToken, ManualCancelIsSticky) {
  const CancelToken token = CancelToken::manual();
  EXPECT_TRUE(token.valid());
  EXPECT_FALSE(token.stop_requested());
  token.request_cancel();
  EXPECT_TRUE(token.stop_requested());
  EXPECT_EQ(token.reason(), StopReason::kCancelled);
  EXPECT_TRUE(token.stop_requested());  // stays stopped
  EXPECT_GE(token.observed_latency_ms(), 0.0);
}

TEST(CancelToken, DeadlineFiresOnMonotonicClock) {
  const CancelToken token = CancelToken::with_deadline_ms(5.0);
  EXPECT_FALSE(token.stop_requested());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(token.stop_requested());
  EXPECT_EQ(token.reason(), StopReason::kDeadlineExceeded);
}

TEST(CancelToken, ChildObservesParentStopButNotViceVersa) {
  const CancelToken parent = CancelToken::manual();
  const CancelToken child = CancelToken::child_of(parent);
  const CancelToken grandchild = CancelToken::child_of(child);
  parent.request_cancel();
  EXPECT_TRUE(child.stop_requested());
  EXPECT_TRUE(grandchild.stop_requested());
  EXPECT_EQ(grandchild.reason(), StopReason::kCancelled);

  const CancelToken parent2 = CancelToken::manual();
  const CancelToken child2 = CancelToken::child_of(parent2);
  child2.request_cancel();
  EXPECT_TRUE(child2.stop_requested());
  EXPECT_FALSE(parent2.stop_requested());  // one-way propagation
}

TEST(CancelToken, ChildDeadlineExpiresWithoutStoppingParent) {
  const CancelToken request = CancelToken::manual();
  const CancelToken episode = CancelToken::child_of(request, 5.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(episode.stop_requested());
  EXPECT_EQ(episode.reason(), StopReason::kDeadlineExceeded);
  EXPECT_FALSE(request.stop_requested());
}

TEST(CancelToken, FanOutAcrossThreads) {
  // One request token copied into many worker threads: every worker's
  // checkpoint sees the stop, and copies share the sticky state.
  const CancelToken token = CancelToken::manual();
  constexpr int kThreads = 8;
  std::atomic<int> observed{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([token, &observed, &go] {
      const CancelToken child = CancelToken::child_of(token);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!child.stop_requested()) std::this_thread::yield();
      observed.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  go.store(true, std::memory_order_release);
  token.request_cancel();
  for (auto& w : workers) w.join();
  EXPECT_EQ(observed.load(), kThreads);
  EXPECT_TRUE(token.stop_requested());
}

TEST(CancelToken, ThrowIfStoppedCarriesTaxonomy) {
  const CancelToken cancelled = CancelToken::manual();
  cancelled.request_cancel();
  try {
    rascad::robust::throw_if_stopped(cancelled, "unit-test");
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kCancelled);
  }
  const CancelToken expired = CancelToken::with_deadline_ms(0.0001);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  try {
    rascad::robust::throw_if_stopped(expired, "unit-test");
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kDeadlineExceeded);
  }
}

TEST(PointStatusTaxonomy, StringRoundTripAndExceptionFolding) {
  for (const PointStatus s :
       {PointStatus::kOk, PointStatus::kCancelled,
        PointStatus::kDeadlineExceeded, PointStatus::kFailed}) {
    PointStatus back = PointStatus::kOk;
    ASSERT_TRUE(rascad::robust::point_status_from_string(
        rascad::robust::to_string(s), back));
    EXPECT_EQ(back, s);
  }
  PointStatus unused;
  EXPECT_FALSE(rascad::robust::point_status_from_string("bogus", unused));

  const auto solve_err = std::make_exception_ptr(
      SolveError(SolveCause::kDeadlineExceeded, "rung", "budget"));
  const auto folded = rascad::robust::point_status_from_exception(solve_err);
  EXPECT_EQ(folded.first, PointStatus::kDeadlineExceeded);
  const auto generic = rascad::robust::point_status_from_exception(
      std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_EQ(generic.first, PointStatus::kFailed);
  EXPECT_NE(generic.second.find("boom"), std::string::npos);
}

// ------------------------------------------------------------ episode ----

/// A k x k grid availability chain (moves right/down at rate 1, back at
/// rate 2): irreducible, and its reverse Cuthill-McKee band is about k
/// wide, so GTH spends O(k^4) work and passes many checkpoints. k = 100
/// takes tens of milliseconds.
Ctmc grid_chain(std::size_t k) {
  CtmcBuilder b;
  for (std::size_t i = 0; i < k * k; ++i) {
    b.add_state("g" + std::to_string(i), (i / k + i % k) % 2 ? 0.0 : 1.0);
  }
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      const std::size_t at = r * k + c;
      if (c + 1 < k) {
        b.add_transition(at, at + 1, 1.0);
        b.add_transition(at + 1, at, 2.0);
      }
      if (r + 1 < k) {
        b.add_transition(at, at + k, 1.0);
        b.add_transition(at + k, at, 2.0);
      }
    }
  }
  return b.build();
}

TEST(Episode, UncancelledRunBitwiseIdenticalToTokenFreeRun) {
  const Ctmc chain = grid_chain(30);
  const SteadyStateResult a = solve_steady_state(chain);

  const CancelToken armed = CancelToken::with_deadline_ms(1e9);  // never fires
  const SteadyStateResult b = solve_steady_state(chain, armed);

  ASSERT_EQ(a.pi.size(), b.pi.size());
  for (std::size_t i = 0; i < a.pi.size(); ++i) {
    EXPECT_EQ(a.pi[i], b.pi[i]) << "state " << i;
  }
  EXPECT_EQ(a.residual, b.residual);
}

TEST(Episode, CancelledMidSolveThrowsCancelled) {
  const Ctmc chain = grid_chain(100);
  const CancelToken cancel = CancelToken::manual();
  std::thread canceller([token = cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.request_cancel();
  });
  try {
    (void)solve_steady_state(chain, cancel);
    canceller.join();
    FAIL() << "expected SolveError(kCancelled)";
  } catch (const SolveError& e) {
    canceller.join();
    EXPECT_EQ(e.cause(), SolveCause::kCancelled);
  }
  // The elimination checkpoint observed the stop promptly.
  EXPECT_TRUE(cancel.observed());
  EXPECT_GE(cancel.observed_latency_ms(), 0.0);
  EXPECT_LT(cancel.observed_latency_ms(), 250.0);
}

TEST(Episode, DeadlineExpiryMidSolveAbortsWithDeadlineCause) {
  const auto chain = grid_chain(100);
  try {
    (void)solve_steady_state(chain, CancelToken::with_deadline_ms(5.0));
    FAIL() << "expected SolveError(kDeadlineExceeded)";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kDeadlineExceeded);
    EXPECT_NE(std::string(e.what()).find("episode stopped"),
              std::string::npos);
  }
}

TEST(Episode, InjectedTimeoutEndsAtTheDeadline) {
  const ScopedPostSolveHook scope(rascad::testing::timeout_hook(10'000.0));
  const auto start = std::chrono::steady_clock::now();
  const CancelToken deadline = CancelToken::with_deadline_ms(2.0);
  try {
    (void)solve_steady_state(repair_chain(), deadline);
    FAIL() << "expected SolveError(kDeadlineExceeded)";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kDeadlineExceeded);
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_GE(ms, 2.0);
  EXPECT_LT(ms, 1'000.0);
}

// ----------------------------------------------------- parallel loops ----

TEST(ParallelFor, FiredTokenRaisesOnSkippedWork) {
  const CancelToken token = CancelToken::manual();
  token.request_cancel();
  rascad::exec::ParallelOptions par;
  par.threads = 2;
  par.cancel = token;
  try {
    rascad::exec::parallel_for(16, [](std::size_t) {}, par);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.cause(), SolveCause::kCancelled);
  }
}

// --------------------------------------------------- partial sweeps ------

TEST(DegradedSweep, DeadlineBoundedSweepReturnsCompletedPrefix) {
  const rascad::spec::ModelSpec spec = rascad::core::library::entry_server();
  rascad::cache::SolveCache cache;

  rascad::mg::SystemModel::Options model_opts;
  model_opts.cache = &cache;
  model_opts.parallel.threads = 1;
  // Every solve stalls 2 ms (ignoring the token) and then succeeds.
  const ScopedPostSolveHook stall(rascad::testing::stall_hook(2.0));
  // Pre-warm the baseline so each point costs one stalled solve.
  (void)rascad::mg::SystemModel::build(spec, model_opts);

  rascad::core::SweepOptions opts;
  opts.parallel.threads = 1;
  opts.parallel.cancel = CancelToken::with_deadline_ms(25.0);
  opts.model = model_opts;
  const std::vector<rascad::core::SweepPoint> points =
      rascad::core::sweep_block_parameter(
          spec, "Entry Server", "Boot Disk",
          [](rascad::spec::BlockSpec& b, double v) { b.mtbf_h = v; },
          rascad::core::linspace(1e5, 4e5, 64), opts);
  ASSERT_EQ(points.size(), 64u);

  std::size_t ok = 0;
  bool seen_bad = false;
  for (const auto& p : points) {
    if (p.ok()) {
      EXPECT_FALSE(seen_bad) << "completed point after a degraded one";
      EXPECT_TRUE(std::isfinite(p.availability));
      EXPECT_TRUE(p.status_detail.empty());
      ++ok;
    } else {
      seen_bad = true;
      EXPECT_EQ(p.status, PointStatus::kDeadlineExceeded);
      EXPECT_TRUE(std::isnan(p.availability));
      EXPECT_EQ(p.solve_source, "none");
      EXPECT_FALSE(p.status_detail.empty());
    }
  }
  EXPECT_GE(ok, 1u);
  EXPECT_LT(ok, 64u);
}

TEST(DegradedSweep, UncancelledTokenSweepMatchesTokenFreeSweep) {
  const rascad::spec::ModelSpec spec = rascad::core::library::entry_server();
  const auto run = [&](const CancelToken& token) {
    rascad::cache::SolveCache cache;
    rascad::core::SweepOptions opts;
    opts.parallel.threads = 1;
    opts.parallel.cancel = token;
    opts.model.cache = &cache;
    opts.model.parallel.threads = 1;
    return rascad::core::sweep_block_parameter(
        spec, "Entry Server", "Boot Disk",
        [](rascad::spec::BlockSpec& b, double v) { b.mtbf_h = v; },
        rascad::core::linspace(1e5, 4e5, 8), opts);
  };
  const auto bare = run(CancelToken{});
  const auto armed = run(CancelToken::with_deadline_ms(1e9));
  ASSERT_EQ(bare.size(), armed.size());
  for (std::size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(bare[i].availability, armed[i].availability) << i;
    EXPECT_EQ(bare[i].yearly_downtime_min, armed[i].yearly_downtime_min) << i;
    EXPECT_TRUE(armed[i].ok()) << i;
  }
}

TEST(DegradedImportance, CancelledRankingKeepsRowIdentity) {
  const rascad::spec::ModelSpec spec = rascad::core::library::entry_server();
  rascad::cache::SolveCache cache;
  rascad::mg::SystemModel::Options build_opts;
  build_opts.cache = &cache;
  build_opts.parallel.threads = 1;
  const rascad::mg::SystemModel system =
      rascad::mg::SystemModel::build(spec, build_opts);
  const CancelToken cancel = CancelToken::manual();
  cancel.request_cancel();
  const std::vector<rascad::core::BlockImportance> rows =
      rascad::core::block_importance(system, cancel);
  ASSERT_FALSE(rows.empty());
  for (const auto& r : rows) {
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status, PointStatus::kCancelled);
    EXPECT_FALSE(r.block.empty());  // identity survives degradation
    EXPECT_EQ(r.solve_source, "none");
  }
}

TEST(DegradedReplication, UnfiredTokenMatchesTokenFreeRun) {
  // A healthy run under a valid-but-unfired token is complete and matches
  // a token-free run exactly. (A token that fires first is covered by
  // sim_stream_test's StreamingSim.PreCancelledTokenCompletesNothing.)
  const rascad::spec::ModelSpec spec = rascad::core::library::entry_server();
  rascad::sim::StreamingOptions healthy;
  healthy.parallel.threads = 1;
  healthy.parallel.cancel = CancelToken::with_deadline_ms(1e9);
  const rascad::sim::StreamingReplicationResult a =
      rascad::sim::replicate_system_streaming(spec, 1000.0, 8, 42, healthy);
  const rascad::sim::StreamingReplicationResult b =
      rascad::sim::replicate_system_streaming(spec, 1000.0, 8, 42);
  EXPECT_TRUE(a.complete());
  EXPECT_EQ(a.status, PointStatus::kOk);
  EXPECT_EQ(a.availability.mean(), b.availability.mean());
  EXPECT_EQ(a.downtime_minutes.mean(), b.downtime_minutes.mean());
}

// ----------------------------------------------------------- watchdog ----

TEST(Watchdog, FlagsUnobservedStopAndSparesObservedOne) {
  auto& dog = rascad::robust::StallWatchdog::global();
  dog.set_poll_interval_ms(1.0);
  const std::uint64_t before = dog.stall_count();

  // Stopped and never observed past its budget: flagged.
  const CancelToken stalled = CancelToken::manual();
  {
    const auto guard = dog.watch(stalled, 5.0, "robust_test.stalled");
    stalled.request_cancel();  // no checkpoint ever observes this
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  EXPECT_GE(dog.stall_count(), before + 1);

  // Stopped but promptly observed: not flagged.
  const std::uint64_t mid = dog.stall_count();
  const CancelToken observed = CancelToken::manual();
  {
    const auto guard = dog.watch(observed, 20.0, "robust_test.observed");
    observed.request_cancel();
    EXPECT_TRUE(observed.stop_requested());  // the workload checkpoint
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(dog.stall_count(), mid);
}

// A solve stuck where no checkpoint polls its token: the post-solve seam
// sleeps through the cancel, the answer still passes its health check, and
// only the watchdog notices.
TEST(Watchdog, FlagsSolveStalledPastItsCancel) {
  auto& dog = rascad::robust::StallWatchdog::global();
  dog.set_poll_interval_ms(1.0);
  const std::uint64_t before = dog.stall_count();
  const ScopedPostSolveHook stall(rascad::testing::stall_hook(40.0));
  const CancelToken token = CancelToken::manual();
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.request_cancel();
  });
  rascad::markov::SolveTrace trace;
  {
    const auto guard = dog.watch(token, 5.0, "robust_test.stalled_solve");
    (void)solve_steady_state(repair_chain(), token, &trace);
  }
  canceller.join();
  EXPECT_TRUE(trace.success);
  EXPECT_GE(dog.stall_count(), before + 1);
}

// Regression for the idle spin: with no registered guards the poll thread
// must park on its condition variable, not wake every poll_ms_ forever.
// scan_count() counts passes over a non-empty entry list, so a parked
// watchdog's count freezes and a watched token's count grows.
TEST(Watchdog, ParksWhenIdleInsteadOfSpinning) {
  auto& dog = rascad::robust::StallWatchdog::global();
  dog.set_poll_interval_ms(1.0);

  // Ensure the poll thread exists, then let the entry list empty out.
  {
    const CancelToken warmup = CancelToken::manual();
    const auto guard = dog.watch(warmup, 1000.0, "robust_test.warmup");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  const std::uint64_t idle_before = dog.scan_count();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(dog.scan_count(), idle_before)
      << "poll thread scanned with zero entries: it is spinning, not parked";

  // A new registration must wake it back up.
  const CancelToken token = CancelToken::manual();
  const auto guard = dog.watch(token, 1000.0, "robust_test.wakeup");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GT(dog.scan_count(), idle_before)
      << "poll thread failed to resume after a watch() registration";
}

// ---------------------------------------------------------------- CSV ----

TEST(CsvRoundTrip, SweepStatusColumnsSurviveReadBack) {
  std::vector<rascad::core::SweepPoint> points(3);
  points[0].value = 1.5e5;
  points[0].availability = 0.999875;
  points[0].yearly_downtime_min = 65.7;
  points[0].eq_failure_rate = 1.2e-6;
  points[0].solve_source = "fresh";
  points[0].fresh_blocks = 5;
  points[0].cached_blocks = 1;
  points[0].reused_blocks = 2;
  points[1].value = 2.0e5;
  points[1].availability = std::nan("");
  points[1].yearly_downtime_min = std::nan("");
  points[1].eq_failure_rate = std::nan("");
  points[1].solve_source = "none";
  points[1].status = PointStatus::kDeadlineExceeded;
  points[1].status_detail = "point skipped (deadline-exceeded)";
  points[2].value = 2.5e5;
  points[2].availability = std::nan("");
  points[2].yearly_downtime_min = std::nan("");
  points[2].eq_failure_rate = std::nan("");
  points[2].solve_source = "none";
  points[2].status = PointStatus::kFailed;
  points[2].status_detail = "solve failed: \"singular\", rung 1";

  const std::string csv = rascad::core::sweep_csv(points);
  const std::vector<rascad::core::SweepPoint> back =
      rascad::core::read_sweep_csv(csv);
  ASSERT_EQ(back.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(back[i].value, points[i].value);
    if (std::isnan(points[i].availability)) {
      EXPECT_TRUE(std::isnan(back[i].availability));
    } else {
      EXPECT_EQ(back[i].availability, points[i].availability);
    }
    EXPECT_EQ(back[i].solve_source, points[i].solve_source);
    EXPECT_EQ(back[i].fresh_blocks, points[i].fresh_blocks);
    EXPECT_EQ(back[i].status, points[i].status);
    EXPECT_EQ(back[i].status_detail, points[i].status_detail);
  }
}

TEST(CsvRoundTrip, ImportanceStatusColumnsSurviveReadBack) {
  std::vector<rascad::core::BlockImportance> rows(2);
  rows[0].diagram = "Entry Server";
  rows[0].block = "Boot Disk, \"primary\"";
  rows[0].availability = 0.99991;
  rows[0].birnbaum = 0.012;
  rows[0].criticality = 0.4;
  rows[0].raw = 1.7;
  rows[0].rrw = 1.1;
  rows[0].solve_source = "fresh";
  rows[1].diagram = "Entry Server";
  rows[1].block = "CPU";
  rows[1].solve_source = "none";
  rows[1].status = PointStatus::kCancelled;
  rows[1].status_detail = "importance skipped (cancelled)";

  const std::string csv = rascad::core::importance_csv(rows);
  const std::vector<rascad::core::BlockImportance> back =
      rascad::core::read_importance_csv(csv);
  ASSERT_EQ(back.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(back[i].diagram, rows[i].diagram);
    EXPECT_EQ(back[i].block, rows[i].block);  // quoted comma+quote survive
    EXPECT_EQ(back[i].availability, rows[i].availability);
    EXPECT_EQ(back[i].criticality, rows[i].criticality);
    EXPECT_EQ(back[i].status, rows[i].status);
    EXPECT_EQ(back[i].status_detail, rows[i].status_detail);
  }
}

// A degraded row whose detail carries CSV metacharacters — commas, quotes
// — must survive write→read bit-exactly (quoting, not mangling).
TEST(CsvRoundTrip, SweepDetailWithCommasAndQuotesSurvives) {
  std::vector<rascad::core::SweepPoint> points(1);
  points[0].value = 3.5;
  points[0].availability = std::nan("");
  points[0].yearly_downtime_min = std::nan("");
  points[0].eq_failure_rate = std::nan("");
  points[0].solve_source = "none";
  points[0].status = PointStatus::kCancelled;
  points[0].status_detail =
      "cooperative stop (cancelled), rung 2, residual \"1e-9\", gave up";

  const auto back =
      rascad::core::read_sweep_csv(rascad::core::sweep_csv(points));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].status, PointStatus::kCancelled);
  EXPECT_EQ(back[0].status_detail, points[0].status_detail);
}

namespace {

/// Classic-locale-like numpunct that renders the decimal point as ',' —
/// the de_DE convention, without needing de_DE installed in the image.
class CommaDecimal : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// Installs a comma-decimal global locale for the scope. Streams imbue
/// the global locale at construction, so any CSV writer/reader that
/// forgets to pin the classic locale breaks under this guard.
class GlobalLocaleGuard {
 public:
  GlobalLocaleGuard()
      : saved_(std::locale::global(
            std::locale(std::locale::classic(), new CommaDecimal))) {}
  ~GlobalLocaleGuard() { std::locale::global(saved_); }

 private:
  std::locale saved_;
};

}  // namespace

// The CSV interchange layer must be LC_NUMERIC-independent: writers pin
// the classic locale on their streams, and the parser uses std::from_chars.
// Under a comma-decimal global locale the round trip must stay bit-exact
// (an unpinned writer would emit "0,999875" and the parse would fail or
// silently truncate at the comma).
TEST(CsvRoundTrip, LocaleIndependentUnderCommaDecimalGlobal) {
  const GlobalLocaleGuard guard;

  std::vector<rascad::core::SweepPoint> points(2);
  points[0].value = 1234.5678;
  points[0].availability = 0.99987512345;
  points[0].yearly_downtime_min = 65.73;
  points[0].eq_failure_rate = 1.25e-6;
  points[0].fresh_blocks = 1234;  // grouping separator bait
  points[1].value = 2000.25;
  points[1].availability = std::nan("");
  points[1].yearly_downtime_min = std::nan("");
  points[1].eq_failure_rate = std::nan("");
  points[1].solve_source = "none";
  points[1].status = PointStatus::kDeadlineExceeded;
  points[1].status_detail = "point skipped (deadline-exceeded)";

  const std::string csv = rascad::core::sweep_csv(points);
  EXPECT_EQ(csv.find("0,99987512345"), std::string::npos)
      << "writer leaked the global locale's decimal comma:\n"
      << csv;
  EXPECT_EQ(csv.find("1.234"), std::string::npos)
      << "writer leaked the global locale's thousands grouping:\n"
      << csv;

  const auto back = rascad::core::read_sweep_csv(csv);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].value, points[0].value);
  EXPECT_EQ(back[0].availability, points[0].availability);
  EXPECT_EQ(back[0].eq_failure_rate, points[0].eq_failure_rate);
  EXPECT_EQ(back[0].fresh_blocks, points[0].fresh_blocks);
  EXPECT_TRUE(std::isnan(back[1].availability));
  EXPECT_EQ(back[1].status, PointStatus::kDeadlineExceeded);
  EXPECT_EQ(back[1].status_detail, points[1].status_detail);

  // Importance table: same contract under the same hostile locale.
  std::vector<rascad::core::BlockImportance> rows(1);
  rows[0].diagram = "Web Shop";
  rows[0].block = "Load Balancer, \"Pair\"";
  rows[0].availability = 0.503456789123;  // 12 sig digits: writer precision
  rows[0].birnbaum = 1.5e-3;
  rows[0].criticality = 0.75;
  const auto rows_back =
      rascad::core::read_importance_csv(rascad::core::importance_csv(rows));
  ASSERT_EQ(rows_back.size(), 1u);
  EXPECT_EQ(rows_back[0].block, rows[0].block);
  EXPECT_EQ(rows_back[0].availability, rows[0].availability);
  EXPECT_EQ(rows_back[0].birnbaum, rows[0].birnbaum);
}

TEST(CsvRoundTrip, MalformedInputThrows) {
  EXPECT_THROW(rascad::core::read_sweep_csv(std::string("")),
               std::invalid_argument);
  EXPECT_THROW(rascad::core::read_sweep_csv(std::string("wrong,header\n")),
               std::invalid_argument);
  EXPECT_THROW(
      rascad::core::read_sweep_csv(std::string(
          "value,availability,yearly_downtime_min,eq_failure_rate,"
          "solve_source,fresh_blocks,cached_blocks,reused_blocks,"
          "solve_iterations,status,status_detail\n1,2,3\n")),
      std::invalid_argument);
}

}  // namespace
