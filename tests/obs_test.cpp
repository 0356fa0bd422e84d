// Observability layer: registry concurrency, span nesting and merge
// determinism, cross-thread parent propagation, disabled-mode no-op
// guarantees, JSONL well-formedness, registry-vs-cache counter agreement,
// and the shared bench metrics line format.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/signature.hpp"
#include "cache/solve_cache.hpp"
#include "core/library.hpp"
#include "exec/parallel.hpp"
#include "mg/system.hpp"
#include "obs/bench_json.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace {

using rascad::obs::BenchMetricsLine;
using rascad::obs::Counter;
using rascad::obs::Gauge;
using rascad::obs::Histogram;
using rascad::obs::MetricsSnapshot;
using rascad::obs::Registry;
using rascad::obs::Span;
using rascad::obs::SpanRecord;
using rascad::obs::TraceDump;

/// Each test starts from a clean slate (disabled, empty trace, zeroed
/// registry) and restores the disabled default afterwards, so the suites
/// cannot contaminate one another through the process-global collector.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rascad::obs::set_enabled(false);
    rascad::obs::clear_trace();
    Registry::global().reset();
  }
  void TearDown() override {
    rascad::obs::set_enabled(false);
    rascad::obs::clear_trace();
  }
};

// --- metrics registry ----------------------------------------------------

TEST_F(ObsTest, CounterConcurrentIncrementsExact) {
  Counter& c = Registry::global().counter("test.concurrent");
  constexpr std::uint64_t kPerThread = 20'000;
  for (std::size_t threads : {1u, 2u, 8u}) {
    c.reset();
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&c] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(c.value(), kPerThread * threads) << "threads=" << threads;
  }
}

TEST_F(ObsTest, RegistryFindOrCreateReturnsSameObject) {
  Counter& a = Registry::global().counter("test.identity");
  Counter& b = Registry::global().counter("test.identity");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = Registry::global().gauge("test.identity");  // separate space
  Gauge& g2 = Registry::global().gauge("test.identity");
  EXPECT_EQ(&g1, &g2);
}

TEST_F(ObsTest, HistogramBucketsAndMean) {
  Histogram& h = Registry::global().histogram("test.hist");
  h.observe_ms(0.002);   // bucket for <= 0.003 ms
  h.observe_ms(5.0);     // mid-range
  h.observe_ms(5000.0);  // beyond the last bound -> overflow bucket
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_NEAR(snap.sum_ms, 5005.002, 0.01);
  std::uint64_t total = 0;
  for (std::uint64_t b : snap.buckets) total += b;
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(snap.buckets.back(), 1u);  // the 5 s observation
}

TEST_F(ObsTest, RegistryResetZeroesEverythingButKeepsReferences) {
  Counter& c = Registry::global().counter("test.reset");
  Gauge& g = Registry::global().gauge("test.reset_gauge");
  Histogram& h = Registry::global().histogram("test.reset_hist");
  c.inc(7);
  g.set(-3);
  h.observe_ms(1.0);
  Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.snapshot().count, 0u);
  c.inc();  // references survive the reset
  EXPECT_EQ(Registry::global().counter("test.reset").value(), 1u);
}

// --- span tracing --------------------------------------------------------

TEST_F(ObsTest, NestedSpansRecordParentEdges) {
  rascad::obs::set_enabled(true);
  {
    Span outer("test.outer");
    Span middle("test.middle");
    { Span inner("test.inner"); }
    { Span inner2("test.inner"); }
  }
  const TraceDump dump = rascad::obs::drain_trace();
  ASSERT_EQ(dump.spans.size(), 4u);
  // Sorted by start time: outer, middle, inner, inner2.
  EXPECT_STREQ(dump.spans[0].name, "test.outer");
  EXPECT_STREQ(dump.spans[1].name, "test.middle");
  EXPECT_EQ(dump.spans[0].parent, 0u);
  EXPECT_EQ(dump.spans[1].parent, dump.spans[0].id);
  EXPECT_EQ(dump.spans[2].parent, dump.spans[1].id);
  EXPECT_EQ(dump.spans[3].parent, dump.spans[1].id);
  EXPECT_EQ(dump.dropped, 0u);
}

TEST_F(ObsTest, DetailIsRecorded) {
  rascad::obs::set_enabled(true);
  {
    Span s("test.detail");
    ASSERT_TRUE(s.active());
    s.set_detail("n=42");
  }
  const TraceDump dump = rascad::obs::drain_trace();
  ASSERT_EQ(dump.spans.size(), 1u);
  EXPECT_EQ(dump.spans[0].detail, "n=42");
}

TEST_F(ObsTest, MergeIsStructurallyDeterministic) {
  // The same serial workload twice must produce the same merged structure:
  // identical name sequences and identical parent-name edges. (Timestamps
  // differ; structure must not.)
  const auto run = [] {
    rascad::obs::clear_trace();
    {
      Span a("test.a");
      { Span b("test.b"); }
      { Span c("test.c"); }
    }
    const TraceDump dump = rascad::obs::drain_trace();
    std::vector<std::string> shape;
    for (const SpanRecord& s : dump.spans) {
      std::string parent = "<root>";
      for (const SpanRecord& p : dump.spans) {
        if (p.id == s.parent) parent = p.name;
      }
      shape.push_back(std::string(s.name) + "<-" + parent);
    }
    return shape;
  };
  rascad::obs::set_enabled(true);
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first, second);
}

TEST_F(ObsTest, ParallelForPropagatesParentAcrossThreads) {
  rascad::obs::set_enabled(true);
  rascad::obs::SpanId root_id = 0;
  {
    Span root("test.root");
    root_id = root.id();
    rascad::exec::ParallelOptions par;
    par.threads = 4;
    rascad::exec::parallel_for(
        16, [](std::size_t) { Span leaf("test.leaf"); }, par);
  }
  const TraceDump dump = rascad::obs::drain_trace();
  // Every leaf must reach test.root through parent edges, regardless of
  // which pool thread ran it.
  std::set<rascad::obs::SpanId> reaches_root{root_id};
  // Spans are sorted by start time, so parents come before children on the
  // same logical path; two passes make the check robust to pool timing.
  for (int pass = 0; pass < 2; ++pass) {
    for (const SpanRecord& s : dump.spans) {
      if (reaches_root.count(s.parent)) reaches_root.insert(s.id);
    }
  }
  std::size_t leaves = 0;
  for (const SpanRecord& s : dump.spans) {
    if (std::string(s.name) == "test.leaf") {
      ++leaves;
      EXPECT_TRUE(reaches_root.count(s.id))
          << "leaf span not rooted under test.root";
    }
  }
  EXPECT_EQ(leaves, 16u);
}

TEST_F(ObsTest, EventsAttachToCurrentSpan) {
  rascad::obs::set_enabled(true);
  rascad::obs::SpanId id = 0;
  {
    Span s("test.event_host");
    id = s.id();
    rascad::obs::emit_event("test.event", {{"k", "v"}, {"n", "2"}});
  }
  const TraceDump dump = rascad::obs::drain_trace();
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_STREQ(dump.events[0].kind, "test.event");
  EXPECT_EQ(dump.events[0].span, id);
  ASSERT_EQ(dump.events[0].fields.size(), 2u);
  EXPECT_EQ(dump.events[0].fields[0].first, "k");
  EXPECT_EQ(dump.events[0].fields[0].second, "v");
}

// --- disabled mode -------------------------------------------------------

TEST_F(ObsTest, DisabledModeRecordsNothing) {
  ASSERT_FALSE(rascad::obs::enabled());
  {
    Span s("test.disabled");
    EXPECT_FALSE(s.active());
    EXPECT_EQ(s.id(), 0u);
    EXPECT_EQ(rascad::obs::current_span(), 0u);
    s.set_detail("ignored");
    rascad::obs::emit_event("test.disabled_event", {{"k", "v"}});
  }
  const TraceDump dump = rascad::obs::drain_trace();
  EXPECT_TRUE(dump.spans.empty());
  EXPECT_TRUE(dump.events.empty());
  EXPECT_EQ(dump.dropped, 0u);
}

TEST_F(ObsTest, DisabledSolveProducesNoTelemetry) {
  const auto system = rascad::mg::SystemModel::build(
      rascad::core::library::datacenter_system());
  (void)system.availability();
  const TraceDump dump = rascad::obs::drain_trace();
  EXPECT_TRUE(dump.spans.empty());
  EXPECT_TRUE(dump.events.empty());
}

// --- JSONL sink ----------------------------------------------------------

/// Minimal JSON validator: accepts exactly the subset the sink emits
/// (objects, strings, numbers, booleans, null). Returns true when `line`
/// is one complete JSON object with balanced structure.
bool valid_json_object(const std::string& line) {
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  std::function<bool()> value;
  const auto string_lit = [&]() -> bool {
    if (i >= line.size() || line[i] != '"') return false;
    ++i;
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') {
        ++i;
        if (i >= line.size()) return false;
      }
      ++i;
    }
    if (i >= line.size()) return false;
    ++i;  // closing quote
    return true;
  };
  const auto number_or_word = [&]() -> bool {
    const std::size_t start = i;
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) ||
            line[i] == '-' || line[i] == '+' || line[i] == '.')) {
      ++i;
    }
    return i > start;
  };
  std::function<bool()> object = [&]() -> bool {
    if (i >= line.size() || line[i] != '{') return false;
    ++i;
    skip_ws();
    if (i < line.size() && line[i] == '}') {
      ++i;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string_lit()) return false;
      skip_ws();
      if (i >= line.size() || line[i] != ':') return false;
      ++i;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < line.size() && line[i] == '}') {
        ++i;
        return true;
      }
      return false;
    }
  };
  const auto array = [&]() -> bool {
    ++i;  // '['
    skip_ws();
    if (i < line.size() && line[i] == ']') {
      ++i;
      return true;
    }
    for (;;) {
      if (!value()) return false;
      skip_ws();
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < line.size() && line[i] == ']') {
        ++i;
        return true;
      }
      return false;
    }
  };
  value = [&]() -> bool {
    skip_ws();
    if (i >= line.size()) return false;
    if (line[i] == '{') return object();
    if (line[i] == '[') return array();
    if (line[i] == '"') return string_lit();
    return number_or_word();
  };
  skip_ws();
  if (!object()) return false;
  skip_ws();
  return i == line.size();
}

TEST_F(ObsTest, JsonlStreamIsWellFormed) {
  rascad::obs::set_enabled(true);
  {
    Span s("test.jsonl");
    s.set_detail("quote \" backslash \\ control \n tab \t done");
    rascad::obs::emit_event("test.jsonl_event",
                            {{"weird", "a\"b\\c\nd"}, {"plain", "ok"}});
  }
  Registry::global().counter("test.jsonl_counter").inc(5);
  Registry::global().histogram("test.jsonl_hist").observe_ms(1.5);
  std::ostringstream os;
  rascad::obs::dump_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0, metrics = 0, spans = 0, events = 0;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_TRUE(valid_json_object(line)) << "bad JSONL line: " << line;
    if (line.find("\"type\":\"metrics\"") != std::string::npos) ++metrics;
    if (line.find("\"type\":\"span\"") != std::string::npos) ++spans;
    if (line.find("\"type\":\"event\"") != std::string::npos) ++events;
  }
  EXPECT_GE(lines, 3u);
  EXPECT_EQ(metrics, 1u);
  EXPECT_GE(spans, 1u);
  EXPECT_GE(events, 1u);
}

TEST_F(ObsTest, JsonEscapeAndNumberForms) {
  EXPECT_EQ(rascad::obs::json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(rascad::obs::json_number(0.5), "0.5");
  EXPECT_EQ(rascad::obs::json_number(
                std::numeric_limits<double>::quiet_NaN()),
            "null");
}

// --- trace of a real solve ----------------------------------------------

TEST_F(ObsTest, DatacenterSolveTraceReconstructsBuildTree) {
  rascad::obs::set_enabled(true);
  rascad::cache::SolveCache cache;
  rascad::mg::SystemModel::Options opts;
  opts.cache = &cache;
  const auto system = rascad::mg::SystemModel::build(
      rascad::core::library::datacenter_system(), opts);
  (void)system.availability();
  const TraceDump dump = rascad::obs::drain_trace();

  std::size_t builds = 0, solves = 0, ladders = 0, lookups = 0;
  rascad::obs::SpanId build_id = 0;
  for (const SpanRecord& s : dump.spans) {
    const std::string name = s.name;
    if (name == "system.build") {
      ++builds;
      build_id = s.id;
    } else if (name == "block.solve") {
      ++solves;
    } else if (name == "ladder.episode") {
      ++ladders;
    } else if (name == "cache.lookup") {
      ++lookups;
    }
  }
  EXPECT_EQ(builds, 1u);
  EXPECT_EQ(solves, system.blocks().size());
  EXPECT_GE(ladders, 1u);
  EXPECT_GE(lookups, solves);  // one block-table lookup per solve, minimum

  // Every block.solve span must be rooted under the system.build span.
  std::set<rascad::obs::SpanId> under_build{build_id};
  for (int pass = 0; pass < 2; ++pass) {
    for (const SpanRecord& s : dump.spans) {
      if (under_build.count(s.parent)) under_build.insert(s.id);
    }
  }
  for (const SpanRecord& s : dump.spans) {
    if (std::string(s.name) == "block.solve") {
      EXPECT_TRUE(under_build.count(s.id))
          << "block.solve not nested under system.build";
    }
  }

  // Registry mirrors agree with the cache's own consistent snapshot.
  const rascad::cache::CacheCounters blocks = cache.block_counters();
  EXPECT_EQ(Registry::global().counter("cache.block.hits").value(),
            blocks.hits);
  EXPECT_EQ(Registry::global().counter("cache.block.misses").value(),
            blocks.misses);
  EXPECT_EQ(Registry::global().counter("cache.block.insertions").value(),
            blocks.insertions);

  // The human-readable report mentions the hot spans and the counters.
  const std::string report = rascad::obs::summary_report(
      dump, Registry::global().snapshot());
  EXPECT_NE(report.find("block.solve"), std::string::npos);
  EXPECT_NE(report.find("cache.block.misses"), std::string::npos);
}

// --- cache counter snapshot consistency ----------------------------------

TEST_F(ObsTest, CacheCountersConsistentUnderConcurrency) {
  rascad::cache::SolveCache cache;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 2'000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  // Reader: under the all-shards snapshot, an insertion can never be
  // visible before the miss that caused it (each writer inserts only right
  // after a miss on the same key).
  std::thread reader([&] {
    while (!stop.load()) {
      const rascad::cache::CacheCounters c = cache.block_counters();
      if (c.insertions > c.misses) violations.fetch_add(1);
    }
  });

  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        rascad::cache::Signature key;
        key.append_word(t * kOpsPerThread + i);
        if (!cache.find_block(key)) {
          cache.put_block(key, rascad::cache::CachedBlockSolve{});
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(violations.load(), 0u);
  const rascad::cache::CacheCounters totals = cache.block_counters();
  EXPECT_EQ(totals.hits + totals.misses, kThreads * kOpsPerThread);
  EXPECT_EQ(totals.misses, kThreads * kOpsPerThread);  // keys are unique
  EXPECT_EQ(totals.insertions, kThreads * kOpsPerThread);
}

// --- bench metrics line --------------------------------------------------

TEST_F(ObsTest, BenchMetricsLineFormat) {
  const std::string line = BenchMetricsLine("demo")
                               .metric("count", 42)
                               .metric("ratio", 0.5)
                               .metric("label", "a\"b")
                               .metric("ok", true)
                               .str();
  EXPECT_EQ(line,
            "{\"bench\":\"demo\",\"metrics\":{\"count\":42,\"ratio\":0.5,"
            "\"label\":\"a\\\"b\",\"ok\":true}}");
  EXPECT_TRUE(valid_json_object(line));
}

// --- dump lifecycle regressions ------------------------------------------

namespace {
std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}
}  // namespace

// Regression for the peek-then-clear race: dump_jsonl (and every dump
// path) must take the trace with ONE atomic drain. The old sequence —
// peek_trace(), write the file, clear_trace() — destroyed every span
// recorded between the two calls. Here a second thread records spans
// continuously while the main thread dumps repeatedly; conservation must
// hold: every recorded span appears in exactly one dump.
TEST_F(ObsTest, DumpNeverDropsSpansRecordedConcurrently) {
  rascad::obs::set_enabled(true);
  constexpr std::size_t kSpans = 4000;
  std::atomic<bool> go{false};
  std::thread recorder([&] {
    while (!go.load()) std::this_thread::yield();
    for (std::size_t i = 0; i < kSpans; ++i) {
      Span s("race.recorded");
      if ((i & 0x3ff) == 0) std::this_thread::yield();
    }
  });

  std::string all;
  go.store(true);
  for (int round = 0; round < 50; ++round) {
    std::ostringstream os;
    rascad::obs::dump_jsonl(os);  // one atomic drain per dump
    all += os.str();
  }
  recorder.join();
  {
    std::ostringstream os;
    rascad::obs::dump_jsonl(os);  // final sweep picks up the tail
    all += os.str();
  }
  EXPECT_EQ(count_occurrences(all, "\"race.recorded\""), kSpans);
}

// A span still open while a dump runs must neither lose data nor produce
// a garbage duration: it stays buffered (absent from this dump) and
// surfaces in the next drain with a sane dur_us.
TEST_F(ObsTest, SpanHeldOpenAcrossDumpSurvivesWithSaneDuration) {
  rascad::obs::set_enabled(true);
  auto held = std::make_unique<Span>("held.open");
  std::ostringstream first;
  rascad::obs::dump_jsonl(first);
  EXPECT_EQ(count_occurrences(first.str(), "\"held.open\""), 0u)
      << "open span must stay owned by its Span object";
  held.reset();  // closes the span
  std::ostringstream second;
  rascad::obs::dump_jsonl(second);
  const std::string out = second.str();
  ASSERT_EQ(count_occurrences(out, "\"held.open\""), 1u);
  // No unsigned-underflow duration (~5.8e17 us) and not marked live.
  EXPECT_EQ(out.find("\"live\":true"), std::string::npos);
  EXPECT_EQ(out.find("e+17"), std::string::npos);
  EXPECT_EQ(out.find("e+18"), std::string::npos);
}

// write_trace_jsonl formatting contract for incoherent span timestamps:
// "live":true + "dur_us":null, never an underflowed unsigned duration.
TEST_F(ObsTest, LiveSpanRecordsMarkedInsteadOfUnderflowed) {
  TraceDump dump;
  SpanRecord open;
  open.id = 1;
  open.name = "live.open";
  open.start_ns = 5'000;
  open.end_ns = 0;  // never closed
  SpanRecord skewed;
  skewed.id = 2;
  skewed.name = "live.skewed";
  skewed.start_ns = 9'000;
  skewed.end_ns = 4'000;  // end before start
  SpanRecord closed;
  closed.id = 3;
  closed.name = "live.closed";
  closed.start_ns = 1'000;
  closed.end_ns = 3'000;
  dump.spans = {open, skewed, closed};
  std::ostringstream os;
  rascad::obs::write_trace_jsonl(os, dump);
  std::istringstream is(os.str());
  std::string line;
  std::size_t live = 0;
  while (std::getline(is, line)) {
    EXPECT_TRUE(valid_json_object(line)) << line;
    if (line.find("\"live\":true") != std::string::npos) {
      ++live;
      EXPECT_NE(line.find("\"dur_us\":null"), std::string::npos) << line;
    }
  }
  EXPECT_EQ(live, 2u);
  EXPECT_NE(os.str().find("\"live.closed\""), std::string::npos);
  EXPECT_NE(os.str().find("\"dur_us\":2"), std::string::npos);
}

// The obs.dropped trailer must carry its count as a JSON number.
TEST_F(ObsTest, DroppedTrailerCountIsNumeric) {
  TraceDump dump;
  dump.dropped = 37;
  std::ostringstream os;
  rascad::obs::write_trace_jsonl(os, dump);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"count\":37"), std::string::npos) << out;
  EXPECT_EQ(out.find("\"count\":\"37\""), std::string::npos) << out;
  std::istringstream is(out);
  std::string line;
  while (std::getline(is, line)) {
    EXPECT_TRUE(valid_json_object(line)) << line;
  }
}

// The incremental sink: repeated appends accumulate, each drains the
// trace exactly once, and a failed open leaves the trace intact.
TEST_F(ObsTest, AppendJsonlDrainsIncrementally) {
  rascad::obs::set_enabled(true);
  const std::string path =
      ::testing::TempDir() + "/rascad_obs_append_test.jsonl";
  std::remove(path.c_str());

  { Span s("append.first"); }
  ASSERT_TRUE(rascad::obs::append_jsonl(path));
  { Span s("append.second"); }
  ASSERT_TRUE(rascad::obs::append_jsonl(path));

  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string out = ss.str();
  EXPECT_EQ(count_occurrences(out, "\"append.first\""), 1u);
  EXPECT_EQ(count_occurrences(out, "\"append.second\""), 1u);
  EXPECT_EQ(count_occurrences(out, "\"type\":\"metrics\""), 2u);

  // Unwritable destination: returns false and keeps the buffered trace.
  { Span s("append.kept"); }
  EXPECT_FALSE(rascad::obs::append_jsonl(
      ::testing::TempDir() + "/no-such-dir-xyz/out.jsonl"));
  const TraceDump kept = rascad::obs::peek_trace();
  ASSERT_EQ(kept.spans.size(), 1u);
  EXPECT_STREQ(kept.spans[0].name, "append.kept");
  std::remove(path.c_str());
}

// --- histogram quantiles (serve latency reporting) ------------------------

TEST_F(ObsTest, HistogramQuantileInterpolatesBuckets) {
  Histogram h;
  EXPECT_TRUE(std::isnan(h.snapshot().quantile_ms(0.5)));  // empty: no estimate
  for (int i = 0; i < 100; ++i) h.observe_ms(0.5);   // bucket [~0.256, ~1)
  for (int i = 0; i < 100; ++i) h.observe_ms(100.0);
  const auto snap = h.snapshot();
  const double p25 = snap.quantile_ms(0.25);
  const double p99 = snap.quantile_ms(0.99);
  EXPECT_GT(p25, 0.0);
  EXPECT_LT(p25, 2.0);       // inside the low bucket's range
  EXPECT_GT(p99, 50.0);      // inside the high bucket's range
  EXPECT_LE(p99, 300.0);
  EXPECT_LE(snap.quantile_ms(0.0), p25);
  EXPECT_LE(p25, snap.quantile_ms(0.75));
}

}  // namespace
