// Exposition & scraping layer: Prometheus text format (name mapping,
// label escaping, cumulative buckets with the explicit +Inf closer),
// per-scraper metrics delta cursors (independence across concurrent
// scrapers, consistency after concurrent writers quiesce), trace cursors
// over the seq-stamped records (no duplicates, no interference with the
// drain-based dumps), and the watch-chunk JSONL writer.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export/delta.hpp"
#include "obs/export/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace {

using rascad::obs::Histogram;
using rascad::obs::MetricsSnapshot;
using rascad::obs::Registry;
using rascad::obs::TraceDump;
using rascad::obs::scrape::ExtraSample;
using rascad::obs::scrape::MetricsCursor;
using rascad::obs::scrape::TraceCursor;

class ObsExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rascad::obs::set_enabled(true);
    rascad::obs::clear_trace();
  }
  void TearDown() override {
    rascad::obs::clear_trace();
    rascad::obs::set_enabled(false);
  }
};

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ----------------------------------------------------------- exposition ----

TEST(ExpositionNameTest, SanitizesDotsInvalidCharsAndLeadingDigits) {
  using rascad::obs::scrape::exposition_name;
  EXPECT_EQ(exposition_name("serve.request_ms"), "rascad_serve_request_ms");
  EXPECT_EQ(exposition_name("cache.block.hits"), "rascad_cache_block_hits");
  EXPECT_EQ(exposition_name("weird-name!x"), "rascad_weird_name_x");
  EXPECT_EQ(exposition_name("9lives"), "rascad__9lives");
  EXPECT_EQ(exposition_name("a:b"), "rascad_a:b");  // colons are legal
}

TEST(ExpositionEscapeTest, LabelValuesEscapeBackslashQuoteAndNewline) {
  using rascad::obs::scrape::escape_label_value;
  EXPECT_EQ(escape_label_value(R"(plain)"), "plain");
  EXPECT_EQ(escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("a\nb"), "a\\nb");
  // The order matters: a backslash produced by escaping must not be
  // re-escaped. Input \" -> \\ then \" on the wire.
  EXPECT_EQ(escape_label_value("\\\""), "\\\\\\\"");
}

TEST(ExpositionEscapeTest, HelpTextEscapesBackslashAndNewlineOnly) {
  using rascad::obs::scrape::escape_help;
  EXPECT_EQ(escape_help("a\nb\\c\"d"), "a\\nb\\\\c\"d");
}

TEST_F(ObsExportTest, ExpositionWritesAllFamiliesWithHelpAndType) {
  Registry reg;
  reg.counter("serve.requests").inc(41);
  reg.counter("serve.requests").inc();
  reg.gauge("serve.queue_depth").set(7);
  auto& h = reg.histogram("serve.request_ms");
  h.observe_ms(0.002);   // bucket 1 (le 0.003)
  h.observe_ms(0.5);     // le 1.0
  h.observe_ms(5000.0);  // overflow bucket

  const std::string page =
      rascad::obs::scrape::exposition_text(reg.snapshot());
  EXPECT_TRUE(contains(page, "# HELP rascad_serve_requests_total "
                             "serve.requests\n"));
  EXPECT_TRUE(contains(page, "# TYPE rascad_serve_requests_total counter\n"));
  EXPECT_TRUE(contains(page, "rascad_serve_requests_total 42\n"));
  EXPECT_TRUE(contains(page, "# TYPE rascad_serve_queue_depth gauge\n"));
  EXPECT_TRUE(contains(page, "rascad_serve_queue_depth 7\n"));
  EXPECT_TRUE(contains(page, "# TYPE rascad_serve_request_ms histogram\n"));
  // Buckets are CUMULATIVE: the le="1" bucket counts both sub-ms samples.
  EXPECT_TRUE(contains(page, "rascad_serve_request_ms_bucket{le=\"0.003\"} 1\n"));
  EXPECT_TRUE(contains(page, "rascad_serve_request_ms_bucket{le=\"1\"} 2\n"));
  // The largest finite bound still excludes the overflow sample...
  EXPECT_TRUE(contains(page, "rascad_serve_request_ms_bucket{le=\"1000\"} 2\n"));
  // ...which only the explicit +Inf closer (== _count) includes.
  EXPECT_TRUE(contains(page, "rascad_serve_request_ms_bucket{le=\"+Inf\"} 3\n"));
  EXPECT_TRUE(contains(page, "rascad_serve_request_ms_count 3\n"));
}

TEST_F(ObsExportTest, ExpositionExtraSamplesCarryEscapedLabels) {
  Registry reg;  // empty: only the extras render
  const std::string page = rascad::obs::scrape::exposition_text(
      reg.snapshot(),
      {{"serve.info",
        {{"socket", "/tmp/a \"b\"\\c\nd.sock"}},
        1.0,
        "gauge"}});
  EXPECT_TRUE(contains(page, "# TYPE rascad_serve_info gauge\n"));
  EXPECT_TRUE(contains(
      page, "rascad_serve_info{socket=\"/tmp/a \\\"b\\\"\\\\c\\nd.sock\"} 1\n"));
}

TEST_F(ObsExportTest, EmptyHistogramQuantileIsNaNAndExpositionStillCloses) {
  Histogram h;
  EXPECT_TRUE(std::isnan(h.snapshot().quantile_ms(0.5)));
  Registry reg;
  (void)reg.histogram("idle_ms");
  const std::string page =
      rascad::obs::scrape::exposition_text(reg.snapshot());
  // An empty histogram is still a complete family: every bucket 0, the
  // +Inf closer present, count 0.
  EXPECT_TRUE(contains(page, "rascad_idle_ms_bucket{le=\"+Inf\"} 0\n"));
  EXPECT_TRUE(contains(page, "rascad_idle_ms_count 0\n"));
}

// --------------------------------------------------------- delta cursors ----

TEST_F(ObsExportTest, MetricsCursorFirstScrapeIsFullThenOnlyChanges) {
  Registry reg;
  reg.counter("a").inc(5);
  reg.gauge("g").set(1);
  reg.histogram("h").observe_ms(0.1);

  MetricsCursor cursor(reg);
  const MetricsSnapshot first = cursor.collect();
  EXPECT_EQ(first.counters.size(), 1u);
  EXPECT_EQ(first.gauges.size(), 1u);
  EXPECT_EQ(first.histograms.size(), 1u);
  EXPECT_EQ(first.counters[0].value, 5u);

  // Nothing moved: the delta is empty.
  const MetricsSnapshot quiet = cursor.collect();
  EXPECT_TRUE(quiet.counters.empty());
  EXPECT_TRUE(quiet.gauges.empty());
  EXPECT_TRUE(quiet.histograms.empty());

  // Only the touched series reappear, with CUMULATIVE values.
  reg.counter("a").inc(2);
  reg.histogram("h").observe_ms(0.2);
  const MetricsSnapshot delta = cursor.collect();
  ASSERT_EQ(delta.counters.size(), 1u);
  EXPECT_EQ(delta.counters[0].name, "a");
  EXPECT_EQ(delta.counters[0].value, 7u);
  EXPECT_TRUE(delta.gauges.empty());
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].data.count, 2u);
}

TEST_F(ObsExportTest, MetricsCursorReportsResetAsAChange) {
  Registry reg;
  reg.counter("a").inc(5);
  MetricsCursor cursor(reg);
  (void)cursor.collect();
  reg.reset();  // counter wraps back to 0 — "changed" must be !=, not >
  const MetricsSnapshot delta = cursor.collect();
  ASSERT_EQ(delta.counters.size(), 1u);
  EXPECT_EQ(delta.counters[0].value, 0u);
}

TEST_F(ObsExportTest, ConcurrentScrapersSeeIndependentConsistentDeltas) {
  Registry reg;
  auto& counter = reg.counter("work.items");
  constexpr int kWriters = 4;
  constexpr int kIncrementsPerWriter = 5000;

  // Two scrapers with different cadences race the writers. Invariants:
  // every scrape sees a cumulative value that never goes backwards, and
  // after the writers quiesce one more scrape lands each cursor on the
  // exact total — neither cursor can steal updates from the other.
  // The writers start only once both scrapers have scraped, so the two
  // really overlap even when the scheduler starts the threads late.
  std::atomic<bool> stop{false};
  std::atomic<int> scrapers_running{0};
  auto scraper = [&reg, &stop, &scrapers_running](std::uint64_t* last_seen,
                                                  std::uint64_t* scrapes) {
    MetricsCursor cursor(reg);
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot delta = cursor.collect();
      for (const auto& c : delta.counters) {
        EXPECT_GE(c.value, *last_seen);  // monotone under concurrent inc
        *last_seen = c.value;
      }
      if (++*scrapes == 1) scrapers_running.fetch_add(1);
    }
  };
  std::uint64_t seen_a = 0, seen_b = 0, scrapes_a = 0, scrapes_b = 0;
  std::thread scraper_a(scraper, &seen_a, &scrapes_a);
  std::thread scraper_b(scraper, &seen_b, &scrapes_b);

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&counter, &scrapers_running] {
      while (scrapers_running.load() < 2) std::this_thread::yield();
      for (int i = 0; i < kIncrementsPerWriter; ++i) counter.inc();
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  scraper_a.join();
  scraper_b.join();
  EXPECT_GT(scrapes_a, 0u);
  EXPECT_GT(scrapes_b, 0u);

  // Post-quiesce: each cursor independently converges on the total.
  const std::uint64_t total =
      static_cast<std::uint64_t>(kWriters) * kIncrementsPerWriter;
  for (int i = 0; i < 2; ++i) {
    MetricsCursor fresh(reg);
    const MetricsSnapshot full = fresh.collect();
    ASSERT_EQ(full.counters.size(), 1u);
    EXPECT_EQ(full.counters[0].value, total);
  }
}

// ---------------------------------------------------------- trace cursor ----

TEST_F(ObsExportTest, TraceCursorDeliversEachRecordOnceWithoutConsuming) {
  {
    rascad::obs::Span s("scrape.one");
  }
  rascad::obs::emit_event("scrape.evt", {{"k", "v"}});

  TraceCursor cursor;
  const TraceDump first = cursor.collect();
  EXPECT_EQ(first.spans.size(), 1u);
  EXPECT_EQ(first.events.size(), 1u);

  // Nothing new: the cursor's high-water mark filters everything out.
  const TraceDump quiet = cursor.collect();
  EXPECT_TRUE(quiet.spans.empty());
  EXPECT_TRUE(quiet.events.empty());

  {
    rascad::obs::Span s("scrape.two");
  }
  const TraceDump next = cursor.collect();
  ASSERT_EQ(next.spans.size(), 1u);
  EXPECT_STREQ(next.spans[0].name, "scrape.two");

  // Peeking never consumed: the drain path still owns every record.
  const TraceDump drained = rascad::obs::drain_trace();
  EXPECT_EQ(drained.spans.size(), 2u);
  EXPECT_EQ(drained.events.size(), 1u);
}

TEST_F(ObsExportTest, ConcurrentTraceScrapersNeverSeeDuplicates) {
  constexpr int kSpanThreads = 4;
  constexpr int kSpansPerThread = 400;

  std::atomic<bool> stop{false};
  // Each scraper records every (id) it saw; a duplicate within one
  // scraper is a correctness bug (the cross-buffer straggler race may
  // MISS a record mid-run — documented best-effort — but must never
  // deliver one twice).
  auto scraper = [&stop](bool* duplicate) {
    TraceCursor cursor;
    std::set<rascad::obs::SpanId> seen;
    while (!stop.load(std::memory_order_acquire)) {
      const TraceDump dump = cursor.collect();
      for (const auto& s : dump.spans) {
        if (!seen.insert(s.id).second) *duplicate = true;
      }
    }
    const TraceDump fin = cursor.collect();  // post-quiesce sweep
    for (const auto& s : fin.spans) {
      if (!seen.insert(s.id).second) *duplicate = true;
    }
  };
  bool dup_a = false, dup_b = false;
  std::thread scraper_a(scraper, &dup_a);
  std::thread scraper_b(scraper, &dup_b);

  std::vector<std::thread> producers;
  for (int t = 0; t < kSpanThreads; ++t) {
    producers.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        rascad::obs::Span s("scrape.load");
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  scraper_a.join();
  scraper_b.join();
  EXPECT_FALSE(dup_a);
  EXPECT_FALSE(dup_b);

  // After full quiesce a FRESH cursor sees every record exactly once.
  TraceCursor fresh;
  const TraceDump all = fresh.collect();
  EXPECT_EQ(all.spans.size(),
            static_cast<std::size_t>(kSpanThreads) * kSpansPerThread);
  std::set<rascad::obs::SpanId> ids;
  for (const auto& s : all.spans) EXPECT_TRUE(ids.insert(s.id).second);
}

// ------------------------------------------------------ delta JSONL chunk ----

TEST_F(ObsExportTest, DeltaJsonlAlwaysWritesTheHeartbeatLine) {
  std::ostringstream os;
  rascad::obs::scrape::write_delta_jsonl(os, MetricsSnapshot{}, TraceDump{});
  EXPECT_EQ(os.str(),
            "{\"type\":\"metrics_delta\",\"counters\":{},\"gauges\":{},"
            "\"histograms\":{}}\n");
}

TEST_F(ObsExportTest, DeltaJsonlCarriesMetricsAndTraceRecords) {
  Registry reg;
  reg.counter("serve.completed").inc(3);
  MetricsCursor metrics(reg);
  {
    rascad::obs::Span s("chunk.span");
  }
  TraceCursor trace;
  std::ostringstream os;
  rascad::obs::scrape::write_delta_jsonl(os, metrics.collect(),
                                         trace.collect());
  const std::string out = os.str();
  EXPECT_TRUE(contains(
      out, "{\"type\":\"metrics_delta\",\"counters\":{\"serve.completed\":3}"));
  EXPECT_TRUE(contains(out, "\"type\":\"span\""));
  EXPECT_TRUE(contains(out, "\"name\":\"chunk.span\""));
}

}  // namespace
