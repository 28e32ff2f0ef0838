// Observability subsystem: histogram bucket/quantile edge cases,
// counters under concurrent increments, trace export shape (`X` slices
// with parent ids, named worker lanes), span ids and after-the-fact
// spans, the run-report JSON with its per-stage span times and
// whole-run resources block.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "socet/obs/jsonin.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/report.hpp"
#include "socet/obs/timer.hpp"
#include "socet/obs/trace.hpp"

namespace socet {
namespace {

/// Count non-overlapping occurrences of `needle` in `text`.
std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Minimal structural JSON check: quotes, braces, and brackets balance
/// (good enough to catch truncated or unescaped output; the CI job runs
/// the real `python3 -m json.tool` on exported files).
bool json_balanced(const std::string& text) {
  long brace = 0;
  long bracket = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      default: break;
    }
    if (brace < 0 || bracket < 0) return false;
  }
  return !in_string && brace == 0 && bracket == 0;
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::instance().reset();
    obs::reset_trace();
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
  }
  void TearDown() override { SetUp(); }
};

// ---------------------------------------------------------------- histogram

TEST_F(ObsTest, EmptyHistogramReportsZeros) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST_F(ObsTest, SingleSampleIsReportedExactly) {
  obs::Histogram h;
  h.record(37);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 37u);
  EXPECT_EQ(h.max(), 37u);
  EXPECT_EQ(h.mean(), 37.0);
  // Every quantile of a one-sample distribution is that sample.
  EXPECT_EQ(h.quantile(0.0), 37.0);
  EXPECT_EQ(h.quantile(0.5), 37.0);
  EXPECT_EQ(h.quantile(1.0), 37.0);
}

TEST_F(ObsTest, BucketBoundariesArePowersOfTwo) {
  obs::Histogram h;
  // Bucket b covers (2^(b-1), 2^b]; zero and one land in bucket 0.
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  EXPECT_EQ(h.bucket_count(0), 2u);  // 0, 1
  EXPECT_EQ(h.bucket_count(1), 1u);  // 2
  EXPECT_EQ(h.bucket_count(2), 2u);  // 3, 4
  EXPECT_EQ(obs::Histogram::bucket_bound(0), 1u);
  EXPECT_EQ(obs::Histogram::bucket_bound(1), 2u);
  EXPECT_EQ(obs::Histogram::bucket_bound(2), 4u);
}

TEST_F(ObsTest, OverflowSamplesLandInTheLastBucket) {
  obs::Histogram h;
  const std::uint64_t huge = ~0ull - 1;
  h.record(huge);
  EXPECT_EQ(h.bucket_count(obs::Histogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.max(), huge);
  // The overflow bucket's estimate is clamped to the observed max.
  EXPECT_EQ(h.quantile(0.99), static_cast<double>(huge));
}

TEST_F(ObsTest, QuantilesAreMonotoneAndWithinRange) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, static_cast<double>(h.max()));
  EXPECT_GE(p50, static_cast<double>(h.min()));
  // Power-of-two buckets are coarse; the median of 1..1000 must still
  // land in the right order of magnitude.
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1000.0);
}

TEST_F(ObsTest, TopBucketInterpolatesToTheObservedMaxNotTheBound) {
  // 96 samples land in the (64, 128] bucket and 4 in (512, 1024].  The
  // p99 rank falls inside that final occupied bucket, whose power-of-two
  // ceiling (1024) is nearly twice the real maximum (513): the estimate
  // must interpolate toward the observed max, not the bucket bound.
  obs::Histogram h;
  for (int i = 0; i < 96; ++i) h.record(100);
  for (int i = 0; i < 4; ++i) h.record(513);
  const double p99 = h.quantile(0.99);
  EXPECT_GT(p99, 512.0);
  EXPECT_LT(p99, 513.0 + 1e-9);
  // The first occupied bucket is floored at the observed min, so the
  // median cannot dip below any recorded value.
  const double p50 = h.quantile(0.50);
  EXPECT_GE(p50, 100.0);
  EXPECT_LE(p50, 128.0);
}

TEST_F(ObsTest, ResetClearsEverything) {
  obs::Histogram h;
  h.record(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

// ----------------------------------------------------------------- registry

TEST_F(ObsTest, DisabledMetricsRecordNothing) {
  SOCET_COUNT("obs_test/disabled_counter");
  SOCET_HISTOGRAM("obs_test/disabled_histogram", 7);
  const auto snap = obs::Registry::instance().snapshot();
  for (const auto& c : snap.counters) {
    EXPECT_NE(c.name, "obs_test/disabled_counter");
  }
  for (const auto& h : snap.histograms) {
    EXPECT_NE(h.name, "obs_test/disabled_histogram");
  }
}

TEST_F(ObsTest, ConcurrentCounterIncrementsAreExact) {
  obs::set_metrics_enabled(true);
  constexpr unsigned kThreads = 8;
  constexpr unsigned kIncrements = 10000;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (unsigned i = 0; i < kIncrements; ++i) {
        SOCET_COUNT("obs_test/concurrent");
        SOCET_HISTOGRAM("obs_test/concurrent_hist", i);
        SOCET_GAUGE_MAX("obs_test/concurrent_gauge", i);
      }
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(obs::counter("obs_test/concurrent").value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(obs::histogram("obs_test/concurrent_hist").count(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(obs::gauge("obs_test/concurrent_gauge").value(),
            static_cast<std::int64_t>(kIncrements - 1));
}

TEST_F(ObsTest, SnapshotAndRenderersListEveryMetric) {
  obs::set_metrics_enabled(true);
  SOCET_COUNT_N("obs_test/a_counter", 3);
  SOCET_GAUGE_MAX("obs_test/a_gauge", 5);
  SOCET_HISTOGRAM("obs_test/a_histogram", 16);
  // Registered names survive Registry::reset() (the mutation macros
  // cache references into the registry), so when the whole binary runs
  // in one process — as the TSan CI job does — earlier tests' metrics
  // are still listed here with zeroed values.  Assert membership, not
  // an exact size.
  const auto snap = obs::Registry::instance().snapshot();
  EXPECT_GE(snap.size(), 3u);
  bool saw_counter = false;
  bool saw_gauge = false;
  bool saw_histogram = false;
  for (const auto& c : snap.counters) {
    saw_counter |= c.name == "obs_test/a_counter" && c.value == 3;
  }
  for (const auto& g : snap.gauges) {
    saw_gauge |= g.name == "obs_test/a_gauge" && g.value == 5;
  }
  for (const auto& h : snap.histograms) {
    saw_histogram |= h.name == "obs_test/a_histogram" && h.count == 1;
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_histogram);
  const std::string table = obs::Registry::instance().table_text();
  EXPECT_NE(table.find("obs_test/a_counter"), std::string::npos);
  EXPECT_NE(table.find("obs_test/a_gauge"), std::string::npos);
  EXPECT_NE(table.find("obs_test/a_histogram"), std::string::npos);
  const std::string json = obs::Registry::instance().json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"obs_test/a_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test/a_gauge\":5"), std::string::npos);
}

// -------------------------------------------------------------------- trace

TEST_F(ObsTest, DisabledTracingRecordsNoSpans) {
  { SOCET_SPAN("obs_test/ignored"); }
  obs::record_span("obs_test/ignored", 1, 2);
  EXPECT_TRUE(obs::collect_trace_events().empty());
}

TEST(SpanIds, UniqueAndNonZero) {
  // Scoped and after-the-fact spans on several threads draw from one
  // id counter: no id repeats and none is 0.  A recorded span keeps
  // its given times and is a root even inside an open scope.
  obs::reset_trace();
  obs::set_trace_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (std::uint64_t i = 0; i < 250; ++i) {
        SOCET_SPAN("obs_test/scoped");
        obs::record_span("obs_test/recorded", 1000 + i, 2000 + i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  obs::set_trace_enabled(false);

  const auto events = obs::collect_trace_events();
  ASSERT_EQ(events.size(), 2000u);
  std::set<std::uint64_t> ids;
  for (const auto& event : events) {
    EXPECT_NE(event.id, 0u);
    EXPECT_TRUE(ids.insert(event.id).second) << "duplicate span id";
    if (event.name == "obs_test/recorded") {
      EXPECT_EQ(event.parent, 0u);
      EXPECT_EQ(event.end_ns - event.start_ns, 1000u);
    }
  }
  obs::reset_trace();
}

TEST_F(ObsTest, TraceExportHasParentedSlicesAndWorkerLanes) {
  obs::set_trace_enabled(true);
  {
    SOCET_SPAN("obs_test/outer");
    { SOCET_SPAN("obs_test/inner"); }
    { SOCET_SPAN("obs_test/inner"); }
  }
  std::thread worker([] {
    obs::name_this_thread("worker-1");
    SOCET_SPAN("obs_test/worker_span");
  });
  worker.join();  // the worker's buffer retires before export
  obs::set_trace_enabled(false);

  const auto events = obs::collect_trace_events();
  ASSERT_EQ(events.size(), 4u);
  std::uint64_t outer_id = 0;
  for (const auto& event : events) {
    EXPECT_LE(event.start_ns, event.end_ns);
    EXPECT_NE(event.id, 0u);
    if (event.name == "obs_test/outer") outer_id = event.id;
  }
  ASSERT_NE(outer_id, 0u);
  for (const auto& event : events) {
    // Inner spans hang off the span open around them on their thread;
    // the outer span and the worker's span are roots.
    const std::uint64_t parent = event.name == "obs_test/inner" ? outer_id : 0;
    EXPECT_EQ(event.parent, parent) << event.name;
  }

  const std::string json = obs::chrome_trace_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 4u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""), 0u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"E\""), 0u);
  EXPECT_EQ(count_occurrences(json, "\"obs_test/inner\""), 2u);
  char parent[40];
  std::snprintf(parent, sizeof(parent), "\"parent\":\"0x%llx\"",
                static_cast<unsigned long long>(outer_id));
  EXPECT_EQ(count_occurrences(json, parent), 2u) << json;
  EXPECT_EQ(count_occurrences(json, "\"parent\":\"0x0\""), 2u) << json;
  // The worker lane is labelled via a thread_name metadata event.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"M\""), 1u);
  EXPECT_NE(json.find("\"worker-1\""), std::string::npos);
  // Slices are in start order: the outer span precedes its children.
  EXPECT_LT(json.find("\"obs_test/outer\""), json.find("\"obs_test/inner\""));
}

// ------------------------------------------------------------------- report

TEST_F(ObsTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape(std::string("a\nb")), "a\\nb");
}

TEST_F(ObsTest, JsonEscapeKeepsUtf8AndReplacesBytesThatAreNot) {
  // Well-formed 2-, 3- and 4-byte sequences pass through unchanged.
  EXPECT_EQ(obs::json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
  EXPECT_EQ(obs::json_escape("\xe2\x82\xac"), "\xe2\x82\xac");
  EXPECT_EQ(obs::json_escape("\xf0\x9f\x98\x80!"), "\xf0\x9f\x98\x80!");
  // Each byte that starts no well-formed sequence becomes U+FFFD.
  EXPECT_EQ(obs::json_escape("\xff"), "\\ufffd");
  EXPECT_EQ(obs::json_escape("a\xc3"), "a\\ufffd");             // truncated
  EXPECT_EQ(obs::json_escape("\xc0\xaf"), "\\ufffd\\ufffd");  // overlong
  EXPECT_EQ(obs::json_escape("\xed\xa0\x80"),                   // surrogate
            "\\ufffd\\ufffd\\ufffd");
  EXPECT_EQ(obs::json_escape("\xf4\x90\x80\x80"),  // above U+10FFFF
            "\\ufffd\\ufffd\\ufffd\\ufffd");
  EXPECT_EQ(obs::json_escape("\xe2\x82x"), "\\ufffd\\ufffdx");
  // The reader turns the escape back into U+FFFD's UTF-8 bytes.
  obs::JsonValue value;
  ASSERT_TRUE(obs::json_parse(
      "\"" + obs::json_escape("pl\xff" "an") + "\"", &value));
  EXPECT_EQ(value.string_value, "pl\xef\xbf\xbd" "an");
}

TEST_F(ObsTest, RunReportAggregatesSpansByStage) {
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  SOCET_COUNT("obs_test/report_counter");
  { SOCET_SPAN("stage_a/step_one"); }
  { SOCET_SPAN("stage_a/step_two"); }
  { SOCET_SPAN("stage_b/only"); }
  obs::set_trace_enabled(false);

  const std::string report = obs::run_report_json("obs_test");
  EXPECT_TRUE(json_balanced(report)) << report;
  EXPECT_NE(report.find("\"schema\":\"socet-report-v1\""), std::string::npos);
  EXPECT_NE(report.find("\"command\":\"obs_test\""), std::string::npos);
  EXPECT_NE(report.find("\"obs_test/report_counter\":1"), std::string::npos);
  EXPECT_NE(report.find("\"stage_a/step_one\""), std::string::npos);
  // Stage rollup: both stage_a spans fold into one "stage_a" entry.
  EXPECT_NE(report.find("\"stage_a\":{\"spans\":2"), std::string::npos);
  EXPECT_NE(report.find("\"stage_b\":{\"spans\":1"), std::string::npos);

  // Every span and stage entry carries its self time, never above its
  // total (none of these spans has a child).
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(report, &doc, &error)) << error << "\n" << report;
  const obs::JsonValue* span = doc.get("spans")->get("stage_a/step_one");
  ASSERT_NE(span, nullptr);
  const obs::JsonValue* stage = doc.get("stages")->get("stage_a");
  ASSERT_NE(stage, nullptr);
  for (const obs::JsonValue* entry : {span, stage}) {
    ASSERT_NE(entry->get("self_us"), nullptr) << report;
    EXPECT_TRUE(entry->get("self_us")->is_number());
    EXPECT_EQ(entry->get("self_us")->number_value,
              entry->get("total_us")->number_value);
  }
}

TEST_F(ObsTest, StopWatchIsMonotone) {
  const obs::StopWatch watch;
  const std::uint64_t a = watch.elapsed_ns();
  const std::uint64_t b = watch.elapsed_ns();
  EXPECT_LE(a, b);
  EXPECT_GE(obs::now_ns(), a);
}

TEST_F(ObsTest, JsonNumberEmitsNullForNonFinite) {
  // A NaN/Inf metric must read back as "not a number", never as a
  // perfect zero (the bench-line parser rejects null wall_ms).
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  EXPECT_EQ(obs::json_number(HUGE_VAL), "null");
  EXPECT_EQ(obs::json_number(-HUGE_VAL), "null");
  EXPECT_EQ(obs::json_number(12.0), "12");
  EXPECT_EQ(obs::json_number(12.5), "12.5");
}

// ---------------------------------------------------------------- resources

// Golden schema for the report's `resources` block, read back through
// the real parser rather than substring checks.
TEST_F(ObsTest, RunReportEmbedsResourcesBlock) {
  const std::string report = obs::run_report_json("obs_test");

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(report, &doc, &error)) << error << "\n" << report;
  const obs::JsonValue* resources = doc.get("resources");
  ASSERT_NE(resources, nullptr);
  const obs::JsonValue* run = resources->get("run");
  ASSERT_NE(run, nullptr);
  for (const char* key : {"peak_rss_kb", "utime_us", "stime_us",
                          "minor_faults", "major_faults"}) {
    const obs::JsonValue* field = run->get(key);
    ASSERT_NE(field, nullptr) << key;
    EXPECT_TRUE(field->is_number()) << key;
  }
  EXPECT_GT(run->get("peak_rss_kb")->number_value, 0);
  // Per-stage cost lives in the spans/stages blocks only.
  EXPECT_EQ(run->get("hw"), nullptr);
  EXPECT_EQ(resources->get("stages"), nullptr);
}

}  // namespace
}  // namespace socet
