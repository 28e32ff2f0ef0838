// Observability subsystem: histogram bucket/quantile edge cases,
// counters under concurrent increments, trace export shape (matched B/E
// pairs, named worker lanes), the run-report JSON with its per-stage
// span times and whole-run resources block, and the sampling profiler.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "socet/obs/jsonin.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/report.hpp"
#include "socet/obs/sampler.hpp"
#include "socet/obs/timer.hpp"
#include "socet/obs/trace.hpp"

#if defined(__linux__)
#include <signal.h>
#include <sys/time.h>
#endif

// Busy-loop leaf for the profiler smoke test: extern "C", noinline, and
// globally visible so `dladdr` can attribute samples to it by name
// (the obs library links with -rdynamic on Linux for exactly this).
// Callers go through the volatile pointer below — a direct call lets
// the optimizer emit local `.constprop` clones whose addresses are not
// in the dynamic symbol table, so samples would land in the clone and
// symbolize as `test_obs+0x...` instead of the function name.
std::atomic<unsigned long> socet_obs_test_spin_beat{0};

extern "C" __attribute__((noinline)) double socet_obs_test_busy_spin(
    unsigned long iters) {
  volatile double acc = 0;
  for (unsigned long i = 0; i < iters; ++i) {
    acc = acc + static_cast<double>(i & 1023u) * 1.0000001;
    // TSan defers async signals to the next atomic op or interceptor;
    // beating an atomic inside the loop makes SIGPROF fire while this
    // frame is on the stack, so attribution still works under TSan.
    if ((i & 255u) == 0) {
      socet_obs_test_spin_beat.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return acc;
}

double (*volatile socet_obs_test_busy_spin_ptr)(unsigned long) =
    socet_obs_test_busy_spin;

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
  SOCET_GAUGE_SET("obs_test/a_gauge", -5);
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
    saw_gauge |= g.name == "obs_test/a_gauge" && g.value == -5;
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
  EXPECT_NE(json.find("\"obs_test/a_gauge\":-5"), std::string::npos);
}

// -------------------------------------------------------------------- trace

TEST_F(ObsTest, DisabledTracingRecordsNoSpans) {
  { SOCET_SPAN("obs_test/ignored"); }
  EXPECT_TRUE(obs::collect_trace_events().empty());
}

TEST_F(ObsTest, TraceExportHasMatchedPairsAndWorkerLanes) {
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
  for (const auto& event : events) EXPECT_LE(event.start_ns, event.end_ns);

  const std::string json = obs::chrome_trace_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""), 4u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"E\""), 4u);
  EXPECT_EQ(count_occurrences(json, "\"obs_test/inner\""), 4u);  // 2 B + 2 E
  // The worker lane is labelled via a thread_name metadata event.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"M\""), 1u);
  EXPECT_NE(json.find("\"worker-1\""), std::string::npos);
  // Nesting: outer's B comes first in its lane (first mention) and its E
  // comes after every inner E (last mention).
  EXPECT_LT(json.find("\"obs_test/outer\""), json.find("\"obs_test/inner\""));
  EXPECT_GT(json.rfind("\"obs_test/outer\""), json.rfind("\"obs_test/inner\""));
}

// ------------------------------------------------------------------- report

TEST_F(ObsTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape(std::string("a\nb")), "a\\nb");
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

// ------------------------------------------------------------------ sampler

#if defined(__linux__)

TEST_F(ObsTest, DisabledSamplerInstallsNoHandler) {
  ASSERT_FALSE(obs::Sampler::running());
  struct sigaction current {};
  ASSERT_EQ(sigaction(SIGPROF, nullptr, &current), 0);
  EXPECT_EQ(current.sa_handler, SIG_DFL);
  itimerval timer{};
  ASSERT_EQ(getitimer(ITIMER_PROF, &timer), 0);
  EXPECT_EQ(timer.it_interval.tv_sec, 0);
  EXPECT_EQ(timer.it_interval.tv_usec, 0);
  EXPECT_EQ(timer.it_value.tv_sec, 0);
  EXPECT_EQ(timer.it_value.tv_usec, 0);
}

TEST_F(ObsTest, SamplerAttributesBusyLoopSamples) {
  ASSERT_TRUE(obs::sampler_supported());
  obs::Sampler::reset();
  obs::SamplerOptions options;
  options.interval_us = 500;  // 2 kHz so the smoke test stays short
  ASSERT_TRUE(obs::Sampler::start(options));
  EXPECT_TRUE(obs::Sampler::running());
  EXPECT_FALSE(obs::Sampler::start(options));  // no double-start

  volatile double sink = 0;
  const obs::StopWatch watch;
  while (obs::Sampler::sample_count() < 5 && watch.elapsed_ms() < 5000) {
    sink = sink + socet_obs_test_busy_spin_ptr(200000);
  }
  obs::Sampler::stop();
  EXPECT_FALSE(obs::Sampler::running());

  EXPECT_GE(obs::Sampler::sample_count(), 1u);
  const std::string folded = obs::Sampler::folded_stacks();
  EXPECT_NE(folded.find("socet_obs_test_busy_spin"), std::string::npos)
      << folded;
  const std::string table = obs::Sampler::top_functions_table();
  EXPECT_NE(table.find("samples"), std::string::npos);
  EXPECT_NE(table.find("socet_obs_test_busy_spin"), std::string::npos)
      << table;

  // stop() restored the default disposition and disarmed the timer.
  struct sigaction current {};
  ASSERT_EQ(sigaction(SIGPROF, nullptr, &current), 0);
  EXPECT_EQ(current.sa_handler, SIG_DFL);
  itimerval timer{};
  ASSERT_EQ(getitimer(ITIMER_PROF, &timer), 0);
  EXPECT_EQ(timer.it_value.tv_sec, 0);
  EXPECT_EQ(timer.it_value.tv_usec, 0);

  obs::Sampler::reset();
  EXPECT_EQ(obs::Sampler::sample_count(), 0u);
}

#endif  // __linux__

}  // namespace
}  // namespace socet
