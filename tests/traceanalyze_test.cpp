// Trace analytics engine: golden critical paths on hand-built span
// trees, aggregation quantiles against a naive oracle, diff ranking
// stability, malformed/truncated artifact rejection with line numbers,
// and CLI round-trips on real `batch --trace` artifacts.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "socet/obs/trace.hpp"
#include "socet/obs/traceanalyze.hpp"

namespace socet {
namespace {

using obs::analyze::Aggregate;
using obs::analyze::CriticalPath;
using obs::analyze::DiffResult;
using obs::analyze::NameStats;
using obs::analyze::TraceData;

/// One merged-format X slice with explicit hex span/parent ids.
std::string slice(const std::string& name, double ts, double dur,
                  std::uint64_t id, std::uint64_t parent, int pid = 1,
                  int tid = 1) {
  char ids[64];
  std::snprintf(ids, sizeof(ids), "\"span\":\"0x%llx\"",
                static_cast<unsigned long long>(id));
  std::string args = ids;
  if (parent != 0) {
    std::snprintf(ids, sizeof(ids), ",\"parent\":\"0x%llx\"",
                  static_cast<unsigned long long>(parent));
    args += ids;
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"name\":\"%s\",\"cat\":\"socet\",\"ph\":\"X\",\"ts\":%g,"
                "\"dur\":%g,\"pid\":%d,\"tid\":%d,\"args\":{",
                name.c_str(), ts, dur, pid, tid);
  return std::string(head) + args + "}}";
}

std::string chrome_doc(const std::vector<std::string>& events) {
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) out += ',';
    out += events[i];
  }
  return out + "]}";
}

TraceData load_ok(const std::string& text) {
  TraceData trace;
  std::string error;
  EXPECT_TRUE(obs::analyze::load_trace(text, &trace, &error)) << error;
  return trace;
}

// ---------------------------------------------------------- critical path

TEST(CriticalPathGolden, WalksBackThroughGatingChildren) {
  // root [0,100] with sequential children A [10,40] and B [50,90]:
  // the path must alternate root-self and child segments, covering
  // [0,100] exactly once.
  const TraceData trace = load_ok(chrome_doc({
      slice("job/root", 0, 100, 1, 0),
      slice("stage/a", 10, 30, 2, 1),
      slice("stage/b", 50, 40, 3, 1),
  }));
  ASSERT_EQ(trace.roots.size(), 1u);
  const auto paths = obs::analyze::critical_paths(trace);
  ASSERT_EQ(paths.size(), 1u);
  const CriticalPath& path = paths[0];
  EXPECT_EQ(path.root, "job/root");
  EXPECT_DOUBLE_EQ(path.total_us, 100.0);
  ASSERT_EQ(path.steps.size(), 5u);
  const char* expected_names[] = {"job/root", "stage/a", "job/root",
                                  "stage/b", "job/root"};
  const double expected_from[] = {0, 10, 40, 50, 90};
  const double expected_to[] = {10, 40, 50, 90, 100};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(path.steps[i].name, expected_names[i]) << "step " << i;
    EXPECT_DOUBLE_EQ(path.steps[i].from_us, expected_from[i]) << "step " << i;
    EXPECT_DOUBLE_EQ(path.steps[i].to_us, expected_to[i]) << "step " << i;
  }
  // Every microsecond attributed exactly once.
  double covered = 0;
  for (const auto& step : path.steps) covered += step.self_us();
  EXPECT_DOUBLE_EQ(covered, path.total_us);
}

TEST(CriticalPathGolden, ParallelChildIsNotDoubleCounted) {
  // C [5,95] dominates; D [20,80] runs concurrently underneath and
  // must not appear on the path.
  const TraceData trace = load_ok(chrome_doc({
      slice("job/root", 0, 100, 1, 0),
      slice("stage/c", 5, 90, 2, 1),
      slice("stage/d", 20, 60, 3, 1, 1, 2),
  }));
  const auto paths = obs::analyze::critical_paths(trace);
  ASSERT_EQ(paths.size(), 1u);
  double covered = 0;
  for (const auto& step : paths[0].steps) {
    EXPECT_NE(step.name, "stage/d");
    covered += step.self_us();
  }
  EXPECT_DOUBLE_EQ(covered, 100.0);
}

TEST(CriticalPathGolden, DeepNestingDescendsThroughEveryLevel) {
  const TraceData trace = load_ok(chrome_doc({
      slice("a/outer", 0, 100, 1, 0),
      slice("b/mid", 10, 80, 2, 1),
      slice("c/inner", 20, 60, 3, 2),
  }));
  const auto paths = obs::analyze::critical_paths(trace);
  ASSERT_EQ(paths.size(), 1u);
  int max_depth = 0;
  bool saw_inner = false;
  for (const auto& step : paths[0].steps) {
    max_depth = std::max(max_depth, step.depth);
    if (step.name == "c/inner") {
      saw_inner = true;
      EXPECT_EQ(step.depth, 2);
      EXPECT_DOUBLE_EQ(step.self_us(), 60.0);
    }
  }
  EXPECT_TRUE(saw_inner);
  EXPECT_EQ(max_depth, 2);
}

TEST(CriticalPathGolden, LocalBETraceNestsByContainment) {
  // The local --trace flavor: B/E pairs, no span ids; nesting comes
  // from containment within one (pid,tid) lane.
  const std::string doc =
      R"({"traceEvents":[)"
      R"({"name":"cli/run","cat":"socet","ph":"B","ts":0,"pid":1,"tid":1},)"
      "\n"
      R"({"name":"soc/plan","cat":"socet","ph":"B","ts":10,"pid":1,"tid":1},)"
      "\n"
      R"({"cat":"socet","ph":"E","ts":60,"pid":1,"tid":1},)"
      "\n"
      R"({"cat":"socet","ph":"E","ts":100,"pid":1,"tid":1}]})";
  const TraceData trace = load_ok(doc);
  ASSERT_EQ(trace.spans.size(), 2u);
  ASSERT_EQ(trace.roots.size(), 1u);
  EXPECT_FALSE(trace.merged);
  const auto paths = obs::analyze::critical_paths(trace);
  ASSERT_EQ(paths.size(), 1u);
  ASSERT_EQ(paths[0].steps.size(), 3u);
  EXPECT_EQ(paths[0].steps[1].name, "soc/plan");
  EXPECT_DOUBLE_EQ(paths[0].steps[1].self_us(), 50.0);
}

// ------------------------------------------------------------ aggregation

TEST(AggregateQuantiles, ConstantDurationsAreExact) {
  // All spans last exactly 37us: observed-extreme clamping must pin
  // every quantile to 37 regardless of bucket width.
  std::vector<std::string> events;
  for (int i = 0; i < 20; ++i) {
    events.push_back(slice("stage/same", i * 100.0, 37,
                           static_cast<std::uint64_t>(i + 1), 0));
  }
  const Aggregate agg = obs::analyze::aggregate({load_ok(chrome_doc(events))});
  ASSERT_EQ(agg.by_name.size(), 1u);
  const NameStats& s = agg.by_name[0];
  EXPECT_EQ(s.count, 20u);
  EXPECT_DOUBLE_EQ(s.min_us, 37.0);
  EXPECT_DOUBLE_EQ(s.max_us, 37.0);
  EXPECT_DOUBLE_EQ(s.p50_us, 37.0);
  EXPECT_DOUBLE_EQ(s.p90_us, 37.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 37.0);
  EXPECT_DOUBLE_EQ(s.total_us, 20 * 37.0);
}

TEST(AggregateQuantiles, TrackNaiveOracleWithinBucketResolution) {
  // Durations 1..200us.  The 64-bucket power-of-two layout loses
  // in-bucket detail, so the estimate must land within the bucket that
  // holds the true order statistic: [oracle/2, oracle*2], and between
  // the observed extremes.
  std::vector<std::string> events;
  std::vector<double> durations;
  for (int i = 1; i <= 200; ++i) {
    durations.push_back(i);
    events.push_back(slice("stage/ramp", i * 300.0, i,
                           static_cast<std::uint64_t>(i), 0));
  }
  const Aggregate agg = obs::analyze::aggregate({load_ok(chrome_doc(events))});
  ASSERT_EQ(agg.by_name.size(), 1u);
  const NameStats& s = agg.by_name[0];
  std::sort(durations.begin(), durations.end());
  const auto oracle = [&durations](double q) {
    const std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(durations.size() - 1));
    return durations[rank];
  };
  for (const auto& [q, value] :
       std::vector<std::pair<double, double>>{
           {0.50, s.p50_us}, {0.90, s.p90_us}, {0.99, s.p99_us}}) {
    const double truth = oracle(q);
    EXPECT_GE(value, truth / 2) << "q=" << q;
    EXPECT_LE(value, truth * 2) << "q=" << q;
    EXPECT_GE(value, s.min_us);
    EXPECT_LE(value, s.max_us);
  }
  EXPECT_DOUBLE_EQ(s.min_us, 1.0);
  EXPECT_DOUBLE_EQ(s.max_us, 200.0);
  EXPECT_DOUBLE_EQ(s.total_us, 200.0 * 201.0 / 2);
}

TEST(AggregateSelfTime, OverlappingChildrenAreUnionMerged) {
  // Children [10,50] and [40,80] overlap by 10us; the union covers
  // 70us, so the root keeps 30us of self time (not 20).
  const Aggregate agg = obs::analyze::aggregate({load_ok(chrome_doc({
      slice("job/root", 0, 100, 1, 0),
      slice("stage/x", 10, 40, 2, 1),
      slice("stage/y", 40, 40, 3, 1, 1, 2),
  }))});
  for (const NameStats& s : agg.by_name) {
    if (s.name == "job/root") EXPECT_DOUBLE_EQ(s.self_us, 30.0);
  }
  ASSERT_EQ(agg.by_stage.size(), 2u);  // job + stage
  EXPECT_DOUBLE_EQ(agg.wall_us, 100.0);
}

TEST(AggregateDaemonSplit, QueueComputeRespondFromServeSpans) {
  const Aggregate agg = obs::analyze::aggregate({load_ok(chrome_doc({
      slice("submit #1", 0, 100, 1, 0),
      slice("serve/queue", 5, 20, 2, 1),
      slice("serve/job", 25, 60, 3, 1, 2, 7),
      slice("serve/respond", 85, 10, 4, 1, 2, 900),
  }))});
  EXPECT_DOUBLE_EQ(agg.queue_us, 20.0);
  EXPECT_DOUBLE_EQ(agg.compute_us, 60.0);
  EXPECT_DOUBLE_EQ(agg.respond_us, 10.0);
}

TEST(FoldedStacks, EmitsSelfMicrosecondsPerPath) {
  const std::string folded = obs::analyze::folded_stacks({load_ok(chrome_doc({
      slice("job/root", 0, 100, 1, 0),
      slice("stage/a", 10, 30, 2, 1),
  }))});
  EXPECT_NE(folded.find("job/root 70\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("job/root;stage/a 30\n"), std::string::npos) << folded;
}

// -------------------------------------------------------------------- diff

Aggregate two_stage_aggregate(double a_dur, double b_dur) {
  return obs::analyze::aggregate({load_ok(chrome_doc({
      slice("alpha/work", 0, a_dur, 1, 0),
      slice("beta/work", 1000, b_dur, 2, 0),
  }))});
}

TEST(Diff, IdenticalAggregatesReportZeroAttribution) {
  const Aggregate agg = two_stage_aggregate(50, 70);
  const DiffResult result = obs::analyze::diff(agg, agg);
  EXPECT_DOUBLE_EQ(result.delta_us, 0.0);
  EXPECT_TRUE(result.guilty.empty());
  for (const auto& entry : result.entries) {
    EXPECT_DOUBLE_EQ(entry.delta_us, 0.0);
    EXPECT_DOUBLE_EQ(entry.share_pct, 0.0);
  }
}

TEST(Diff, SlowedStageRanksFirst) {
  const Aggregate before = two_stage_aggregate(50, 70);
  const Aggregate after = two_stage_aggregate(50, 700);  // beta 10x slower
  const DiffResult result = obs::analyze::diff(before, after);
  ASSERT_FALSE(result.entries.empty());
  EXPECT_EQ(result.entries[0].stage, "beta");
  EXPECT_EQ(result.guilty, "beta");
  EXPECT_DOUBLE_EQ(result.entries[0].delta_us, 630.0);
  EXPECT_NEAR(result.entries[0].share_pct, 100.0, 1e-9);
}

TEST(Diff, RankingIsStableUnderTies) {
  // Both stages slow down by exactly 10us: the tie must break by name
  // so repeated runs render the same table.
  const Aggregate before = two_stage_aggregate(50, 70);
  const Aggregate after = two_stage_aggregate(60, 80);
  const DiffResult result = obs::analyze::diff(before, after);
  ASSERT_EQ(result.entries.size(), 2u);
  EXPECT_EQ(result.entries[0].stage, "alpha");
  EXPECT_EQ(result.entries[1].stage, "beta");
  EXPECT_EQ(result.guilty, "alpha");
  EXPECT_NEAR(result.entries[0].share_pct, 50.0, 1e-9);
}

TEST(Diff, StageOnlyInOneSideStillAttributes) {
  const Aggregate before = obs::analyze::aggregate(
      {load_ok(chrome_doc({slice("alpha/work", 0, 50, 1, 0)}))});
  const Aggregate after = two_stage_aggregate(50, 200);
  const DiffResult result = obs::analyze::diff(before, after);
  ASSERT_FALSE(result.entries.empty());
  EXPECT_EQ(result.entries[0].stage, "beta");
  EXPECT_DOUBLE_EQ(result.entries[0].a_us, 0.0);
  EXPECT_DOUBLE_EQ(result.entries[0].delta_us, 200.0);
}

// --------------------------------------------------- rejection / robustness

TEST(LoadTrace, TruncatedJsonNamesTheBreakLine) {
  // A document cut off mid-event on its third line.
  const std::string truncated =
      "{\"traceEvents\":[\n"
      "{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\"pid\":1,\"tid\":1},\n"
      "{\"name\":\"b\",\"ph\":\"X\",\"ts\":1,";
  TraceData trace;
  std::string error;
  EXPECT_FALSE(obs::analyze::load_trace(truncated, &trace, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(LoadTrace, UnclosedSpanIsATruncatedTrace) {
  const std::string doc =
      R"({"traceEvents":[)"
      R"({"name":"cli/run","ph":"B","ts":0,"pid":1,"tid":1}]})";
  TraceData trace;
  std::string error;
  EXPECT_FALSE(obs::analyze::load_trace(doc, &trace, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  EXPECT_NE(error.find("cli/run"), std::string::npos) << error;
}

TEST(LoadTrace, EndWithoutBeginIsRejected) {
  const std::string doc =
      R"({"traceEvents":[{"ph":"E","ts":5,"pid":1,"tid":1}]})";
  TraceData trace;
  std::string error;
  EXPECT_FALSE(obs::analyze::load_trace(doc, &trace, &error));
  EXPECT_NE(error.find("no open 'B'"), std::string::npos) << error;
}

TEST(LoadTrace, MissingTraceEventsAndEmptyInputAreRejected) {
  TraceData trace;
  std::string error;
  EXPECT_FALSE(obs::analyze::load_trace("{}", &trace, &error));
  EXPECT_NE(error.find("traceEvents"), std::string::npos) << error;
  EXPECT_FALSE(obs::analyze::load_trace("  \n ", &trace, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(LoadTrace, MalformedJournalLineIsNamed) {
  const std::string journal =
      "{\"schema\":\"socet-journal-v1\",\"events\":2}\n"
      "{\"seq\":0,\"ts_us\":10,\"tid\":1,\"corr\":\"job-1\","
      "\"span\":\"soc/plan\",\"type\":\"route\"}\n"
      "{broken\n";
  TraceData trace;
  std::string error;
  EXPECT_FALSE(obs::analyze::load_trace(journal, &trace, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(LoadTrace, JournalFoldsIntoPerCorrEnvelopes) {
  const std::string journal =
      "{\"schema\":\"socet-journal-v1\",\"events\":4}\n"
      "{\"seq\":0,\"ts_us\":10,\"tid\":1,\"corr\":\"job-1\","
      "\"span\":\"soc/plan\",\"type\":\"route\"}\n"
      "{\"seq\":1,\"ts_us\":50,\"tid\":1,\"corr\":\"job-1\","
      "\"span\":\"soc/plan\",\"type\":\"route\"}\n"
      "{\"seq\":2,\"ts_us\":60,\"tid\":1,\"corr\":\"job-1\","
      "\"span\":\"opt/move\",\"type\":\"move\"}\n"
      "{\"seq\":3,\"ts_us\":30,\"tid\":2,\"corr\":\"job-2\","
      "\"type\":\"cache\"}\n";
  const TraceData trace = load_ok(journal);
  EXPECT_TRUE(trace.journal);
  ASSERT_EQ(trace.roots.size(), 2u);  // job-1, job-2
  const Aggregate agg = obs::analyze::aggregate({trace});
  bool saw_plan = false;
  for (const NameStats& s : agg.by_name) {
    if (s.name == "soc/plan") {
      saw_plan = true;
      EXPECT_DOUBLE_EQ(s.total_us, 40.0);  // event envelope [10,50]
    }
  }
  EXPECT_TRUE(saw_plan);
}

TEST(LoadTrace, ExportedSpansPastOneSecondKeepTheirNesting) {
  // 1.5 s into a trace, microsecond gaps need more than six significant
  // digits: the exporter must not collapse or reorder these B/E events.
  obs::reset_trace();
  constexpr std::uint64_t kEpoch = 1'000'000'000;
  constexpr std::uint64_t kLate = kEpoch + 1'500'000'000;
  obs::detail::record_span("t/epoch", kEpoch, kEpoch + 1'000);
  obs::detail::record_span("t/outer", kLate, kLate + 3'000);
  obs::detail::record_span("t/inner", kLate + 1'000, kLate + 2'000);
  obs::detail::record_span("t/after", kLate + 3'000, kLate + 3'500);
  const std::string json = obs::chrome_trace_json();
  obs::reset_trace();

  const TraceData trace = load_ok(json);
  ASSERT_EQ(trace.spans.size(), 4u) << json;
  const auto index_of = [&trace](const std::string& name) {
    for (std::size_t i = 0; i < trace.spans.size(); ++i) {
      if (trace.spans[i].name == name) return static_cast<int>(i);
    }
    return -1;
  };
  const int outer = index_of("t/outer");
  const int inner = index_of("t/inner");
  const int after = index_of("t/after");
  ASSERT_GE(outer, 0);
  ASSERT_GE(inner, 0);
  ASSERT_GE(after, 0);
  EXPECT_EQ(trace.spans[inner].parent_index, outer) << json;
  EXPECT_EQ(trace.spans[outer].parent_index, -1);
  EXPECT_EQ(trace.spans[after].parent_index, -1);
  EXPECT_DOUBLE_EQ(trace.spans[outer].start_us, 1'500'000.0);
  EXPECT_DOUBLE_EQ(trace.spans[outer].dur_us(), 3.0);
  EXPECT_DOUBLE_EQ(trace.spans[inner].dur_us(), 1.0);
  EXPECT_DOUBLE_EQ(trace.spans[after].dur_us(), 0.5);
}

TEST(LoadTrace, EmptyTraceEventsIsValidAndEmpty) {
  const TraceData trace = load_ok("{\"traceEvents\":[]}");
  EXPECT_TRUE(trace.spans.empty());
  EXPECT_TRUE(obs::analyze::critical_paths(trace).empty());
  const Aggregate agg = obs::analyze::aggregate({trace});
  EXPECT_EQ(agg.span_count, 0u);
  EXPECT_FALSE(obs::analyze::analysis_json({}, agg).empty());
}

// ------------------------------------------------------------ CLI round-trip

struct CliRun {
  int exit_code = -1;
  std::string output;
};

/// Runs the CLI and captures stdout; `redirect` picks the streams
/// (" 2>&1 >/dev/null" captures stderr instead).
CliRun run_cli(const std::string& arguments,
               const std::string& redirect = " 2>/dev/null") {
  const std::string command =
      std::string(SOCET_CLI_PATH) + " " + arguments + redirect;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  CliRun run;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

/// Write a small batch job file and run `batch --trace` over it,
/// returning the trace path.
std::string traced_batch(const std::string& tag) {
  const std::string jobs = testing::TempDir() + "ta_jobs_" + tag + ".txt";
  {
    std::ofstream file(jobs);
    file << "plan system=barcode selection=1,2,1\n"
         << "optimize system=barcode area-budget=40\n";
  }
  const std::string trace = testing::TempDir() + "ta_trace_" + tag + ".json";
  const CliRun run =
      run_cli("batch --jobs " + jobs + " --threads 2 --trace " + trace);
  EXPECT_EQ(run.exit_code, 0);
  std::remove(jobs.c_str());
  return trace;
}

TEST(CliTraceAnalyze, RoundTripsARealBatchTraceArtifact) {
  const std::string trace = traced_batch("roundtrip");
  const CliRun text = run_cli("trace-analyze " + trace);
  EXPECT_EQ(text.exit_code, 0);
  EXPECT_NE(text.output.find("critical path"), std::string::npos)
      << text.output;
  EXPECT_NE(text.output.find("per-stage attribution"), std::string::npos);

  const CliRun json = run_cli("trace-analyze " + trace + " --json");
  EXPECT_EQ(json.exit_code, 0);
  EXPECT_NE(json.output.find("\"schema\":\"socet-trace-analysis-v1\""),
            std::string::npos)
      << json.output;
  std::remove(trace.c_str());
}

TEST(CliTraceAnalyze, DiffOfARunAgainstItselfIsQuiet) {
  const std::string trace = traced_batch("selfdiff");
  const CliRun diff = run_cli("trace-analyze --diff " + trace + " " + trace);
  EXPECT_EQ(diff.exit_code, 0);
  EXPECT_NE(diff.output.find("no stage got slower"), std::string::npos)
      << diff.output;
  std::remove(trace.c_str());
}

/// Write a batch-shaped trace whose soc/plan_chip_test span lasts
/// `plan_us`; every enclosing span grows with it, every other span
/// keeps its self time.  Returns the path.
std::string batch_shaped_trace(const std::string& tag, double plan_us) {
  const std::string path = testing::TempDir() + "ta_trace_" + tag + ".json";
  std::ofstream file(path);
  file << chrome_doc({
      slice("cli/batch", 0, plan_us + 500, 1, 0),
      slice("service/job", 10, plan_us + 400, 2, 1),
      slice("ccg/build", 20, 80, 3, 2),
      slice("soc/plan_chip_test", 100, plan_us, 4, 2),
      slice("opt/minimize_tat", plan_us + 150, 200, 5, 2),
  });
  return path;
}

TEST(CliTraceAnalyze, ArtificiallySlowedStageRanksFirst) {
  const std::string fast = batch_shaped_trace("fast", 2000);
  // The same run with 30 ms more in soc/plan_chip_test.
  const std::string slow = batch_shaped_trace("slow", 32000);
  const CliRun diff =
      run_cli("trace-analyze --diff " + fast + " " + slow + " --json");
  EXPECT_EQ(diff.exit_code, 0);
  EXPECT_NE(diff.output.find("\"guilty\":\"soc\""), std::string::npos)
      << diff.output;
  // The first (highest-delta) entry in the ranked stage array is soc.
  const auto stages_at = diff.output.find("\"stages\":[");
  ASSERT_NE(stages_at, std::string::npos);
  EXPECT_EQ(diff.output.find("{\"stage\":\"soc\"", stages_at),
            stages_at + std::string("\"stages\":[").size())
      << diff.output;
  std::remove(fast.c_str());
  std::remove(slow.c_str());
}

TEST(CliTraceAnalyze, BadInputFailsWithAUsefulError) {
  const std::string path = testing::TempDir() + "ta_bad.json";
  {
    std::ofstream file(path);
    file << "{\"traceEvents\":[\n{\"name\":\"a\",\"ph\":\"X\",";
  }
  const CliRun run = run_cli("trace-analyze " + path);
  EXPECT_NE(run.exit_code, 0);
  std::remove(path.c_str());
  EXPECT_NE(run_cli("trace-analyze").exit_code, 0);
  EXPECT_NE(run_cli("trace-analyze --diff only_one.json").exit_code, 0);
}

TEST(CliTraceAnalyze, TruncatedTraceReportsTheReasonAndLine) {
  const std::string path = testing::TempDir() + "ta_truncated.json";
  {
    std::ofstream file(path);
    file << "{\"traceEvents\":[\n"
            "{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\"pid\":1,\"tid\":1},\n"
            "{\"name\":\"b\",\"ph\":\"X\",\"ts\":1,";
  }
  const CliRun run = run_cli("trace-analyze " + path, " 2>&1 >/dev/null");
  EXPECT_EQ(run.exit_code, 1);
  // The reason follows the path and names the break line; an empty
  // reason would leave "<path>: " at the end of the message.
  EXPECT_NE(run.output.find(path + ": line 3"), std::string::npos)
      << run.output;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace socet
