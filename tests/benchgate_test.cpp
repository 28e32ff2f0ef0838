// Bench harness plumbing: the JSON reader, BENCH_ line parsing
// (including the null-wall_ms and skipped cases), repeat statistics,
// trajectory files, the noise-adjusted regression gate — the gate
// must fail on an injected 2x slowdown and pass at baseline — and the
// stage diff that attributes a regression between two points.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "socet/obs/benchgate.hpp"
#include "socet/obs/jsonin.hpp"

namespace socet::obs {
namespace {

using bench::Baseline;
using bench::BenchLine;
using bench::CheckOutcome;
using bench::RepeatStats;
using bench::RunRecord;

// ------------------------------------------------------------------- jsonin

TEST(JsonInTest, ParsesScalarsAndContainers) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(
      R"({"s":"a\nb","n":-12.5,"t":true,"f":false,"z":null,"a":[1,2,3],"o":{"k":7}})",
      &doc, &error))
      << error;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.get("s")->string_value, "a\nb");
  EXPECT_EQ(doc.get("n")->number_value, -12.5);
  EXPECT_TRUE(doc.get("t")->bool_value);
  EXPECT_FALSE(doc.get("f")->bool_value);
  EXPECT_TRUE(doc.get("z")->is_null());
  ASSERT_EQ(doc.get("a")->array_value.size(), 3u);
  EXPECT_EQ(doc.get("a")->array_value[2].number_value, 3.0);
  EXPECT_EQ(doc.get("o")->get("k")->number_value, 7.0);
  EXPECT_EQ(doc.get("missing"), nullptr);
}

TEST(JsonInTest, DecodesUnicodeEscapesAndScientificNumbers) {
  JsonValue doc;
  ASSERT_TRUE(json_parse(R"({"c":"Aé","e":1.5e3})", &doc));
  EXPECT_EQ(doc.get("c")->string_value, "A\xc3\xa9");
  EXPECT_EQ(doc.get("e")->number_value, 1500.0);
}

TEST(JsonInTest, RejectsMalformedDocuments) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(json_parse("{\"a\":}", &doc, &error));
  EXPECT_FALSE(json_parse("{\"a\":1", &doc, &error));
  EXPECT_FALSE(json_parse("[1,2,]extra", &doc, &error));
  EXPECT_FALSE(json_parse("{\"a\":1}trailing", &doc, &error));
  EXPECT_FALSE(json_parse("", &doc, &error));
  EXPECT_NE(error.find("at byte"), std::string::npos);
}

TEST(JsonInTest, BoundsContainerNestingDepth) {
  // A hostile `[[[[...]]]]` must be rejected by the depth limit, not
  // overflow the parser's recursion stack.
  const std::string deep(200, '[');
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(json_parse(deep + std::string(200, ']'), &doc, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos);

  // 90 levels is within the cap...
  std::string ok = std::string(90, '[') + "1" + std::string(90, ']');
  EXPECT_TRUE(json_parse(ok, &doc, &error)) << error;

  // ...and the counter unwinds on the way out: many *sibling*
  // containers never approach the limit.
  std::string wide = "[";
  for (int i = 0; i < 300; ++i) {
    if (i != 0) wide += ',';
    wide += "{\"a\":[1]}";
  }
  wide += "]";
  EXPECT_TRUE(json_parse(wide, &doc, &error)) << error;
  EXPECT_EQ(doc.array_value.size(), 300u);
}

// -------------------------------------------------------------- bench lines

TEST(BenchLineTest, ParsesLineWithExtrasAmongNoise) {
  const std::string stderr_text =
      "some warning\n"
      "BENCH_worked_example.json {\"name\":\"worked_example\",\"ok\":true,"
      "\"wall_ms\":12.5,\"speedup\":2.5}\n"
      "trailing noise\n";
  BenchLine line;
  std::string error;
  ASSERT_TRUE(bench::parse_bench_line(stderr_text, &line, &error)) << error;
  EXPECT_EQ(line.name, "worked_example");
  EXPECT_TRUE(line.ok);
  EXPECT_FALSE(line.skipped);
  EXPECT_EQ(line.wall_ms, 12.5);
  ASSERT_EQ(line.extra.size(), 1u);
  EXPECT_EQ(line.extra[0].first, "speedup");
  EXPECT_EQ(line.extra[0].second, 2.5);
}

TEST(BenchLineTest, ParsesSkippedFlag) {
  BenchLine line;
  ASSERT_TRUE(bench::parse_bench_line(
      "BENCH_t.json {\"name\":\"t\",\"ok\":true,\"skipped\":true,"
      "\"wall_ms\":3,\"skip_reason\":\"too few CPUs\"}\n",
      &line));
  EXPECT_TRUE(line.skipped);
  // skip_reason is a string, not a metric.
  EXPECT_TRUE(line.extra.empty());
}

TEST(BenchLineTest, NullWallMsIsRejectedNotZero) {
  // json_number renders NaN as null; the parser must refuse to turn
  // that into a zero-cost trajectory point.
  BenchLine line;
  std::string error;
  EXPECT_FALSE(bench::parse_bench_line(
      "BENCH_t.json {\"name\":\"t\",\"ok\":true,\"wall_ms\":null}\n", &line,
      &error));
  EXPECT_NE(error.find("wall_ms"), std::string::npos);
}

TEST(BenchLineTest, MissingLineOrFieldsFail) {
  BenchLine line;
  EXPECT_FALSE(bench::parse_bench_line("no bench output here\n", &line));
  EXPECT_FALSE(bench::parse_bench_line("BENCH_t.json {\"ok\":true}\n", &line));
  EXPECT_FALSE(
      bench::parse_bench_line("BENCH_t.json {\"name\":\"t\"}\n", &line));
  EXPECT_FALSE(bench::parse_bench_line("BENCH_t.json notjson\n", &line));
}

// -------------------------------------------------------------- statistics

TEST(RepeatStatsTest, OddAndEvenCounts) {
  RepeatStats odd = bench::summarize_repeats({30, 10, 20});
  EXPECT_EQ(odd.n, 3u);
  EXPECT_EQ(odd.min, 10);
  EXPECT_EQ(odd.median, 20);
  EXPECT_EQ(odd.q1, 15);
  EXPECT_EQ(odd.q3, 25);
  EXPECT_EQ(odd.iqr(), 10);

  RepeatStats even = bench::summarize_repeats({1, 2, 3, 4});
  EXPECT_EQ(even.median, 2.5);

  RepeatStats one = bench::summarize_repeats({7});
  EXPECT_EQ(one.median, 7);
  EXPECT_EQ(one.iqr(), 0);

  RepeatStats none = bench::summarize_repeats({});
  EXPECT_EQ(none.n, 0u);
  EXPECT_EQ(none.median, 0);
}

// -------------------------------------------------------------- trajectory

RunRecord make_record(const std::string& name, double median_ms,
                      double iqr_half = 0) {
  RunRecord record;
  record.name = name;
  record.ok = true;
  record.wall_ms = bench::summarize_repeats(
      {median_ms - iqr_half, median_ms, median_ms + iqr_half});
  record.max_rss_kb = 4096;
  record.utime_ms = median_ms;
  return record;
}

TEST(TrajectoryTest, AppendsPointsAcrossRuns) {
  const std::string first =
      bench::trajectory_json("", make_record("t", 10), "sha1");
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(first, &doc, &error)) << error << "\n" << first;
  EXPECT_EQ(doc.get("schema")->string_value, "socet-bench-trajectory-v1");
  EXPECT_EQ(doc.get("name")->string_value, "t");
  ASSERT_EQ(doc.get("points")->array_value.size(), 1u);
  const JsonValue& point = doc.get("points")->array_value[0];
  EXPECT_EQ(point.get("label")->string_value, "sha1");
  EXPECT_EQ(point.get("wall_ms_median")->number_value, 10.0);
  EXPECT_EQ(point.get("repeats")->number_value, 3.0);

  const std::string second =
      bench::trajectory_json(first, make_record("t", 12), "sha2");
  ASSERT_TRUE(json_parse(second, &doc, &error)) << error;
  ASSERT_EQ(doc.get("points")->array_value.size(), 2u);
  EXPECT_EQ(doc.get("points")->array_value[0].get("label")->string_value,
            "sha1");
  EXPECT_EQ(
      doc.get("points")->array_value[1].get("wall_ms_median")->number_value,
      12.0);
}

TEST(TrajectoryTest, CorruptExistingFileRestartsTrajectory) {
  const std::string text =
      bench::trajectory_json("{not json", make_record("t", 10), "");
  JsonValue doc;
  ASSERT_TRUE(json_parse(text, &doc));
  EXPECT_EQ(doc.get("points")->array_value.size(), 1u);
}

TEST(TrajectoryTest, LastMedianReturnsNewestComparablePoint) {
  std::string text = bench::trajectory_json("", make_record("t", 10), "a");
  text = bench::trajectory_json(text, make_record("t", 14), "b");
  double median = 0;
  ASSERT_TRUE(bench::trajectory_last_median(text, &median));
  EXPECT_EQ(median, 14.0);

  // A newer skipped point and a newer failed point both yield to the
  // last point that actually measured something.
  RunRecord skipped = make_record("t", 99);
  skipped.skipped = true;
  text = bench::trajectory_json(text, skipped, "c");
  RunRecord failed = make_record("t", 77);
  failed.ok = false;
  text = bench::trajectory_json(text, failed, "d");
  ASSERT_TRUE(bench::trajectory_last_median(text, &median));
  EXPECT_EQ(median, 14.0);
}

TEST(TrajectoryTest, LastMedianReturnsTheNewestComparablePointsExtras) {
  RunRecord older = make_record("t", 10);
  older.extra = {{"faults", 7}, {"stage_atpg_ms", 8}};
  RunRecord newer = make_record("t", 14);
  newer.extra = {{"faults", 7}, {"stage_atpg_ms", 12.5}};
  std::string text = bench::trajectory_json("", older, "a");
  text = bench::trajectory_json(text, newer, "b");
  RunRecord skipped = make_record("t", 99);
  skipped.skipped = true;
  skipped.extra = {{"stage_atpg_ms", 99}};
  text = bench::trajectory_json(text, skipped, "c");
  RunRecord failed = make_record("t", 77);
  failed.ok = false;
  failed.extra = {{"stage_atpg_ms", 77}};
  text = bench::trajectory_json(text, failed, "d");

  double median = 0;
  bench::Extras extra;
  ASSERT_TRUE(bench::trajectory_last_median(text, &median, &extra));
  EXPECT_EQ(median, 14.0);
  // The point's own fields (repeats, wall_ms_*, rusage) are not extras.
  EXPECT_EQ(extra, (bench::Extras{{"faults", 7}, {"stage_atpg_ms", 12.5}}));
}

TEST(TrajectoryTest, LastMedianRejectsEmptyCorruptOrAllSkipped) {
  double median = 0;
  EXPECT_FALSE(bench::trajectory_last_median("", &median));
  EXPECT_FALSE(bench::trajectory_last_median("{not json", &median));
  EXPECT_FALSE(bench::trajectory_last_median(
      R"({"schema":"other-v1","points":[{"wall_ms_median":5}]})", &median));
  RunRecord skipped = make_record("t", 5);
  skipped.skipped = true;
  const std::string only_skipped =
      bench::trajectory_json("", skipped, "a");
  EXPECT_FALSE(bench::trajectory_last_median(only_skipped, &median));
}

// -------------------------------------------------------------- stage diff

TEST(StageDiffTest, RankingTwoPointsNamesTheStageThatGrew) {
  const bench::Extras before = {{"faults", 7},
                                {"stage_atpg_ms", 8},
                                {"stage_faultsim_ms", 1.5},
                                {"stage_soc_ms", 0.5}};
  const bench::Extras after = {{"faults", 7},
                               {"stage_atpg_ms", 8},
                               {"stage_faultsim_ms", 4.5},
                               {"stage_soc_ms", 0.5}};
  const analyze::DiffResult result =
      analyze::diff(bench::stage_aggregate(10, before),
                    bench::stage_aggregate(13, after));
  EXPECT_EQ(result.guilty, "faultsim");
  ASSERT_EQ(result.entries.size(), 3u);  // `faults` is not a stage
  EXPECT_EQ(result.entries[0].stage, "faultsim");
  EXPECT_DOUBLE_EQ(result.entries[0].delta_us, 3000.0);
  EXPECT_DOUBLE_EQ(result.delta_us, 3000.0);
  EXPECT_NE(analyze::diff_text(result, 10).find("guilty stage: faultsim"),
            std::string::npos);
}

// ---------------------------------------------------------------- baseline

TEST(BaselineTest, RoundTripsThroughRenderAndParse) {
  const std::vector<RunRecord> records = {make_record("a", 10),
                                          make_record("b", 20)};
  const std::string text = bench::baseline_json(records);
  Baseline baseline;
  std::string error;
  ASSERT_TRUE(bench::parse_baseline(text, &baseline, &error)) << error;
  EXPECT_EQ(baseline.wall_ms.at("a"), 10.0);
  EXPECT_EQ(baseline.wall_ms.at("b"), 20.0);
}

TEST(BaselineTest, SkippedAndFailedRunsAreExcluded) {
  RunRecord skipped = make_record("skippy", 10);
  skipped.skipped = true;
  RunRecord failed = make_record("brokey", 10);
  failed.ok = false;
  Baseline baseline;
  ASSERT_TRUE(bench::parse_baseline(
      bench::baseline_json({skipped, failed, make_record("goody", 5)}),
      &baseline));
  EXPECT_EQ(baseline.wall_ms.size(), 1u);
  EXPECT_EQ(baseline.wall_ms.count("goody"), 1u);
}

TEST(BaselineTest, RejectsWrongSchemaOrShape) {
  Baseline baseline;
  EXPECT_FALSE(bench::parse_baseline("{}", &baseline));
  EXPECT_FALSE(bench::parse_baseline(
      "{\"schema\":\"other\",\"benches\":{}}", &baseline));
  EXPECT_FALSE(bench::parse_baseline(
      "{\"schema\":\"socet-bench-baseline-v1\",\"benches\":"
      "{\"a\":{\"wall_ms\":null}}}",
      &baseline));
}

// -------------------------------------------------------------------- gate

Baseline baseline_of(std::initializer_list<std::pair<std::string, double>> entries) {
  Baseline baseline;
  for (const auto& [name, ms] : entries) baseline.wall_ms[name] = ms;
  return baseline;
}

TEST(GateTest, PassesAtBaselineAndFailsOnDoubledWallTime) {
  const Baseline baseline = baseline_of({{"steady", 100.0}});

  // Unchanged performance (within tolerance): pass.
  auto ok = bench::check_against_baseline({make_record("steady", 104, 2)},
                                          baseline, 25.0);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].verdict, CheckOutcome::Verdict::kPass);
  EXPECT_FALSE(bench::has_regression(ok));

  // Injected 2x slowdown: regression, even with sizeable jitter.
  auto slow = bench::check_against_baseline({make_record("steady", 200, 10)},
                                            baseline, 25.0);
  EXPECT_EQ(slow[0].verdict, CheckOutcome::Verdict::kRegression);
  EXPECT_TRUE(bench::has_regression(slow));
}

TEST(GateTest, IqrAllowanceIsCappedAtTheToleranceMargin) {
  const Baseline baseline = baseline_of({{"jittery", 100.0}});
  // margin = 25ms, IQR capped at 25ms -> limit 150ms; a genuine 2x
  // slowdown cannot hide behind noise however wild the IQR.
  auto outcome = bench::check_against_baseline(
      {make_record("jittery", 200, 500)}, baseline, 25.0);
  EXPECT_EQ(outcome[0].limit_ms, 150.0);
  EXPECT_EQ(outcome[0].verdict, CheckOutcome::Verdict::kRegression);
}

TEST(GateTest, SkippedFailedAndUnknownBenchesAreLabelled) {
  const Baseline baseline = baseline_of({{"skippy", 10.0}, {"brokey", 10.0}});
  RunRecord skipped = make_record("skippy", 100);
  skipped.skipped = true;
  RunRecord failed = make_record("brokey", 5);
  failed.ok = false;
  const RunRecord unknown = make_record("newcomer", 5);

  const auto outcomes = bench::check_against_baseline(
      {skipped, failed, unknown}, baseline, 25.0);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].verdict, CheckOutcome::Verdict::kSkipped);
  EXPECT_EQ(outcomes[1].verdict, CheckOutcome::Verdict::kFailed);
  EXPECT_EQ(outcomes[2].verdict, CheckOutcome::Verdict::kNoBaseline);
  // A skipped 10x-over-baseline bench is not a regression; the failed
  // one still fails the gate.
  EXPECT_TRUE(bench::has_regression(outcomes));
  EXPECT_FALSE(bench::has_regression({outcomes[0], outcomes[2]}));
}

}  // namespace
}  // namespace socet::obs
