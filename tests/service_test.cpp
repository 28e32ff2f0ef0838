// Concurrent planning service: job-line parsing, the FNV-1a LRU cache,
// the work queue, batch determinism across thread counts, error
// isolation, and a CLI round-trip through the real `socet` binary.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <thread>
#include <utility>

#include "socet/opt/optimize.hpp"
#include "socet/service/cache.hpp"
#include "socet/service/job.hpp"
#include "socet/service/queue.hpp"
#include "socet/service/service.hpp"
#include "socet/systems/systems.hpp"
#include "socet/util/error.hpp"

namespace socet {
namespace {

using service::Job;
using service::Verb;

// ---------------------------------------------------------------- job lines

TEST(JobLine, ParsesEveryVerb) {
  EXPECT_EQ(service::parse_job_line("plan").verb, Verb::kPlan);
  EXPECT_EQ(service::parse_job_line("explore system=system2").verb,
            Verb::kExplore);
  EXPECT_EQ(service::parse_job_line("parallel selection=1,2").verb,
            Verb::kParallel);
  EXPECT_EQ(service::parse_job_line("program").verb, Verb::kProgram);
  const Job opt = service::parse_job_line("optimize area-budget=40");
  EXPECT_EQ(opt.verb, Verb::kOptimize);
  EXPECT_EQ(opt.objective, Job::Objective::kAreaBudget);
  EXPECT_EQ(opt.area_budget, 40u);
}

TEST(JobLine, CanonicalFormIsAFixpoint) {
  const std::vector<std::string> lines = {
      "plan system=barcode",
      "plan system=barcode selection=1,2,1 pipelined",
      "optimize system=system2 area-budget=100",
      "optimize system=barcode tat-budget=4000",
      "optimize system=barcode w1=1.5 w2=0.25",
      "explore system=system2",
      "parallel system=barcode selection=2,2,2",
      "program system=barcode",
  };
  for (const std::string& line : lines) {
    const Job job = service::parse_job_line(line);
    const std::string canonical = service::canonical_job_line(job);
    EXPECT_EQ(service::parse_job_line(canonical), job) << line;
    EXPECT_EQ(service::canonical_job_line(service::parse_job_line(canonical)),
              canonical)
        << line;
  }
}

TEST(JobLine, RejectsMalformedInput) {
  EXPECT_THROW(service::parse_job_line(""), util::Error);
  EXPECT_THROW(service::parse_job_line("pln system=barcode"), util::Error);
  EXPECT_THROW(service::parse_job_line("plan bogus=1"), util::Error);
  EXPECT_THROW(service::parse_job_line("plan area-budget=4"), util::Error);
  EXPECT_THROW(service::parse_job_line("optimize"), util::Error);
  EXPECT_THROW(
      service::parse_job_line("optimize area-budget=1 tat-budget=2"),
      util::Error);
  EXPECT_THROW(service::parse_job_line("explore selection=1,2"), util::Error);
  EXPECT_THROW(service::parse_job_line("plan system="), util::Error);
}

std::string parse_error(const std::string& line) {
  try {
    service::parse_job_line(line);
  } catch (const util::Error& error) {
    return error.what();
  }
  return "";
}

TEST(JobLine, ErrorsPointAtTheOffendingColumn) {
  // The verb is the first token; a leading-space line shifts it.
  EXPECT_EQ(parse_error("pln"),
            "unknown verb 'pln' (want plan|optimize|explore|parallel|"
            "program) (column 1)");
  EXPECT_EQ(parse_error("  pln"),
            "unknown verb 'pln' (want plan|optimize|explore|parallel|"
            "program) (column 3)");
  // "bogus=1" starts at column 6 of "plan bogus=1".
  EXPECT_EQ(parse_error("plan bogus=1"),
            "bad job option 'bogus=1' (column 6)");
  // A valid key whose verb does not take it points at the key.
  EXPECT_EQ(parse_error("explore selection=1,2"),
            "'selection' does not apply to verb explore (column 9)");
  EXPECT_EQ(parse_error("plan area-budget=4"),
            "'area-budget' only applies to verb optimize (column 6)");
  // Nested value-parse errors keep their message and gain the column.
  EXPECT_EQ(parse_error("plan system=barcode selection=1,x"),
            "bad selection token 'x' (want a number) (column 21)");
  EXPECT_EQ(parse_error("optimize area-budget=many"),
            "bad area-budget 'many' (want a number) (column 10)");
  EXPECT_EQ(parse_error("optimize w1=1 w2=x"),
            "bad w2 'x' (want a number) (column 15)");
  EXPECT_EQ(parse_error("optimize area-budget=1 tat-budget=2"),
            "optimize takes exactly one objective (column 24)");
  EXPECT_EQ(parse_error("plan system="), "empty system name (column 6)");
}

TEST(JobLine, NumbersThatWouldWrapOrHalfParseAreRejected) {
  // Each of these used to plan: the budget and the selection token
  // wrapped modulo 2^32, `inf` passed as a weight.
  EXPECT_EQ(parse_error("optimize system=barcode area-budget=4294967297"),
            "bad area-budget '4294967297' (want 0..4294967295) (column 25)");
  EXPECT_EQ(parse_error("plan system=barcode selection=4294967297,1,1"),
            "bad selection token '4294967297' (want 0..4294967295) "
            "(column 21)");
  EXPECT_EQ(
      parse_error("optimize system=barcode tat-budget=18446744073709551616"),
      "bad tat-budget '18446744073709551616' (want "
      "0..18446744073709551615) (column 25)");
  EXPECT_EQ(parse_error("optimize system=barcode area-budget=-1"),
            "bad area-budget '-1' (want a number) (column 25)");
  EXPECT_EQ(parse_error("optimize system=barcode w1=inf w2=1"),
            "bad w1 'inf' (want a finite number) (column 25)");
  EXPECT_EQ(parse_error("optimize system=barcode w1=1 w2=nan"),
            "bad w2 'nan' (want a finite number) (column 30)");
  EXPECT_EQ(parse_error("optimize system=barcode w1=1x w2=1"),
            "bad w1 '1x' (want a number) (column 25)");
}

TEST(JobLine, TypeMaximaRoundTripThroughTheCanonicalLine) {
  const std::vector<std::string> lines = {
      "plan system=barcode selection=4294967295,1,1",
      "optimize system=barcode area-budget=4294967295",
      "optimize system=barcode tat-budget=18446744073709551615",
      "optimize system=barcode w1=1.7976931348623157e+308 w2=1",
  };
  for (const std::string& line : lines) {
    const Job job = service::parse_job_line(line);
    EXPECT_EQ(service::canonical_job_line(job), line);
    EXPECT_EQ(service::parse_job_line(service::canonical_job_line(job)), job)
        << line;
  }
}

TEST(SelectionSpec, StrictOneBasedParsing) {
  EXPECT_EQ(service::parse_selection_spec("1,2,3"),
            (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(service::parse_selection_spec("2"), (std::vector<unsigned>{1}));
  // The historical footgun: "0" used to underflow to UINT_MAX.
  EXPECT_THROW(service::parse_selection_spec("0"), util::Error);
  EXPECT_THROW(service::parse_selection_spec("0,1"), util::Error);
  EXPECT_THROW(service::parse_selection_spec(""), util::Error);
  EXPECT_THROW(service::parse_selection_spec("1,,2"), util::Error);
  EXPECT_THROW(service::parse_selection_spec("1,2,"), util::Error);
  EXPECT_THROW(service::parse_selection_spec("1,x"), util::Error);
  EXPECT_THROW(service::parse_selection_spec("1x"), util::Error);
  EXPECT_THROW(service::parse_selection_spec("-1"), util::Error);
}

// -------------------------------------------------------------------- cache

TEST(Fnv1a, MatchesReferenceVectors) {
  EXPECT_EQ(service::fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(service::fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(service::fnv1a("foobar"), 0x85944171f73967e8ull);
  // Chaining hashes the concatenation.
  EXPECT_EQ(service::fnv1a("bar", service::fnv1a("foo")),
            service::fnv1a("foobar"));
}

TEST(PlanCache, LruEvictsLeastRecentlyUsed) {
  service::PlanCache cache(2);
  cache.insert(1, {"one"});
  cache.insert(2, {"two"});
  ASSERT_TRUE(cache.lookup(1).has_value());  // 1 becomes most recent
  cache.insert(3, {"three"});          // evicts 2
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
  EXPECT_EQ(cache.size(), 2u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(PlanCache, ZeroCapacityDisablesMemoization) {
  service::PlanCache cache(0);
  cache.insert(1, {"one"});
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PlanCache, DuplicateInsertKeepsIncumbent) {
  service::PlanCache cache(4);
  cache.insert(1, {"first"});
  cache.insert(1, {"second"});
  EXPECT_EQ(cache.lookup(1)->payload, "first");
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(JobKey, DistinguishesEveryDimension) {
  const auto key_of = [](const std::string& line) {
    return service::job_key(service::parse_job_line(line));
  };
  std::set<std::uint64_t> keys = {
      key_of("plan system=barcode"),
      key_of("plan system=system2"),
      key_of("plan system=barcode selection=1,2,1"),
      key_of("plan system=barcode pipelined"),
      key_of("program system=barcode"),
      key_of("parallel system=barcode"),
      key_of("optimize system=barcode area-budget=40"),
      key_of("optimize system=barcode area-budget=41"),
      key_of("optimize system=barcode tat-budget=40"),
  };
  EXPECT_EQ(keys.size(), 9u);
  EXPECT_EQ(key_of("plan system=barcode"), key_of("plan  system=barcode"));
}

// -------------------------------------------------------------------- queue

TEST(WorkQueue, DrainsEveryItemExactlyOnceAcrossThreads) {
  service::WorkQueue<int> queue;
  constexpr int kItems = 500;
  for (int i = 0; i < kItems; ++i) ASSERT_TRUE(queue.push(i));
  queue.close();
  EXPECT_FALSE(queue.push(99));  // closed queues reject pushes

  std::mutex mutex;
  std::multiset<int> seen;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      while (auto item = queue.pop()) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.insert(*item);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(seen.count(i), 1u) << i;
}

// ------------------------------------------------------------------ service

std::vector<std::string> workload_64() {
  std::vector<std::string> lines;
  for (unsigned a = 1; a <= 3; ++a) {
    for (unsigned b = 1; b <= 3; ++b) {
      for (unsigned c = 1; c <= 3; ++c) {
        lines.push_back("plan system=barcode selection=" + std::to_string(a) +
                        "," + std::to_string(b) + "," + std::to_string(c));
      }
    }
  }  // 27 jobs
  for (unsigned budget = 0; budget <= 120; budget += 10) {
    lines.push_back("optimize system=barcode area-budget=" +
                    std::to_string(budget));
  }  // 13 jobs
  for (unsigned sel = 1; sel <= 3; ++sel) {
    lines.push_back("parallel system=system2 selection=" +
                    std::to_string(sel));
    lines.push_back("program system=barcode selection=" +
                    std::to_string(sel));
    lines.push_back("plan system=system2 selection=1," + std::to_string(sel) +
                    " pipelined");
  }  // 9 jobs
  lines.push_back("explore system=barcode");
  lines.push_back("explore system=system2");
  for (unsigned seed = 1; seed <= 13; ++seed) {
    lines.push_back("plan system=synthetic:" + std::to_string(seed));
  }  // 13 jobs
  EXPECT_EQ(lines.size(), 64u);
  return lines;
}

TEST(PlanningService, OutputIsByteIdenticalAcrossThreadCounts) {
  const auto lines = workload_64();
  std::string baseline;
  for (unsigned threads : {1u, 2u, 4u}) {
    service::PlanningService svc({threads, 4096});
    const auto report = svc.run_lines(lines);
    EXPECT_EQ(report.errors, 0u);
    EXPECT_EQ(report.results.size(), 64u);
    if (threads == 1) {
      baseline = report.records_text();
    } else {
      EXPECT_EQ(report.records_text(), baseline) << threads << " threads";
    }
  }
}

TEST(PlanningService, RepeatedJobsHitTheCache) {
  service::PlanningService svc({1, 4096});
  const std::vector<std::string> lines = {
      "plan system=barcode selection=1,2,1",
      "plan system=barcode selection=1,2,1",  // duplicate within a batch
  };
  const auto first = svc.run_lines(lines);
  EXPECT_EQ(first.cache.hits, 1u);
  EXPECT_EQ(first.cache.misses, 1u);
  EXPECT_TRUE(first.results[1].cache_hit);
  EXPECT_EQ(first.results[0].record.substr(6), first.results[1].record.substr(6));

  // A second batch against the same service hits on every job.
  const auto second = svc.run_lines(lines);
  EXPECT_EQ(second.cache.hits, 2u);
  EXPECT_EQ(second.cache.misses, 0u);
  EXPECT_EQ(second.records_text(), first.records_text());
}

TEST(PlanningService, CanonicalizedDuplicatesShareACacheEntry) {
  service::PlanningService svc({1, 4096});
  // Same job spelled two ways: option order is free, canonical form is not.
  const auto report = svc.run_lines(
      {"plan selection=1,2,1 system=barcode", "plan system=barcode selection=1,2,1"});
  EXPECT_EQ(report.cache.hits, 1u);
}

TEST(PlanningService, IsolatesBadJobsAndCountsErrors) {
  service::PlanningService svc({4, 4096});
  const std::vector<std::string> lines = {
      "plan system=barcode",
      "bogus job line",
      "plan system=does-not-exist",
      "plan system=barcode selection=9,9,9",
      "plan system=barcode selection=2",
      "optimize system=barcode area-budget=40",
  };
  const auto report = svc.run_lines(lines);
  ASSERT_EQ(report.results.size(), 6u);
  EXPECT_EQ(report.errors, 3u);
  EXPECT_TRUE(report.results[0].ok);
  EXPECT_FALSE(report.results[1].ok);
  EXPECT_NE(report.results[1].record.find("error"), std::string::npos);
  EXPECT_NE(report.results[1].record.find("unknown verb"), std::string::npos);
  EXPECT_FALSE(report.results[2].ok);
  EXPECT_FALSE(report.results[3].ok);
  EXPECT_TRUE(report.results[4].ok);  // short selections pad with version 1
  EXPECT_TRUE(report.results[5].ok);
  // Comments and blank lines produce no result slot at all.
  const auto with_noise =
      svc.run_lines({"# comment", "", "   ", "plan system=barcode"});
  EXPECT_EQ(with_noise.results.size(), 1u);
  EXPECT_EQ(with_noise.errors, 0u);
}

TEST(PlanningService, SummaryTableCarriesTheCounters) {
  service::PlanningService svc({2, 4096});
  const auto report = svc.run_lines(
      {"plan system=barcode", "plan system=barcode", "nonsense"});
  const std::string table = report.summary_table();
  EXPECT_NE(table.find("jobs run"), std::string::npos);
  EXPECT_NE(table.find("cache hit-rate"), std::string::npos);
  EXPECT_NE(table.find("batch wall time"), std::string::npos);
  EXPECT_EQ(report.errors, 1u);
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

TEST(Cli, BatchRoundTrip) {
  const std::string path = testing::TempDir() + "socet_service_jobs.txt";
  {
    std::ofstream file(path);
    file << "# a comment\n"
         << "plan system=barcode selection=1,2,1\n"
         << "optimize system=barcode area-budget=40\n"
         << "plan system=barcode selection=1,2,1\n";
  }
  const CliRun serial = run_cli("batch --jobs " + path + " --threads 1");
  EXPECT_EQ(serial.exit_code, 0);
  EXPECT_NE(serial.output.find("job 1 ok plan"), std::string::npos);
  EXPECT_NE(serial.output.find("job 2 ok optimize"), std::string::npos);
  const CliRun threaded = run_cli("batch --jobs " + path + " --threads 4");
  EXPECT_EQ(threaded.output, serial.output);

  {
    std::ofstream file(path, std::ios::app);
    file << "plan system=unknown-system\n";
  }
  const CliRun failing = run_cli("batch --jobs " + path + " --threads 2");
  EXPECT_EQ(failing.exit_code, 1);  // batch exit code reflects job errors
  EXPECT_NE(failing.output.find("job 4 error"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ObservabilityKeepsStdoutByteIdentical) {
  const std::string path = testing::TempDir() + "socet_obs_jobs.txt";
  {
    std::ofstream file(path);
    file << "plan system=barcode selection=1,2,1\n"
         << "optimize system=barcode area-budget=40\n"
         << "plan system=barcode selection=2,2,2\n"
         << "plan system=barcode selection=1,2,1\n"
         << "parallel system=barcode\n";
  }
  const CliRun plain = run_cli("batch --jobs " + path + " --threads 1");
  EXPECT_EQ(plain.exit_code, 0);
  // Tracing + metrics + journal never touch stdout, at any thread count.
  for (const char* threads : {"1", "8"}) {
    const std::string trace =
        testing::TempDir() + "socet_obs_trace_t" + threads + ".json";
    const std::string journal =
        testing::TempDir() + "socet_obs_journal_t" + threads + ".jsonl";
    const CliRun traced =
        run_cli("batch --jobs " + path + " --threads " + threads +
                " --trace " + trace + " --metrics --journal " + journal +
                " --flight-recorder 64");
    EXPECT_EQ(traced.exit_code, 0) << threads << " threads";
    EXPECT_EQ(traced.output, plain.output) << threads << " threads";
    std::ifstream file(trace);
    ASSERT_TRUE(file.good()) << trace;
    std::string json((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"service/job\""), std::string::npos);
    std::ifstream journal_file(journal);
    ASSERT_TRUE(journal_file.good()) << journal;
    std::string journal_text((std::istreambuf_iterator<char>(journal_file)),
                             std::istreambuf_iterator<char>());
    EXPECT_NE(journal_text.find("\"schema\":\"socet-journal-v1\""),
              std::string::npos);
    EXPECT_NE(journal_text.find("\"corr\":\"job-"), std::string::npos);
    std::remove(trace.c_str());
    std::remove(journal.c_str());
  }
  std::remove(path.c_str());
}

TEST(Cli, ReportFileCarriesMetricsAndSpans) {
  const std::string report = testing::TempDir() + "socet_obs_report.json";
  const CliRun run = run_cli("plan --system barcode --report " + report);
  EXPECT_EQ(run.exit_code, 0);
  std::ifstream file(report);
  ASSERT_TRUE(file.good());
  std::string json((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"schema\":\"socet-report-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"command\":\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"ccg/dijkstra_runs\""), std::string::npos);
  EXPECT_NE(json.find("\"soc/plan_chip_test\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  std::remove(report.c_str());
}

TEST(Cli, VerboseBatchStdoutStaysStable) {
  const std::string path = testing::TempDir() + "socet_obs_verbose.txt";
  {
    std::ofstream file(path);
    file << "plan system=barcode\n";
  }
  // --verbose adds per-job timing on stderr only; stdout is unchanged.
  const CliRun plain = run_cli("batch --jobs " + path);
  const CliRun verbose = run_cli("batch --jobs " + path + " --verbose");
  EXPECT_EQ(verbose.exit_code, 0);
  EXPECT_EQ(verbose.output, plain.output);
  std::remove(path.c_str());
}

TEST(Cli, RejectsBadSelectionAndUnknownCommand) {
  EXPECT_EQ(run_cli("plan --selection 0,1").exit_code, 1);
  EXPECT_EQ(run_cli("plan --selection 1,2,").exit_code, 1);
  EXPECT_EQ(run_cli("plan --selection 1,2,3,4").exit_code, 1);
  EXPECT_EQ(run_cli("pln").exit_code, 2);
  // `tail` is not a command: the daemon's journal is read with
  // `explain --connect` or `client journal`.
  EXPECT_EQ(run_cli("tail --connect 127.0.0.1:1").exit_code, 2);
  // Nor is `sweep`: `explore` prints the design-space CSV.
  EXPECT_EQ(run_cli("sweep --system barcode").exit_code, 2);
}

TEST(Cli, BatchRejectsAThreadCountThatWouldWrap) {
  const std::string path = testing::TempDir() + "socet_wrap_jobs.txt";
  {
    std::ofstream file(path);
    file << "plan system=barcode\n";
  }
  // 2^32 + 1 must be refused, not wrapped to a single worker.
  EXPECT_EQ(run_cli("batch --jobs " + path + " --threads 4294967297").exit_code,
            1);
  EXPECT_EQ(run_cli("batch --jobs " + path + " --threads 2").exit_code, 0);
  std::remove(path.c_str());
}

TEST(Cli, OptimizeRejectsNumbersThatWouldWrapOrHalfParse) {
  // Each used to plan: -1 and -5 wrapped to unconstrained budgets,
  // 4294967297 to 1, `12abc` read as 12, `inf` passed as a weight.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--area-budget -1", "--area-budget"},
      {"--area-budget 4294967297", "--area-budget"},
      {"--area-budget 12abc", "--area-budget"},
      {"--area-budget abc", "--area-budget"},
      {"--tat-budget -5", "--tat-budget"},
      {"--tat-budget 12abc", "--tat-budget"},
      {"--w1 1x", "--w1"},
      {"--w1 inf", "--w1"},
  };
  for (const auto& [flags, flag] : cases) {
    const CliRun run =
        run_cli("optimize --system barcode " + flags, " 2>&1 >/dev/null");
    EXPECT_EQ(run.exit_code, 1) << flags;
    EXPECT_NE(run.output.find("error: bad " + flag + " '"), std::string::npos)
        << flags << ": " << run.output;
  }
  EXPECT_EQ(run_cli("plan --selection 4294967297,1,1").exit_code, 1);
  EXPECT_EQ(
      run_cli("optimize --system barcode --area-budget 4294967295").exit_code,
      0);
}

TEST(Cli, FlightRecorderRejectsCapacitiesOutsideTheRing) {
  // `abc` and `-5` used to abort (exit 134) before the error handler;
  // 0, 5 and 99999999 were silently clamped to 16..65536.
  for (const std::string value : {"abc", "-5", "0", "5", "99999999"}) {
    const CliRun run = run_cli("plan --flight-recorder " + value,
                               " 2>&1 >/dev/null");
    EXPECT_EQ(run.exit_code, 1) << value;
    EXPECT_NE(run.output.find("error: bad --flight-recorder '" + value +
                              "' (want 16..65536)"),
              std::string::npos)
        << value << ": " << run.output;
  }
  EXPECT_EQ(run_cli("plan --flight-recorder 16").exit_code, 0);
  EXPECT_EQ(run_cli("plan --flight-recorder 65536").exit_code, 0);
}

}  // namespace
}  // namespace socet
