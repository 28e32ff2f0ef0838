// Decision journal + flight recorder + `socet explain` provenance.
//
// Covers: the SOCET_EVENT fast path when disabled, typed field
// rendering, correlation scopes and span capture, multi-thread merge
// order, the flight-recorder ring (wrap-around, crash-handler dump),
// journal provenance of a full barcode plan — including the Section
// 5.1 reservation-shift bookkeeping cross-checked against the plan's
// own routes — the optimizer's rejection trail, the four explain
// queries, and the CLI `--journal` / `explain` round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "socet/obs/explain.hpp"
#include "socet/obs/journal.hpp"
#include "socet/obs/jsonin.hpp"
#include "socet/obs/trace.hpp"
#include "socet/opt/optimize.hpp"
#include "socet/service/client.hpp"
#include "socet/service/server.hpp"
#include "socet/service/service.hpp"
#include "socet/soc/parallel.hpp"
#include "socet/soc/schedule.hpp"
#include "socet/systems/systems.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#define SOCET_TEST_HAS_SIGNALS 1
#else
#define SOCET_TEST_HAS_SIGNALS 0
#endif

namespace socet {
namespace {

/// Every journal test starts and ends with a clean global journal.
class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::journal_reset(); }
  void TearDown() override { obs::journal_reset(); }
};

/// Parse the journal text all tests share; fails the test on error.
obs::JournalDoc load_or_die(const std::string& text) {
  obs::JournalDoc doc;
  std::string error;
  EXPECT_TRUE(obs::load_journal(text, &doc, &error)) << error;
  return doc;
}

const obs::JsonValue* field(const obs::JsonValue& event, const char* key) {
  return event.get(key);
}

std::string str_field(const obs::JsonValue& event, const char* key) {
  const obs::JsonValue* value = field(event, key);
  return value != nullptr ? value->string_or("") : "";
}

long long int_field(const obs::JsonValue& event, const char* key) {
  const obs::JsonValue* value = field(event, key);
  return value != nullptr && value->is_number()
             ? static_cast<long long>(value->number_value)
             : -1;
}

TEST_F(JournalTest, DisabledByDefaultRecordsNothing) {
  EXPECT_FALSE(obs::journal_enabled());
  SOCET_EVENT("test/noop", {"ignored", 1});
  EXPECT_EQ(obs::journal_event_count(), 0u);
  EXPECT_NE(obs::journal_jsonl().find("\"events\":0"), std::string::npos);
}

TEST_F(JournalTest, TapReceivesTypeCorrAndRenderedLine) {
  std::vector<std::string> lines;
  obs::journal_set_tap([&](const std::string& line) { lines.push_back(line); });
  // The tap alone is a sink: SOCET_EVENT takes the enabled path.
  EXPECT_TRUE(obs::journal_enabled());
  {
    obs::JournalScope scope("job-9");
    SOCET_EVENT("test/tap", {"k", 1});
  }
  SOCET_EVENT("test/bare", {"k", 2});
  // One call per event, each with the whole rendered line: the type and
  // correlation id travel inside it.
  ASSERT_EQ(lines.size(), 2u);
  const obs::JournalDoc doc = load_or_die(
      "{\"schema\":\"socet-journal-v1\"}\n" + lines[0] + "\n" + lines[1]);
  ASSERT_EQ(doc.events.size(), 2u);
  EXPECT_EQ(str_field(doc.events[0], "type"), "test/tap") << lines[0];
  EXPECT_EQ(str_field(doc.events[0], "corr"), "job-9") << lines[0];
  EXPECT_EQ(str_field(doc.events[1], "type"), "test/bare");
  // No scope, no correlation.
  EXPECT_EQ(field(doc.events[1], "corr"), nullptr) << lines[1];

  // An empty function uninstalls; the journal goes quiet again.
  obs::journal_set_tap({});
  EXPECT_FALSE(obs::journal_enabled());
  SOCET_EVENT("test/after", {"k", 3});
  EXPECT_EQ(lines.size(), 2u);
}

TEST_F(JournalTest, TapComposesWithTheMemorySink) {
  std::size_t taps = 0;
  obs::journal_start_memory();
  obs::journal_set_tap([&](const std::string&) { ++taps; });
  SOCET_EVENT("test/both", {"n", 1});
  EXPECT_EQ(taps, 1u);

  // Uninstalling the tap must not stop the memory sink.
  obs::journal_set_tap({});
  EXPECT_TRUE(obs::journal_enabled());
  SOCET_EVENT("test/both", {"n", 2});
  EXPECT_EQ(taps, 1u);
  obs::journal_stop();
  EXPECT_EQ(obs::journal_event_count(), 2u);  // both hit the memory sink
}

TEST_F(JournalTest, ResetClearsTheTap) {
  std::size_t taps = 0;
  obs::journal_set_tap([&](const std::string&) { ++taps; });
  obs::journal_reset();
  EXPECT_FALSE(obs::journal_enabled());
  SOCET_EVENT("test/gone", {"n", 1});
  EXPECT_EQ(taps, 0u);
}

TEST_F(JournalTest, MemorySinkRendersTypedFields) {
  obs::journal_start_memory();
  EXPECT_TRUE(obs::journal_enabled());
  SOCET_EVENT("test/kinds", {"s", "x\"y"}, {"b", true}, {"i", -3},
              {"u", 7u}, {"d", 1.5});
  obs::journal_stop();
  EXPECT_FALSE(obs::journal_enabled());
  EXPECT_EQ(obs::journal_event_count(), 1u);

  const std::string text = obs::journal_jsonl();
  EXPECT_NE(text.find("{\"schema\":\"socet-journal-v1\",\"events\":1}"),
            std::string::npos);
  EXPECT_NE(text.find("\"s\":\"x\\\"y\""), std::string::npos);
  EXPECT_NE(text.find("\"b\":true"), std::string::npos);
  EXPECT_NE(text.find("\"i\":-3"), std::string::npos);
  EXPECT_NE(text.find("\"u\":7"), std::string::npos);
  EXPECT_NE(text.find("\"d\":1.5"), std::string::npos);

  const obs::JournalDoc doc = load_or_die(text);
  ASSERT_EQ(doc.events.size(), 1u);
  EXPECT_EQ(str_field(doc.events[0], "type"), "test/kinds");
  EXPECT_EQ(int_field(doc.events[0], "seq"), 0);
}

TEST_F(JournalTest, ScopesNestAndSpansAreCaptured) {
  obs::journal_start_memory();
  {
    obs::Span span("test/outer");
    obs::JournalScope scope("job-7");
    SOCET_EVENT("test/first");
    {
      obs::JournalScope inner("job-8");
      SOCET_EVENT("test/second");
    }
    SOCET_EVENT("test/third");
  }
  SOCET_EVENT("test/fourth");  // outside every scope and span
  obs::journal_stop();

  const obs::JournalDoc doc = load_or_die(obs::journal_jsonl());
  ASSERT_EQ(doc.events.size(), 4u);
  EXPECT_EQ(str_field(doc.events[0], "corr"), "job-7");
  EXPECT_EQ(str_field(doc.events[0], "span"), "test/outer");
  EXPECT_EQ(str_field(doc.events[1], "corr"), "job-8");
  EXPECT_EQ(str_field(doc.events[2], "corr"), "job-7");
  EXPECT_EQ(field(doc.events[3], "corr"), nullptr);
  EXPECT_EQ(field(doc.events[3], "span"), nullptr);
}

TEST_F(JournalTest, ThreadsMergeInSequenceOrder) {
  obs::journal_start_memory();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        SOCET_EVENT("test/thread", {"worker", t}, {"i", i});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  obs::journal_stop();

  const obs::JournalDoc doc = load_or_die(obs::journal_jsonl());
  ASSERT_EQ(doc.events.size(), 200u);
  long long last_seq = -1;
  for (const obs::JsonValue& event : doc.events) {
    const long long seq = int_field(event, "seq");
    EXPECT_GT(seq, last_seq);  // strictly ascending, no duplicates
    last_seq = seq;
  }
}

#if SOCET_TEST_HAS_SIGNALS

TEST_F(JournalTest, FlightRingKeepsOnlyTheLastEvents) {
  obs::journal_start_flight(16, /*install_crash_handler=*/false);
  for (int i = 0; i < 40; ++i) {
    SOCET_EVENT("test/ring", {"idx", i});
  }
  obs::journal_stop();

  const std::string path = testing::TempDir() + "socet_flight_dump.jsonl";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  obs::journal_dump_flight(fd);
  ::close(fd);

  std::ifstream file(path);
  std::string dump((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  std::remove(path.c_str());

  EXPECT_NE(dump.find("\"kind\":\"flight\""), std::string::npos);
  // Capacity 16: events 24..39 survive, everything earlier was wrapped.
  EXPECT_NE(dump.find("\"idx\":39"), std::string::npos);
  EXPECT_NE(dump.find("\"idx\":24"), std::string::npos);
  EXPECT_EQ(dump.find("\"idx\":23}"), std::string::npos);
  EXPECT_EQ(dump.find("\"idx\":0}"), std::string::npos);
  // The dumping thread's span stack (empty here) is still reported.
  EXPECT_NE(dump.find("\"type\":\"crash/active_spans\""), std::string::npos);
}

using JournalDeathTest = JournalTest;

TEST_F(JournalDeathTest, CrashHandlerDumpsRingOnFatalSignal) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        obs::journal_start_flight(64, /*install_crash_handler=*/true);
        obs::Span span("test/crashing_phase");
        SOCET_EVENT("test/last_words", {"detail", "ring survives"});
        ::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV), "test/last_words");
}

#endif  // SOCET_TEST_HAS_SIGNALS

// ------------------------------------------------- pipeline provenance

/// Section 5.1 bookkeeping, recomputed from a plan's route: the total
/// number of cycles departures slid past the unreserved schedule.
unsigned route_shift(const soc::Route& route) {
  unsigned shift = 0;
  unsigned at = 0;
  for (const soc::RouteStep& step : route.steps) {
    shift += step.depart - at;
    at = step.arrive;
  }
  return shift;
}

TEST_F(JournalTest, BarcodePlanRecordsDecisionProvenance) {
  // Start before the system is built: the transparency version menus
  // (and their journal events) are created during system construction.
  obs::journal_start_memory();
  auto system = systems::make_barcode_system();
  const std::vector<unsigned> selection(3, 0);
  const auto plan = soc::plan_chip_test(*system.soc, selection);
  obs::journal_stop();
  const obs::JournalDoc doc = load_or_die(obs::journal_jsonl());

  std::size_t paths = 0;
  std::size_t planned = 0;
  for (const obs::JsonValue& event : doc.events) {
    const std::string type = str_field(event, "type");
    if (type == "transparency/path") ++paths;
    if (type != "soc/core_planned") continue;
    ++planned;
    // Section 5.1: TAT = vectors x period + flush (non-pipelined).
    const obs::JsonValue* pipelined = field(event, "pipelined");
    ASSERT_NE(pipelined, nullptr);
    ASSERT_FALSE(pipelined->bool_or(true));
    EXPECT_EQ(int_field(event, "tat"),
              int_field(event, "vectors") * int_field(event, "period") +
                  int_field(event, "flush"));
  }
  EXPECT_GT(paths, 0u);
  ASSERT_EQ(planned, plan.cores.size());

  // The journal's per-core TAT and reservation shifts must agree with
  // the plan object itself.
  for (const soc::CoreTestPlan& core_plan : plan.cores) {
    const std::string name = system.soc->core(core_plan.core).name();
    unsigned expected_shift = 0;
    for (const auto& [port, route] : core_plan.input_routes) {
      expected_shift += route_shift(route);
    }
    for (const auto& [port, route] : core_plan.output_routes) {
      expected_shift += route_shift(route);
    }
    long long journal_shift = 0;
    long long journal_tat = -1;
    for (const obs::JsonValue& event : doc.events) {
      if (str_field(event, "core") != name) continue;
      const std::string type = str_field(event, "type");
      if (type == "ccg/route") journal_shift += int_field(event, "shift");
      if (type == "soc/core_planned") journal_tat = int_field(event, "tat");
    }
    EXPECT_EQ(journal_shift, static_cast<long long>(expected_shift)) << name;
    EXPECT_EQ(journal_tat, static_cast<long long>(core_plan.tat)) << name;
  }

  // The barcode DISPLAY test reuses the PREPROCESSOR->CPU conduit for
  // both address halves, so at least one departure must slide.
  long long display_shift = 0;
  for (const obs::JsonValue& event : doc.events) {
    if (str_field(event, "type") == "ccg/route" &&
        str_field(event, "core") == "DISPLAY") {
      display_shift += int_field(event, "shift");
    }
  }
  EXPECT_GT(display_shift, 0);
}

TEST_F(JournalTest, ExplainQueriesAnswerFromAPlanJournal) {
  obs::journal_start_memory();
  auto system = systems::make_barcode_system();
  const auto plan = soc::plan_chip_test(*system.soc, {0, 0, 0});
  obs::journal_stop();
  const obs::JournalDoc doc = load_or_die(obs::journal_jsonl());

  const std::string version = obs::explain_version(doc, "CPU");
  EXPECT_NE(version.find("explain version \"CPU\""), std::string::npos);
  EXPECT_NE(version.find("edge_class=hscan"), std::string::npos);
  EXPECT_NE(version.find("edge_class=existing"), std::string::npos);

  const std::string route = obs::explain_route(doc, "CPU");
  EXPECT_NE(route.find("explain route \"CPU\""), std::string::npos);
  EXPECT_NE(route.find("tat=" + std::to_string(plan.cores[0].tat)),
            std::string::npos);
  EXPECT_NE(route.find("period=" + std::to_string(plan.cores[0].period)),
            std::string::npos);

  const std::string mux = obs::explain_mux(doc, "CPU");
  EXPECT_NE(mux.find("total mux cost"), std::string::npos);

  // Empty matches are an answer, not an error.
  const std::string none = obs::explain_mux(doc, "NO_SUCH_CORE");
  EXPECT_NE(none.find("0 mux insertion(s)"), std::string::npos);
}

TEST_F(JournalTest, OptimizerJournalExplainsRejections) {
  auto system = systems::make_barcode_system();
  obs::journal_start_memory();
  (void)opt::minimize_tat(*system.soc, /*area_budget_cells=*/100);
  obs::journal_stop();
  const obs::JournalDoc doc = load_or_die(obs::journal_jsonl());

  std::size_t proposals = 0;
  std::size_t results = 0;
  for (const obs::JsonValue& event : doc.events) {
    const std::string type = str_field(event, "type");
    if (type == "opt/propose") {
      ++proposals;
      const std::string outcome = str_field(event, "outcome");
      EXPECT_TRUE(outcome == "best" || outcome == "rejected") << outcome;
      if (outcome == "rejected") {
        EXPECT_FALSE(str_field(event, "reason").empty());
      }
    }
    if (type == "opt/result") ++results;
  }
  EXPECT_GT(proposals, 0u);
  EXPECT_EQ(results, 1u);

  const std::string reject = obs::explain_reject(doc, "CPU", "2");
  EXPECT_NE(reject.find("explain reject \"CPU\""), std::string::npos);
  EXPECT_NE(reject.find("reason="), std::string::npos);
}

TEST_F(JournalTest, ParallelScheduleRecordsSessionColoring) {
  auto system = systems::make_barcode_system();
  const std::vector<unsigned> selection(3, 0);
  const auto plan = soc::plan_chip_test(*system.soc, selection);

  obs::journal_start_memory();
  const auto schedule =
      soc::schedule_parallel(*system.soc, selection, plan);
  obs::journal_stop();
  const obs::JournalDoc doc = load_or_die(obs::journal_jsonl());

  std::size_t places = 0;
  std::size_t new_sessions = 0;
  std::size_t conflicts = 0;
  for (const obs::JsonValue& event : doc.events) {
    const std::string type = str_field(event, "type");
    if (type == "parallel/place") {
      ++places;
      const obs::JsonValue* fresh = field(event, "new_session");
      if (fresh != nullptr && fresh->bool_or(false)) ++new_sessions;
    }
    if (type == "parallel/conflict") ++conflicts;
  }
  EXPECT_EQ(places, plan.cores.size());
  EXPECT_EQ(new_sessions, schedule.sessions.size());
  // Barcode's conduit structure forces at least one conflict edge.
  EXPECT_GT(conflicts, 0u);
}

TEST_F(JournalTest, ServiceJobsCarryCacheProvenance) {
  obs::journal_start_memory();
  service::PlanningService svc({2, 4096});
  const std::vector<std::string> lines = {
      "plan system=barcode selection=1,2,1"};
  (void)svc.run_lines(lines);
  (void)svc.run_lines(lines);  // identical job: must hit the plan cache
  obs::journal_stop();

  const obs::JournalDoc doc = load_or_die(obs::journal_jsonl());
  std::vector<std::string> cache_outcomes;
  for (const obs::JsonValue& event : doc.events) {
    if (str_field(event, "type") != "service/job") continue;
    EXPECT_EQ(str_field(event, "corr"), "job-1");
    EXPECT_EQ(str_field(event, "verb"), "plan");
    EXPECT_EQ(str_field(event, "key").size(), 16u);  // %016llx
    cache_outcomes.push_back(str_field(event, "cache"));
  }
  ASSERT_EQ(cache_outcomes.size(), 2u);
  EXPECT_EQ(cache_outcomes[0], "miss");
  EXPECT_EQ(cache_outcomes[1], "hit");
}

TEST_F(JournalTest, ServeJournalCarriesWireCorrelationIds) {
  // The daemon path: corr ids travel in the frame header, the worker
  // opens its JournalScope under them, and a journal produced by
  // `socet serve` reads exactly like a local batch one — `socet
  // explain` queries transfer unchanged.
  obs::journal_start_memory();
  {
    service::ServerOptions options;
    options.threads = 1;  // FIFO: job-1's events land before job-2's
    service::Server server(std::move(options));
    server.start();
    service::ClientOptions client_options;
    client_options.port = server.port();
    service::Client client(client_options);
    (void)client.run_lines({"plan system=barcode selection=1,2,1",
                            "plan system=barcode selection=1,2,1"});
    server.request_drain();
    server.wait();  // workers joined: every journal writer is done
  }
  obs::journal_stop();

  const obs::JournalDoc doc = load_or_die(obs::journal_jsonl());
  std::vector<std::string> corrs;
  for (const obs::JsonValue& event : doc.events) {
    if (str_field(event, "type") != "service/job") continue;
    corrs.push_back(str_field(event, "corr"));
  }
  ASSERT_EQ(corrs.size(), 2u);
  EXPECT_EQ(corrs[0], "job-1");  // the wire id, not the req-N fallback
  EXPECT_EQ(corrs[1], "job-2");

  // The plan decisions recorded under that scope surface the same id.
  const std::string route = obs::explain_route(doc, "CPU");
  EXPECT_NE(route.find("explain route \"CPU\""), std::string::npos) << route;
  EXPECT_NE(route.find("corr=job-1"), std::string::npos) << route;
}

TEST_F(JournalTest, LoadJournalRejectsMalformedDocuments) {
  obs::JournalDoc doc;
  std::string error;
  EXPECT_FALSE(obs::load_journal("not json at all", &doc, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(obs::load_journal("{\"schema\":\"other-v9\"}\n", &doc, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  EXPECT_FALSE(obs::load_journal(
      "{\"schema\":\"socet-journal-v1\",\"events\":1}\n{\"seq\":0}\n", &doc,
      &error));
  EXPECT_NE(error.find("type"), std::string::npos);
  // An empty journal (header only) is valid.
  EXPECT_TRUE(obs::load_journal(
      "{\"schema\":\"socet-journal-v1\",\"events\":0}\n", &doc, &error))
      << error;
  EXPECT_TRUE(doc.events.empty());
}

// ------------------------------------------------------ CLI round-trip

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

TEST(Cli, JournalRecordAndExplainRoundTrip) {
  const std::string journal = testing::TempDir() + "socet_cli_journal.jsonl";
  const CliRun record = run_cli("plan --system barcode --journal " + journal);
  EXPECT_EQ(record.exit_code, 0);

  std::ifstream file(journal);
  ASSERT_TRUE(file.good()) << journal;
  std::string text((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  obs::JournalDoc doc;
  std::string error;
  ASSERT_TRUE(obs::load_journal(text, &doc, &error)) << error;
  EXPECT_FALSE(doc.events.empty());

  const CliRun route = run_cli("explain route CPU --journal " + journal);
  EXPECT_EQ(route.exit_code, 0);
  EXPECT_NE(route.output.find("explain route \"CPU\""), std::string::npos);
  EXPECT_NE(route.output.find("ccg/route"), std::string::npos);

  const CliRun version = run_cli("explain version CPU --journal " + journal);
  EXPECT_EQ(version.exit_code, 0);
  EXPECT_NE(version.output.find("edge_class="), std::string::npos);

  // `explain` never overwrites its input journal.
  std::ifstream again(journal);
  std::string text_after((std::istreambuf_iterator<char>(again)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text_after, text);

  EXPECT_EQ(run_cli("explain route CPU").exit_code, 1);  // needs --journal
  EXPECT_EQ(run_cli("explain nonsense --journal " + journal).exit_code, 1);
  std::remove(journal.c_str());
}

TEST(Cli, TruncatedJournalReportsTheReasonAndLine) {
  const std::string journal = testing::TempDir() + "socet_cli_truncated.jsonl";
  {
    std::ofstream file(journal);
    file << "{\"schema\":\"socet-journal-v1\",\"events\":2}\n"
            "{\"seq\":0,\"type\":\"route\"}\n"
            "{\"seq\":1,\"ty";
  }
  const CliRun run =
      run_cli("explain route CPU --journal " + journal, " 2>&1 >/dev/null");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("bad journal '" + journal + "': line 3"),
            std::string::npos)
      << run.output;
  std::remove(journal.c_str());
}

TEST(Cli, JournalFlagsKeepStdoutByteIdentical) {
  const CliRun plain = run_cli("plan --system barcode");
  EXPECT_EQ(plain.exit_code, 0);
  const std::string journal = testing::TempDir() + "socet_cli_ident.jsonl";
  const CliRun recorded = run_cli("plan --system barcode --journal " +
                                  journal + " --flight-recorder 64");
  EXPECT_EQ(recorded.exit_code, 0);
  EXPECT_EQ(recorded.output, plain.output);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace socet
