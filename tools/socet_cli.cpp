// socet — command-line driver for the SOCET flow.
//
//   socet menus    [--system barcode|system2]
//   socet plan     [--system ...] [--selection 1,2,3] [--pipelined]
//   socet optimize [--system ...] (--area-budget N | --tat-budget N |
//                  --w1 X --w2 Y)
//   socet explore  [--system ...]            # design-space CSV (Figure 10)
//   socet parallel [--system ...] [--selection 1,2,3]  # session schedule
//   socet batch    --jobs FILE [--threads N] # planning service (one job/line)
//   socet serve    [--port N] [--threads N]  # persistent planning daemon
//   socet client   --connect HOST:PORT (--jobs FILE | stats | journal)
//   socet trace-analyze TRACE.json [--diff A B]  # critical path / attribution
//   socet program  [--system ...]            # assembled test program
//   socet verilog  --core CPU [--gates]      # Verilog to stdout
//   socet dot      (--core CPU | --ccg) [--system ...]   # Graphviz
//   socet interface --core CPU               # shippable core interface
//   socet explain  mux|version|route|reject [NAME [VERSION]] --journal FILE
//
// Core names: CPU, PREPROCESSOR, DISPLAY, GRAPHICS, GCD, X25.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "socet/core/serialize.hpp"
#include "socet/emit/dot.hpp"
#include "socet/emit/verilog.hpp"
#include "socet/obs/explain.hpp"
#include "socet/obs/journal.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/report.hpp"
#include "socet/obs/trace.hpp"
#include "socet/obs/traceanalyze.hpp"
#include "socet/opt/optimize.hpp"
#include "socet/service/client.hpp"
#include "socet/service/protocol.hpp"
#include "socet/service/server.hpp"
#include "socet/service/service.hpp"
#include "socet/soc/parallel.hpp"
#include "socet/soc/testprogram.hpp"
#include "socet/soc/validate.hpp"
#include "socet/synth/elaborate.hpp"
#include "socet/systems/systems.hpp"
#include "socet/util/table.hpp"

namespace {

using namespace socet;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> positionals;  ///< bare tokens ("explain mux CPU")
  std::string repeated;  ///< first option given twice ("" if none)

  bool has(const std::string& key) const { return options.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  std::string positional(std::size_t i) const {
    return i < positionals.size() ? positionals[i] : "";
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positionals.push_back(std::move(token));
      continue;
    }
    token = token.substr(2);
    std::string value;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    if (!args.options.emplace(token, std::move(value)).second &&
        args.repeated.empty()) {
      args.repeated = token;
    }
  }
  return args;
}

systems::System load_system(const Args& args) {
  const std::string name = args.get("system", "barcode");
  if (name == "barcode" || name == "system1") {
    return systems::make_barcode_system();
  }
  if (name == "system2") return systems::make_system2();
  util::raise("unknown system '" + name + "' (use barcode|system2)");
}

rtl::Netlist load_core_rtl(const std::string& name) {
  if (name == "CPU") return systems::make_cpu_rtl();
  if (name == "PREPROCESSOR") return systems::make_preprocessor_rtl();
  if (name == "DISPLAY") return systems::make_display_rtl();
  if (name == "GRAPHICS") return systems::make_graphics_rtl();
  if (name == "GCD") return systems::make_gcd_rtl();
  if (name == "X25") return systems::make_x25_rtl();
  util::raise("unknown core '" + name + "'");
}

std::vector<unsigned> parse_selection(const Args& args,
                                      const systems::System& system) {
  std::vector<unsigned> selection(system.soc->cores().size(), 0);
  const std::string spec = args.get("selection", "");
  if (spec.empty()) return selection;
  // Strict 1-based parse (rejects 0, empty, and trailing tokens).
  const auto tokens = service::parse_selection_spec(spec);
  util::require(tokens.size() <= selection.size(),
                "--selection has " + std::to_string(tokens.size()) +
                    " entries but the system has " +
                    std::to_string(selection.size()) + " cores");
  for (std::size_t c = 0; c < tokens.size(); ++c) {
    selection[c] = tokens[c];
    util::require(selection[c] < system.soc->core(static_cast<std::uint32_t>(c))
                                     .version_count(),
                  "selection out of range for core " + std::to_string(c + 1));
  }
  return selection;
}

int cmd_menus(const Args& args) {
  auto system = load_system(args);
  for (const auto& core : system.cores) {
    std::printf("%s (%u FFs, HSCAN %u cells, depth %u, %u scan vectors)\n",
                core->name().c_str(), core->flip_flop_count(),
                core->hscan_overhead_cells(), core->hscan().max_depth,
                core->scan_vectors());
    for (const auto& version : core->versions()) {
      std::printf("  %-10s %4u cells:", version.name.c_str(),
                  version.extra_cells);
      for (const auto& edge : version.edges) {
        std::printf(" %s->%s=%u",
                    core->netlist().port(edge.input).name.c_str(),
                    core->netlist().port(edge.output).name.c_str(),
                    edge.latency);
      }
      std::printf("\n");
    }
  }
  return 0;
}

int cmd_plan(const Args& args) {
  auto system = load_system(args);
  auto selection = parse_selection(args, system);
  soc::PlanOptions options;
  options.allow_pipelining = args.has("pipelined");
  auto plan = soc::plan_chip_test(*system.soc, selection, options);

  util::Table table({"core", "version", "period", "flush", "TAT (cycles)",
                     "sys-mux cells"});
  for (const auto& core_plan : plan.cores) {
    const auto& core = system.soc->core(core_plan.core);
    table.add_row({core.name(),
                   core.version(selection[core_plan.core]).name,
                   std::to_string(core_plan.period),
                   std::to_string(core_plan.flush),
                   std::to_string(core_plan.tat),
                   std::to_string(core_plan.system_mux_cells)});
  }
  std::printf("%s", table.to_text().c_str());
  std::printf("total: %llu cycles, %u chip-level DFT cells\n", plan.total_tat,
              plan.total_overhead_cells());
  auto violations = soc::validate_plan(*system.soc, selection, plan, options);
  for (const auto& violation : violations) {
    std::fprintf(stderr, "VIOLATION: %s\n", violation.c_str());
  }
  return violations.empty() ? 0 : 1;
}

/// `--key` as a decimal count in [lo, hi], or `fallback` when absent.
/// A value outside the range is an error, never a silent wrap or clamp
/// (`--port 70000` must not listen on 4464).
template <typename T>
T parse_option_count(const Args& args, const std::string& key, T fallback,
                     T lo = 0, T hi = std::numeric_limits<T>::max()) {
  if (!args.has(key)) return fallback;
  const std::string text = args.get(key, "");
  unsigned long long value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  util::require(!text.empty() && ec == std::errc() && ptr == end &&
                    value >= lo && value <= hi,
                "bad --" + key + " '" + text + "' (want " +
                    std::to_string(lo) + ".." + std::to_string(hi) + ")");
  return static_cast<T>(value);
}

int cmd_optimize(const Args& args) {
  auto system = load_system(args);
  opt::DesignPoint point;
  if (args.has("area-budget")) {
    point = opt::minimize_tat(*system.soc,
                              parse_option_count(args, "area-budget", 0u));
  } else if (args.has("tat-budget")) {
    point = opt::minimize_area(*system.soc,
                               parse_option_count(args, "tat-budget", 0ull));
  } else if (args.has("w1") || args.has("w2")) {
    point = opt::minimize_weighted(
        *system.soc, service::parse_weight(args.get("w1", "1"), "--w1"),
        service::parse_weight(args.get("w2", "1"), "--w2"));
  } else {
    std::fprintf(stderr,
                 "optimize needs --area-budget, --tat-budget, or --w1/--w2\n");
    return 2;
  }
  std::printf("selection:");
  for (std::size_t c = 0; c < point.selection.size(); ++c) {
    std::printf(" %s=%s", system.soc->core(static_cast<std::uint32_t>(c))
                              .name()
                              .c_str(),
                system.soc->core(static_cast<std::uint32_t>(c))
                    .version(point.selection[c])
                    .name.c_str());
  }
  std::printf("\nTAT %llu cycles, overhead %u cells, constraint %s\n",
              point.tat, point.overhead_cells,
              point.met_constraint ? "met" : "NOT met");
  return point.met_constraint ? 0 : 1;
}

int cmd_explore(const Args& args) {
  auto system = load_system(args);
  auto points = opt::enumerate_design_space(*system.soc);
  std::printf("%s", opt::design_space_csv(std::move(points)).c_str());
  return 0;
}

service::ServiceOptions service_options(const Args& args) {
  service::ServiceOptions options;
  options.threads = parse_option_count(args, "threads", options.threads);
  util::require(options.threads >= 1, "--threads must be at least 1");
  options.cache_capacity =
      parse_option_count(args, "cache", options.cache_capacity);
  options.cache_bytes =
      parse_option_count(args, "cache-bytes", options.cache_bytes);
  return options;
}

std::vector<std::string> read_job_lines(const std::string& path,
                                        const char* who) {
  util::require(!path.empty(),
                std::string(who) + " needs --jobs FILE (or --jobs -)");
  std::vector<std::string> lines;
  std::string line;
  if (path == "-") {
    while (std::getline(std::cin, line)) lines.push_back(line);
  } else {
    std::ifstream file(path);
    util::require(file.good(), "cannot open jobs file '" + path + "'");
    while (std::getline(file, line)) lines.push_back(line);
  }
  return lines;
}

service::ClientOptions client_options(const Args& args) {
  const std::string connect = args.get("connect", "");
  const auto host_port = service::parse_host_port(connect);
  service::ClientOptions options;
  options.host = host_port.host;
  options.port = host_port.port;
  options.window = parse_option_count(args, "window", options.window);
  return options;
}

/// `client --jobs`: replay a job file against a daemon and print the
/// records to stdout, as `batch` prints them.
int run_remote_jobs(const Args& args) {
  const auto lines = read_job_lines(args.get("jobs", ""), "client");
  service::Client client(client_options(args));
  const auto report = client.run_lines(lines);
  std::printf("%s", report.records_text().c_str());
  std::fprintf(stderr, "client: %zu jobs via %s, %zu errors, %zu busy\n",
               report.jobs, args.get("connect", "").c_str(), report.errors,
               report.busy);
  return (report.errors == 0 && report.busy == 0) ? 0 : 1;
}

int cmd_batch(const Args& args) {
  const auto lines = read_job_lines(args.get("jobs", ""), "batch");
  service::PlanningService service(service_options(args));
  const auto report = service.run_lines(lines);
  std::printf("%s", report.records_text().c_str());
  std::fprintf(stderr, "%s", report.summary_table().c_str());
  if (args.has("verbose")) {
    for (const auto& result : report.results) {
      std::fprintf(stderr, "job %zu queue_us=%.1f wall_us=%.1f cache=%s\n",
                   result.index + 1, result.queue_us, result.wall_us,
                   result.cache_hit ? "hit" : "miss");
    }
  }
  return report.errors == 0 ? 0 : 1;
}

int cmd_serve(const Args& args) {
  service::ServerOptions options;
  options.host = args.get("host", options.host);
  options.port = parse_option_count(args, "port", options.port);
  options.threads = parse_option_count(args, "threads", options.threads);
  util::require(options.threads >= 1, "--threads must be at least 1");
  options.cache_capacity =
      parse_option_count(args, "cache", options.cache_capacity);
  options.cache_bytes =
      parse_option_count(args, "cache-bytes", options.cache_bytes);
  options.max_queue =
      parse_option_count(args, "max-queue", options.max_queue);
  options.client_window =
      parse_option_count(args, "window", options.client_window);
  options.port_file = args.get("port-file", "");
  options.access_log = args.get("access-log", "");
  const std::string host = options.host;
  const unsigned threads = options.threads;
  service::Server server(std::move(options));
  server.start();
  server.install_signal_handlers();
  std::fprintf(stderr, "socet serve: listening on %s:%u (%u worker%s)\n",
               host.c_str(), server.port(), threads,
               threads == 1 ? "" : "s");
  server.wait();  // until SIGTERM/SIGINT drains the daemon
  std::fprintf(stderr, "socet serve: drained: %s\n",
               server.stats().text().c_str());
  return 0;
}

int cmd_client(const Args& args) {
  const std::string verb = args.positional(0);
  if (verb == "stats" || verb == "journal") {
    service::Client client(client_options(args));
    std::printf("%s\n", client.query(verb).c_str());
    return 0;
  }
  util::require(verb.empty(), "unknown client verb '" + verb +
                                  "' (use stats|journal or --jobs FILE)");
  return run_remote_jobs(args);
}

/// `socet trace-analyze FILE... [--json] [--folded] [--top N] [--out F]`
/// or `socet trace-analyze --diff A.json B.json [--json]`: offline
/// analytics over span traces — critical path,
/// per-stage latency distributions, and differential attribution
/// (docs/OBSERVABILITY.md "Analyzing traces").
int cmd_trace_analyze(const Args& args) {
  const auto read_text = [](const std::string& path) {
    std::ifstream file(path);
    util::require(file.good(), "cannot open '" + path + "'");
    return std::string((std::istreambuf_iterator<char>(file)),
                       std::istreambuf_iterator<char>());
  };
  const auto load = [&read_text](const std::string& path) {
    obs::analyze::TraceData trace;
    std::string error;
    // Parse first: the message must be built after `error` is filled.
    const bool ok = obs::analyze::load_trace(read_text(path), &trace, &error);
    util::require(ok, "trace-analyze: " + path + ": " + error);
    return trace;
  };
  // parse_args folds the token after a bare flag into its value, so a
  // file name following --json/--folded is really another input.
  std::vector<std::string> inputs = args.positionals;
  for (const char* flag : {"json", "folded"}) {
    const std::string value = args.get(flag, "");
    if (!value.empty()) inputs.push_back(value);
  }
  const bool as_json = args.has("json");
  const std::size_t top = parse_option_count(args, "top", std::size_t{12});

  std::string rendered;
  if (args.has("diff")) {
    const std::string a_path = args.get("diff", "");
    util::require(!a_path.empty() && inputs.size() == 1,
                  "trace-analyze --diff needs exactly two trace files");
    const obs::analyze::Aggregate a = obs::analyze::aggregate({load(a_path)});
    const obs::analyze::Aggregate b =
        obs::analyze::aggregate({load(inputs[0])});
    const obs::analyze::DiffResult result = obs::analyze::diff(a, b);
    rendered = as_json ? obs::analyze::diff_json(result)
                       : obs::analyze::diff_text(result, top);
  } else {
    util::require(!inputs.empty(),
                  "trace-analyze needs at least one trace file");
    std::vector<obs::analyze::TraceData> traces;
    traces.reserve(inputs.size());
    for (const std::string& path : inputs) traces.push_back(load(path));
    if (args.has("folded")) {
      rendered = obs::analyze::folded_stacks(traces);
    } else {
      std::vector<obs::analyze::CriticalPath> paths;
      for (const obs::analyze::TraceData& trace : traces) {
        for (obs::analyze::CriticalPath& path :
             obs::analyze::critical_paths(trace)) {
          paths.push_back(std::move(path));
        }
      }
      const obs::analyze::Aggregate agg = obs::analyze::aggregate(traces);
      rendered = as_json ? obs::analyze::analysis_json(paths, agg)
                         : obs::analyze::analysis_text(paths, agg, top);
    }
  }
  const std::string out_path = args.get("out", "");
  if (out_path.empty()) {
    std::printf("%s", rendered.c_str());
    return 0;
  }
  std::ofstream out(out_path);
  out << rendered;
  util::require(out.good(), "cannot write '" + out_path + "'");
  return 0;
}

int cmd_parallel(const Args& args) {
  auto system = load_system(args);
  auto selection = parse_selection(args, system);
  auto plan = soc::plan_chip_test(*system.soc, selection);
  auto schedule = soc::schedule_parallel(*system.soc, selection, plan);
  for (std::size_t s = 0; s < schedule.sessions.size(); ++s) {
    std::printf("session %zu:", s + 1);
    for (auto core : schedule.sessions[s]) {
      std::printf(" %s", system.soc->core(core).name().c_str());
    }
    std::printf("\n");
  }
  std::printf("sequential %llu cycles -> parallel %llu cycles (%.2fx)\n",
              schedule.sequential_tat, schedule.total_tat,
              schedule.speedup());
  return 0;
}

int cmd_program(const Args& args) {
  auto system = load_system(args);
  auto selection = parse_selection(args, system);
  auto plan = soc::plan_chip_test(*system.soc, selection);
  auto program = soc::assemble_test_program(*system.soc, selection, plan);
  std::printf("%s", soc::describe_test_program(*system.soc, program).c_str());
  return 0;
}

int cmd_verilog(const Args& args) {
  const std::string core = args.get("core", "");
  util::require(!core.empty(), "verilog needs --core <name>");
  auto rtl = load_core_rtl(core);
  if (args.has("gates")) {
    auto elab = synth::elaborate(rtl);
    std::printf("%s", emit::emit_verilog(elab.gates).c_str());
  } else {
    std::printf("%s", emit::emit_verilog(rtl).c_str());
  }
  return 0;
}

int cmd_dot(const Args& args) {
  if (args.has("ccg")) {
    auto system = load_system(args);
    auto selection = parse_selection(args, system);
    soc::Ccg ccg(*system.soc, selection);
    std::printf("%s", emit::emit_dot(*system.soc, ccg).c_str());
    return 0;
  }
  const std::string core = args.get("core", "");
  util::require(!core.empty(), "dot needs --core <name> or --ccg");
  auto rtl = load_core_rtl(core);
  auto hs = hscan::build_hscan(rtl);
  transparency::Rcg rcg(rtl, &hs);
  std::printf("%s", emit::emit_dot(rcg).c_str());
  return 0;
}

int cmd_interface(const Args& args) {
  const std::string name = args.get("core", "");
  util::require(!name.empty(), "interface needs --core <name>");
  auto prepared = core::Core::prepare(load_core_rtl(name));
  std::printf("%s", core::serialize_interface(prepared).c_str());
  return 0;
}

int cmd_explain(const Args& args) {
  std::string text;
  if (args.has("connect")) {
    // Query the daemon's flight-recorder ring directly — no file
    // shipping.  Needs `socet serve --flight-recorder N`.
    service::Client client(client_options(args));
    const std::string reply = client.query("journal");
    const std::string prefix = "ok journal\n";
    util::require(reply.rfind(prefix, 0) == 0,
                  "daemon answered '" + reply.substr(0, 120) + "'");
    text = reply.substr(prefix.size());
  } else {
    const std::string path = args.get("journal", "");
    util::require(!path.empty(),
                  "explain needs --journal FILE (record one with e.g. "
                  "`socet plan --journal run.jsonl`) or --connect HOST:PORT");
    std::ifstream file(path);
    util::require(file.good(), "cannot open journal '" + path + "'");
    text.assign((std::istreambuf_iterator<char>(file)),
                std::istreambuf_iterator<char>());
  }

  obs::JournalDoc doc;
  std::string error;
  const std::string source = args.has("connect")
                                 ? args.get("connect", "")
                                 : args.get("journal", "");
  const bool ok = obs::load_journal(text, &doc, &error);
  util::require(ok, "bad journal '" + source + "': " + error);

  const std::string query = args.positional(0);
  util::require(!query.empty(),
                "explain needs a query: mux|version|route|reject [args]");
  std::string answer;
  if (query == "mux") {
    answer = obs::explain_mux(doc, args.positional(1));
  } else if (query == "version") {
    answer = obs::explain_version(doc, args.positional(1));
  } else if (query == "route") {
    answer = obs::explain_route(doc, args.positional(1));
  } else if (query == "reject") {
    answer = obs::explain_reject(doc, args.positional(1), args.positional(2));
  } else {
    util::raise("unknown explain query '" + query +
                "' (use mux|version|route|reject)");
  }
  std::printf("%s", answer.c_str());
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: socet <command> [options]\n"
      "  menus     [--system barcode|system2]\n"
      "  plan      [--system ...] [--selection 1,2,3] [--pipelined]\n"
      "  optimize  [--system ...] --area-budget N | --tat-budget N |\n"
      "            --w1 X --w2 Y (weighted objective iii)\n"
      "  parallel  [--system ...] [--selection 1,2,3]\n"
      "  explore   [--system ...]\n"
      "  batch     --jobs FILE|- [--threads N] [--cache N]\n"
      "            [--cache-bytes N] [--verbose]\n"
      "            (planning service; one job per line, see docs/FORMATS.md)\n"
      "  serve     [--host H] [--port N] [--threads N] [--cache N]\n"
      "            [--cache-bytes N] [--max-queue N] [--window N]\n"
      "            [--port-file FILE] [--access-log FILE]\n"
      "            (persistent planning daemon, docs/SERVICE.md; drain\n"
      "            with SIGTERM; wire protocol in docs/FORMATS.md §6;\n"
      "            --access-log appends one serve.access JSONL line per\n"
      "            request (docs/FORMATS.md §7), --flight-recorder N\n"
      "            serves the newest N decision events to `journal`/explain)\n"
      "  client    --connect HOST:PORT (--jobs FILE|- | stats | journal)\n"
      "            [--window N]\n"
      "  trace-analyze FILE... [--json] [--folded] [--top N] [--out FILE]\n"
      "            (critical path + per-stage latency distributions over\n"
      "            `--trace` files; a serve trace adds the daemon split)\n"
      "  trace-analyze --diff A.json B.json [--json] [--out FILE]\n"
      "            (rank stages by contribution to the B-A delta)\n"
      "  program   [--system ...] [--selection 1,2,3]\n"
      "  verilog   --core NAME [--gates]\n"
      "  dot       --core NAME | --ccg [--system ...]\n"
      "  interface --core NAME\n"
      "  explain   mux|version|route|reject [NAME [VERSION]]\n"
      "            (--journal FILE | --connect HOST:PORT) (provenance\n"
      "            queries over a recorded decision journal, or the\n"
      "            daemon's flight-recorder ring via --connect)\n"
      "observability (any command; stdout is never touched):\n"
      "  --metrics       print the metrics table to stderr on exit\n"
      "  --trace FILE    write a Chrome trace-event JSON (chrome://tracing)\n"
      "  --report FILE   write a run-report JSON (metrics + per-stage span\n"
      "                  times + whole-run rusage)\n"
      "  --journal FILE  record the decision journal (routes, optimizer\n"
      "                  moves, mux insertions, cache hits) as JSONL\n"
      "  --flight-recorder [N]  keep the last N decision events (16..65536,\n"
      "                  default 256) in a ring; dump them to stderr on a\n"
      "                  crash (and, for serve, answer the `journal` verb)\n"
      "  (metric and span names: docs/OBSERVABILITY.md)\n");
  return 2;
}

using Command = int (*)(const Args&);

/// A command and the options it reads.  Any other option, apart from
/// the observability switches main() reads for every command, is an
/// error: a typo must not silently fall back to a default.
struct CommandSpec {
  Command run;
  std::set<std::string> options;
};

const std::map<std::string, CommandSpec>& commands() {
  static const std::map<std::string, CommandSpec> table = {
      {"menus", {cmd_menus, {"system"}}},
      {"plan", {cmd_plan, {"system", "selection", "pipelined"}}},
      {"optimize",
       {cmd_optimize, {"system", "area-budget", "tat-budget", "w1", "w2"}}},
      {"explore", {cmd_explore, {"system"}}},
      {"batch",
       {cmd_batch, {"jobs", "threads", "cache", "cache-bytes", "verbose"}}},
      {"serve",
       {cmd_serve, {"host", "port", "threads", "cache", "cache-bytes",
                    "max-queue", "window", "port-file", "access-log"}}},
      {"client", {cmd_client, {"connect", "jobs", "window"}}},
      {"trace-analyze",
       {cmd_trace_analyze, {"json", "folded", "top", "out", "diff"}}},
      {"program", {cmd_program, {"system", "selection"}}},
      {"parallel", {cmd_parallel, {"system", "selection"}}},
      {"verilog", {cmd_verilog, {"core", "gates"}}},
      {"dot", {cmd_dot, {"core", "ccg", "system", "selection"}}},
      {"interface", {cmd_interface, {"core"}}},
      {"explain", {cmd_explain, {"connect"}}}};
  return table;
}

/// The switches main() reads for every command.
const std::set<std::string> kObservabilityOptions = {
    "metrics", "trace", "report", "journal", "flight-recorder"};

}  // namespace

int main(int argc, char** argv) {
  // Validate the command before touching any option so a typo like
  // `socet pln` fails loudly instead of falling through.
  if (argc < 2) return usage();
  const auto command = commands().find(argv[1]);
  if (command == commands().end()) {
    std::fprintf(stderr, "error: unknown command '%s'\n", argv[1]);
    return usage();
  }
  const Args args = parse_args(argc, argv);
  if (!args.repeated.empty()) {
    std::fprintf(stderr, "error: repeated option '--%s' for '%s'\n",
                 args.repeated.c_str(), argv[1]);
    return 1;
  }
  for (const auto& [option, value] : args.options) {
    if (command->second.options.count(option) == 0 &&
        kObservabilityOptions.count(option) == 0) {
      std::fprintf(stderr, "error: unknown option '--%s' for '%s'\n",
                   option.c_str(), argv[1]);
      return 1;
    }
  }

  // Observability switches.  A run report embeds the metrics snapshot
  // and the span rollups, so --report implies both collectors.
  const std::string trace_path = args.get("trace", "");
  const std::string report_path = args.get("report", "");
  if (args.has("metrics") || !report_path.empty()) {
    obs::set_metrics_enabled(true);
  }
  if (!trace_path.empty() || !report_path.empty()) {
    obs::set_trace_enabled(true);
  }
  // For `explain`, --journal names the *input* document; every other
  // command records one.
  const bool is_explain = command->first == "explain";
  const std::string journal_path =
      is_explain ? std::string() : args.get("journal", "");
  if (!journal_path.empty()) obs::journal_start_memory();

  int status = 1;
  try {
    if (args.has("flight-recorder") && !is_explain) {
      // A bare `--flight-recorder` keeps the default capacity.
      obs::journal_start_flight(
          args.get("flight-recorder", "").empty()
              ? 256
              : parse_option_count(args, "flight-recorder", std::size_t{256},
                                   obs::kMinFlightCapacity,
                                   obs::kMaxFlightCapacity));
    }
    // The span name must outlive export; the command key is a static.
    // A daemon's roots are its per-request serve/* spans: a cli/serve
    // root would time only its idle lifetime.
    static const std::string span_name = "cli/" + command->first;
    std::optional<obs::Span> span;
    if (command->first != "serve") span.emplace(span_name.c_str());
    status = command->second.run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    status = 1;
  }

  // Diagnostics go to stderr / side files only, after all worker pools
  // have joined, so stdout stays byte-identical to uninstrumented runs.
  if (args.has("metrics")) {
    std::fprintf(stderr, "%s",
                 obs::Registry::instance().table_text().c_str());
  }
  const auto write_file = [&status](const std::string& path,
                                    const std::string& text,
                                    const char* what) {
    std::ofstream out(path);
    out << text;
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write %s '%s'\n", what,
                   path.c_str());
      status = status == 0 ? 1 : status;
    }
  };
  if (!trace_path.empty()) {
    write_file(trace_path, obs::chrome_trace_json(), "trace");
  }
  if (!journal_path.empty()) {
    obs::journal_stop();
    write_file(journal_path, obs::journal_jsonl(), "journal");
  }
  if (!report_path.empty()) {
    write_file(report_path, obs::run_report_json(command->first), "report");
  }
  return status;
}
