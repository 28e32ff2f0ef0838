// The machine-readable bench result line.
//
// Every bench binary times itself on the shared obs monotonic clock
// (obs::StopWatch — the same clock spans and service timings use),
// records spans for its whole run, and emits exactly one line on
// stderr before exiting:
//
//   BENCH_<name>.json {"name":"<name>","ok":true,"wall_ms":12.3,...,
//                      "stage_<stage>_ms":4.5,...}
//
// JSON after the first space, so harnesses can `grep '^BENCH_'` and
// parse without touching the human-readable tables on stdout.  The
// `stage_<stage>_ms` extras are each stage's span self time
// (obs::analyze::aggregate, summed over threads), so every trajectory
// point says where its time went.
#pragma once

#include <cstdio>
#include <string>

#include "socet/obs/report.hpp"
#include "socet/obs/timer.hpp"
#include "socet/obs/trace.hpp"
#include "socet/obs/traceanalyze.hpp"

namespace socet::bench {

class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {
    obs::set_trace_enabled(true);
  }

  /// Attach an extra numeric field to the JSON line.
  void metric(const std::string& key, double value) {
    extra_ += ",\"" + obs::json_escape(key) + "\":" + obs::json_number(value);
  }

  /// Mark this run as skipped: a gate that could not be evaluated on
  /// this host (too few CPUs, missing kernel feature, ...).  The line
  /// then carries `"skipped":true` so the regression gate
  /// (tools/socet_bench) records the point as non-comparable instead
  /// of a bogus pass in the trajectory.
  void skip(const std::string& reason) {
    skipped_ = true;
    if (!reason.empty()) {
      extra_ += ",\"skip_reason\":\"" + obs::json_escape(reason) + "\"";
    }
  }

  /// Print the line and map `ok` onto the process exit code.
  int finish(bool ok) const {
    // Read the clock before aggregating spans, so the aggregation never
    // counts toward the bench's own time.
    const double wall_ms = watch_.elapsed_ms();
    std::string stages;
    for (const obs::analyze::NameStats& stage :
         obs::analyze::aggregate({obs::analyze::recorded_trace()}).by_stage) {
      stages += ",\"stage_" + obs::json_escape(stage.name) +
                "_ms\":" + obs::json_number(stage.self_us / 1e3);
    }
    std::fprintf(stderr,
                 "BENCH_%s.json {\"name\":\"%s\",\"ok\":%s%s,"
                 "\"wall_ms\":%s%s%s}\n",
                 name_.c_str(), name_.c_str(), ok ? "true" : "false",
                 skipped_ ? ",\"skipped\":true" : "",
                 obs::json_number(wall_ms).c_str(), extra_.c_str(),
                 stages.c_str());
    return ok ? 0 : 1;
  }

 private:
  std::string name_;
  std::string extra_;
  bool skipped_ = false;
  obs::StopWatch watch_;
};

}  // namespace socet::bench
