// Machine-readable run reports.
//
// One JSON document per run (`socet ... --report out.json`) that folds
// together the metrics registry and per-stage span rollups, so a CI job
// or perf-trajectory script can diff "where the milliseconds went"
// across commits without scraping human tables.  Schema is versioned
// and documented in docs/OBSERVABILITY.md.
#pragma once

#include <string>
#include <string_view>

namespace socet::obs {

// --- tiny JSON helpers (shared by metrics/trace/report/bench) ---------

/// JSON string escaping (quotes, backslashes, control characters).  The
/// result is valid UTF-8: well-formed UTF-8 passes through, and each byte
/// that starts no well-formed sequence becomes the escape \ufffd.
std::string json_escape(std::string_view text);
/// Shortest round-trip-safe rendering of a double ("12", "12.5", "0.001").
std::string json_number(double value);

/// The whole report:
///   {"schema": "socet-report-v1", "command": ...,
///    "metrics": {"counters": ..., "gauges": ..., "histograms": ...},
///    "spans": {<name>: {count, total_us, self_us, mean_us, min_us,
///                       max_us}},
///    "stages": {<prefix>: {spans, total_us, self_us}},
///    "resources": {"run": {peak_rss_kb, utime_us, stime_us,
///                          minor_faults, major_faults}}}
/// Stage = everything before the first '/' of a span name; spans and
/// stages come from analyze::aggregate, sorted by total time.
std::string run_report_json(const std::string& command);

}  // namespace socet::obs
