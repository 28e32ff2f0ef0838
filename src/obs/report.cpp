#include "socet/obs/report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>

#include "socet/obs/metrics.hpp"
#include "socet/obs/traceanalyze.hpp"

namespace socet::obs {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  // Emit non-finite values as null — a NaN metric rendered as "0" would
  // let a broken computation masquerade as a perfect one.  Readers
  // (obs::json_parse / the bench gate) treat null as "not a number",
  // never as zero.
  if (!std::isfinite(value)) return "null";
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    return std::to_string(static_cast<long long>(value));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

namespace {

/// The `resources` block: whole-run cost from one getrusage(RUSAGE_SELF).
std::string resources_json() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is kilobytes on Linux, bytes on macOS.
#if defined(__APPLE__)
  const long long peak_rss_kb = usage.ru_maxrss / 1024;
#else
  const long long peak_rss_kb = usage.ru_maxrss;
#endif
  const auto us = [](const timeval& tv) {
    return std::to_string(static_cast<long long>(tv.tv_sec) * 1000000 +
                          static_cast<long long>(tv.tv_usec));
  };
  return "{\"run\":{\"peak_rss_kb\":" + std::to_string(peak_rss_kb) +
         ",\"utime_us\":" + us(usage.ru_utime) +
         ",\"stime_us\":" + us(usage.ru_stime) +
         ",\"minor_faults\":" + std::to_string(usage.ru_minflt) +
         ",\"major_faults\":" + std::to_string(usage.ru_majflt) + "}}";
}

}  // namespace

std::string run_report_json(const std::string& command) {
  // Stage times come from the trace-analyze engine, so the report,
  // bench lines and `socet trace-analyze` agree on every number.
  const analyze::Aggregate agg =
      analyze::aggregate({analyze::recorded_trace()});
  std::string out = "{\"schema\":\"socet-report-v1\",\"command\":\"" +
                    json_escape(command) + "\",\"metrics\":" +
                    Registry::instance().json() + ",\"spans\":{";
  bool first = true;
  for (const analyze::NameStats& s : agg.by_name) {
    if (!first) out += ',';
    first = false;
    out += "\"" + json_escape(s.name) +
           "\":{\"count\":" + std::to_string(s.count) +
           ",\"total_us\":" + json_number(s.total_us) +
           ",\"self_us\":" + json_number(s.self_us) +
           ",\"mean_us\":" +
           json_number(s.total_us / static_cast<double>(s.count)) +
           ",\"min_us\":" + json_number(s.min_us) +
           ",\"max_us\":" + json_number(s.max_us) + "}";
  }
  out += "},\"stages\":{";
  first = true;
  for (const analyze::NameStats& s : agg.by_stage) {
    if (!first) out += ',';
    first = false;
    out += "\"" + json_escape(s.name) +
           "\":{\"spans\":" + std::to_string(s.count) +
           ",\"total_us\":" + json_number(s.total_us) +
           ",\"self_us\":" + json_number(s.self_us) + "}";
  }
  out += "},\"resources\":" + resources_json() + "}";
  return out;
}

}  // namespace socet::obs
