#include "socet/obs/report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>

#include "socet/obs/metrics.hpp"
#include "socet/obs/traceanalyze.hpp"

namespace socet::obs {

namespace {

/// Length of the well-formed multi-byte UTF-8 sequence that starts
/// `text` (whose first byte is >= 0x80), or 0 when that byte starts none.
/// Well-formed is RFC 3629's: no overlong form, no surrogate, nothing
/// above U+10FFFF.
std::size_t utf8_sequence_length(std::string_view text) {
  const auto byte = [&](std::size_t i) {
    return static_cast<unsigned char>(text[i]);
  };
  const unsigned char lead = byte(0);
  std::size_t length = 0;
  unsigned char low = 0x80;   // range of the second byte
  unsigned char high = 0xBF;
  if (lead >= 0xC2 && lead <= 0xDF) {
    length = 2;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    length = 3;
    if (lead == 0xE0) low = 0xA0;   // overlong below U+0800
    if (lead == 0xED) high = 0x9F;  // surrogates U+D800..U+DFFF
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    length = 4;
    if (lead == 0xF0) low = 0x90;   // overlong below U+10000
    if (lead == 0xF4) high = 0x8F;  // above U+10FFFF
  } else {
    return 0;  // a continuation byte, an overlong C0/C1, or F5..FF
  }
  if (text.size() < length || byte(1) < low || byte(1) > high) return 0;
  for (std::size_t i = 2; i < length; ++i) {
    if (byte(i) < 0x80 || byte(i) > 0xBF) return 0;
  }
  return length;
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (static_cast<unsigned char>(c) >= 0x80) {
      // Well-formed UTF-8 passes through; a byte that starts no such
      // sequence becomes U+FFFD, so the output is always valid UTF-8.
      const std::size_t length = utf8_sequence_length(text.substr(i));
      if (length == 0) {
        out += "\\ufffd";
        ++i;
      } else {
        out.append(text.substr(i, length));
        i += length;
      }
      continue;
    }
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
    ++i;
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
