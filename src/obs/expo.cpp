#include "socet/obs/expo.hpp"

#include <cctype>
#include <cstdio>

#include "socet/obs/metrics.hpp"

namespace socet::obs {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void append_type(std::string& out, const std::string& family,
                 const char* type) {
  out += "# TYPE ";
  out += family;
  out += ' ';
  out += type;
  out += '\n';
}

void append_sample(std::string& out, const std::string& family,
                   const std::string& labels, const std::string& value) {
  out += family;
  out += labels;
  out += ' ';
  out += value;
  out += '\n';
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && std::isdigit(static_cast<unsigned char>(name[0]))) {
    out += '_';
  }
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string prometheus_text() {
  const MetricsSnapshot snap = Registry::instance().snapshot();
  std::string out;

  for (const auto& c : snap.counters) {
    const std::string family = "socet_" + prometheus_name(c.name) + "_total";
    append_type(out, family, "counter");
    append_sample(out, family, "", std::to_string(c.value));
  }
  for (const auto& g : snap.gauges) {
    const std::string family = "socet_" + prometheus_name(g.name);
    append_type(out, family, "gauge");
    append_sample(out, family, "", std::to_string(g.value));
  }
  for (const auto& h : snap.histograms) {
    const std::string family = "socet_" + prometheus_name(h.name);
    append_type(out, family, "summary");
    append_sample(out, family, "{quantile=\"0.5\"}", fmt_double(h.p50));
    append_sample(out, family, "{quantile=\"0.9\"}", fmt_double(h.p90));
    append_sample(out, family, "{quantile=\"0.99\"}", fmt_double(h.p99));
    append_sample(out, family + "_sum", "", std::to_string(h.sum));
    append_sample(out, family + "_count", "", std::to_string(h.count));
  }
  return out;
}

}  // namespace socet::obs
