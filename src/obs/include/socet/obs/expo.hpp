// Prometheus-compatible metrics exposition.
//
// Renders the process-wide metrics registry (metrics.hpp) as the
// Prometheus text format, for a live daemon to serve over HTTP
// (`socet serve --metrics-port`, src/service/httpd.hpp).  Layout:
//
//   - counters   -> `socet_<name>_total` (counter)
//   - gauges     -> `socet_<name>` (gauge)
//   - histograms -> `socet_<name>{quantile="0.5|0.9|0.99"}` summaries
//                   plus `_sum` / `_count`
//
// Metric names are sanitized with prometheus_name (docs/OBSERVABILITY.md
// "Live daemon telemetry" documents the full exposition).
#pragma once

#include <string>
#include <string_view>

namespace socet::obs {

/// `<stage>/<quantity>` -> `stage_quantity`: every byte outside
/// [a-zA-Z0-9_] becomes '_' (a leading digit gains a '_' prefix).
std::string prometheus_name(std::string_view name);

/// Render the whole registry as Prometheus text.  Safe to call from any
/// thread at any time; concurrent metric mutation only skews individual
/// samples, never the format.
std::string prometheus_text();

}  // namespace socet::obs
