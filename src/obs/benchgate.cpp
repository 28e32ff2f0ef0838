#include "socet/obs/benchgate.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "socet/obs/jsonin.hpp"
#include "socet/obs/report.hpp"

namespace socet::obs::bench {

namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// q-th quantile of sorted samples, interpolated between order stats.
double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  const double within = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * within;
}

/// The numeric fields point_json writes itself; every other numeric
/// field of a point is one of the bench's extras.
constexpr std::string_view kPointFields[] = {
    "repeats",    "wall_ms_min", "wall_ms_median", "wall_ms_iqr",
    "max_rss_kb", "utime_ms",    "stime_ms"};

std::string point_json(const RunRecord& record, const std::string& label) {
  std::string out = "{";
  if (!label.empty()) {
    out += "\"label\":\"" + json_escape(label) + "\",";
  }
  out += "\"ok\":" + std::string(record.ok ? "true" : "false") +
         ",\"skipped\":" + (record.skipped ? "true" : "false") +
         ",\"repeats\":" + std::to_string(record.wall_ms.n) +
         ",\"wall_ms_min\":" + json_number(record.wall_ms.min) +
         ",\"wall_ms_median\":" + json_number(record.wall_ms.median) +
         ",\"wall_ms_iqr\":" + json_number(record.wall_ms.iqr()) +
         ",\"max_rss_kb\":" + std::to_string(record.max_rss_kb) +
         ",\"utime_ms\":" + json_number(record.utime_ms) +
         ",\"stime_ms\":" + json_number(record.stime_ms);
  for (const auto& [key, value] : record.extra) {
    out += ",\"" + json_escape(key) + "\":" + json_number(value);
  }
  out += "}";
  return out;
}

/// Re-render a parsed trajectory point verbatim enough for appends
/// (numbers round-trip through json_number, which is what wrote them).
std::string reencode(const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return value.bool_value ? "true" : "false";
    case JsonValue::Kind::kNumber:
      return json_number(value.number_value);
    case JsonValue::Kind::kString:
      return "\"" + json_escape(value.string_value) + "\"";
    case JsonValue::Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < value.array_value.size(); ++i) {
        if (i != 0) out += ',';
        out += reencode(value.array_value[i]);
      }
      return out + "]";
    }
    case JsonValue::Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < value.object_value.size(); ++i) {
        if (i != 0) out += ',';
        out += "\"" + json_escape(value.object_value[i].first) +
               "\":" + reencode(value.object_value[i].second);
      }
      return out + "}";
    }
  }
  return "null";
}

}  // namespace

bool parse_bench_line(std::string_view stderr_text, BenchLine* out,
                      std::string* error) {
  *out = BenchLine();
  // Lines are `BENCH_<name>.json <json>`; take the first one.
  std::size_t line_start = 0;
  while (line_start < stderr_text.size()) {
    std::size_t line_end = stderr_text.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = stderr_text.size();
    const std::string_view line =
        stderr_text.substr(line_start, line_end - line_start);
    if (line.rfind("BENCH_", 0) == 0) {
      const std::size_t space = line.find(' ');
      if (space == std::string_view::npos) {
        return fail(error, "BENCH_ line has no JSON payload");
      }
      JsonValue doc;
      std::string parse_error;
      if (!json_parse(line.substr(space + 1), &doc, &parse_error)) {
        return fail(error, "bad BENCH_ JSON: " + parse_error);
      }
      if (!doc.is_object()) return fail(error, "BENCH_ payload not an object");
      const JsonValue* name = doc.get("name");
      if (name == nullptr || !name->is_string() || name->string_value.empty()) {
        return fail(error, "BENCH_ line missing \"name\"");
      }
      out->name = name->string_value;
      const JsonValue* ok = doc.get("ok");
      if (ok == nullptr || !ok->is_bool()) {
        return fail(error, "BENCH_ line missing \"ok\"");
      }
      out->ok = ok->bool_value;
      out->skipped = doc.get("skipped") != nullptr &&
                     doc.get("skipped")->bool_or(false);
      const JsonValue* wall = doc.get("wall_ms");
      // json_number emits null for NaN/Inf; a bench with a broken clock
      // must be rejected, not recorded as a zero-cost run.
      if (wall == nullptr || !wall->is_number()) {
        return fail(error, "BENCH_ line has no numeric \"wall_ms\" (null "
                           "means the bench's clock produced a non-finite "
                           "value)");
      }
      out->wall_ms = wall->number_value;
      for (const auto& [key, value] : doc.object_value) {
        if (key == "name" || key == "ok" || key == "skipped" ||
            key == "wall_ms" || key == "skip_reason") {
          continue;
        }
        if (value.is_number()) out->extra.emplace_back(key, value.number_value);
      }
      return true;
    }
    line_start = line_end + 1;
  }
  return fail(error, "no BENCH_ line found on stderr");
}

RepeatStats summarize_repeats(std::vector<double> samples) {
  RepeatStats stats;
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  stats.n = samples.size();
  stats.min = samples.front();
  stats.median = sorted_quantile(samples, 0.50);
  stats.q1 = sorted_quantile(samples, 0.25);
  stats.q3 = sorted_quantile(samples, 0.75);
  return stats;
}

std::string trajectory_json(std::string_view existing_text,
                            const RunRecord& record,
                            const std::string& label) {
  std::vector<std::string> points;
  JsonValue existing;
  if (!existing_text.empty() && json_parse(existing_text, &existing) &&
      existing.is_object()) {
    const JsonValue* schema = existing.get("schema");
    const JsonValue* old_points = existing.get("points");
    if (schema != nullptr &&
        schema->string_or("") == "socet-bench-trajectory-v1" &&
        old_points != nullptr && old_points->is_array()) {
      for (const JsonValue& point : old_points->array_value) {
        points.push_back(reencode(point));
      }
    }
  }
  points.push_back(point_json(record, label));

  std::string out = "{\"schema\":\"socet-bench-trajectory-v1\",\"name\":\"" +
                    json_escape(record.name) + "\",\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i != 0) out += ',';
    out += "\n " + points[i];
  }
  out += "\n]}\n";
  return out;
}

bool trajectory_last_median(std::string_view text, double* median_ms,
                            Extras* extra) {
  JsonValue doc;
  if (text.empty() || !json_parse(text, &doc) || !doc.is_object()) {
    return false;
  }
  const JsonValue* schema = doc.get("schema");
  const JsonValue* points = doc.get("points");
  if (schema == nullptr ||
      schema->string_or("") != "socet-bench-trajectory-v1" ||
      points == nullptr || !points->is_array()) {
    return false;
  }
  // Newest comparable point wins; skipped/failed points never carry a
  // meaningful median, so walk backwards past them.
  for (auto it = points->array_value.rbegin(); it != points->array_value.rend();
       ++it) {
    if (!it->is_object()) continue;
    if (it->get("skipped") != nullptr &&
        it->get("skipped")->bool_or(false)) {
      continue;
    }
    if (it->get("ok") != nullptr && !it->get("ok")->bool_or(true)) continue;
    const JsonValue* median = it->get("wall_ms_median");
    if (median == nullptr || !median->is_number()) continue;
    *median_ms = median->number_value;
    if (extra != nullptr) {
      extra->clear();
      for (const auto& [key, value] : it->object_value) {
        if (value.is_number() &&
            std::find(std::begin(kPointFields), std::end(kPointFields),
                      key) == std::end(kPointFields)) {
          extra->emplace_back(key, value.number_value);
        }
      }
    }
    return true;
  }
  return false;
}

analyze::Aggregate stage_aggregate(double wall_ms, const Extras& extra) {
  constexpr std::string_view kPrefix = "stage_";
  constexpr std::string_view kSuffix = "_ms";
  analyze::Aggregate aggregate;
  aggregate.wall_us = wall_ms * 1e3;
  for (const auto& [key, value] : extra) {
    if (key.size() <= kPrefix.size() + kSuffix.size() ||
        !key.starts_with(kPrefix) || !key.ends_with(kSuffix)) {
      continue;
    }
    analyze::NameStats stage;
    stage.name = key.substr(kPrefix.size(),
                            key.size() - kPrefix.size() - kSuffix.size());
    stage.self_us = value * 1e3;
    aggregate.by_stage.push_back(std::move(stage));
  }
  return aggregate;
}

bool parse_baseline(std::string_view text, Baseline* out, std::string* error) {
  *out = Baseline();
  JsonValue doc;
  std::string parse_error;
  if (!json_parse(text, &doc, &parse_error)) {
    return fail(error, "bad baseline JSON: " + parse_error);
  }
  const JsonValue* schema = doc.get("schema");
  if (schema == nullptr ||
      schema->string_or("") != "socet-bench-baseline-v1") {
    return fail(error, "baseline missing schema socet-bench-baseline-v1");
  }
  const JsonValue* benches = doc.get("benches");
  if (benches == nullptr || !benches->is_object()) {
    return fail(error, "baseline missing \"benches\" object");
  }
  for (const auto& [name, entry] : benches->object_value) {
    const JsonValue* wall = entry.get("wall_ms");
    if (wall == nullptr || !wall->is_number()) {
      return fail(error, "baseline entry '" + name +
                             "' has no numeric wall_ms");
    }
    out->wall_ms[name] = wall->number_value;
  }
  return true;
}

Baseline merge_baseline(Baseline prior,
                        const std::vector<RunRecord>& records) {
  for (const RunRecord& record : records) {
    if (record.skipped || !record.ok) continue;
    prior.wall_ms[record.name] = record.wall_ms.median;
  }
  return prior;
}

std::string baseline_json(const Baseline& baseline) {
  std::string out =
      "{\n \"schema\": \"socet-bench-baseline-v1\",\n \"benches\": {";
  bool first = true;
  for (const auto& [name, wall_ms] : baseline.wall_ms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  \"" + json_escape(name) + "\": {\n   \"wall_ms\": " +
           json_number(wall_ms) + "\n  }";
  }
  out += "\n }\n}\n";
  return out;
}

std::vector<CheckOutcome> check_against_baseline(
    const std::vector<RunRecord>& records, const Baseline& baseline,
    double tolerance_pct) {
  std::vector<CheckOutcome> outcomes;
  outcomes.reserve(records.size());
  for (const RunRecord& record : records) {
    CheckOutcome outcome;
    outcome.name = record.name;
    outcome.measured_ms = record.wall_ms.median;
    if (record.skipped) {
      outcome.verdict = CheckOutcome::Verdict::kSkipped;
    } else if (!record.ok) {
      outcome.verdict = CheckOutcome::Verdict::kFailed;
    } else {
      const auto it = baseline.wall_ms.find(record.name);
      if (it == baseline.wall_ms.end()) {
        outcome.verdict = CheckOutcome::Verdict::kNoBaseline;
      } else {
        outcome.baseline_ms = it->second;
        // The IQR term absorbs run-to-run jitter, capped at the
        // tolerance margin itself so a noisy-but-short bench can at
        // most double its allowance, never hide a 2x slowdown.
        const double margin = it->second * tolerance_pct / 100.0;
        outcome.margin_ms = margin;
        outcome.iqr_allowance_ms = std::min(record.wall_ms.iqr(), margin);
        outcome.limit_ms =
            it->second + outcome.margin_ms + outcome.iqr_allowance_ms;
        outcome.verdict = record.wall_ms.median > outcome.limit_ms
                              ? CheckOutcome::Verdict::kRegression
                              : CheckOutcome::Verdict::kPass;
      }
    }
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

bool has_regression(const std::vector<CheckOutcome>& outcomes) {
  for (const CheckOutcome& outcome : outcomes) {
    if (outcome.verdict == CheckOutcome::Verdict::kRegression ||
        outcome.verdict == CheckOutcome::Verdict::kFailed) {
      return true;
    }
  }
  return false;
}

}  // namespace socet::obs::bench
