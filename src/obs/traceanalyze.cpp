#include "socet/obs/traceanalyze.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <map>

#include "socet/obs/jsonin.hpp"
#include "socet/obs/report.hpp"
#include "socet/obs/trace.hpp"
#include "socet/util/table.hpp"

namespace socet::obs::analyze {

namespace {

/// Timestamps arrive as doubles in microseconds; treat sub-nanosecond
/// differences as coincident when ordering and containing spans.
constexpr double kEps = 1e-3;

/// Deepest tree the critical-path walk will descend; RAII spans nest a
/// few dozen levels at most, so this only stops adversarial inputs.
constexpr int kMaxDepth = 512;

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// 1-based line number of a byte offset (for parse errors on multi-line
/// artifacts; single-line Chrome documents report line 1 + the offset).
std::size_t line_of(std::string_view text, std::size_t offset) {
  offset = std::min(offset, text.size());
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() +
                            static_cast<std::ptrdiff_t>(offset), '\n'));
}

/// json_parse errors end in " at byte N"; prepend the line it lands on.
std::string located(std::string_view text, const std::string& parse_error) {
  const std::string marker = " at byte ";
  const std::size_t at = parse_error.rfind(marker);
  if (at == std::string::npos) return parse_error;
  const std::size_t offset = static_cast<std::size_t>(
      std::strtoull(parse_error.c_str() + at + marker.size(), nullptr, 10));
  return "line " + std::to_string(line_of(text, offset)) + ": " + parse_error;
}

std::uint64_t parse_hex(const std::string& text) {
  return std::strtoull(text.c_str(), nullptr, 16);
}

/// Stage = leading path segment.
std::string stage_of(const std::string& name) {
  const std::size_t slash = name.find('/');
  return slash == std::string::npos ? name : name.substr(0, slash);
}

bool load_journal(std::string_view text, TraceData* out, std::string* error);

/// Parse one Chrome trace-event document into the span forest.
bool load_chrome(std::string_view text, TraceData* out, std::string* error) {
  JsonValue doc;
  std::string parse_error;
  if (!json_parse(text, &doc, &parse_error)) {
    return fail(error, located(text, parse_error));
  }
  const JsonValue* events = doc.get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail(error, "no traceEvents array (not a Chrome trace document)");
  }

  // Per-(pid,tid) stack of open B events for the local-trace flavor.
  std::map<std::pair<int, int>, std::vector<int>> open;
  for (std::size_t i = 0; i < events->array_value.size(); ++i) {
    const JsonValue& event = events->array_value[i];
    const auto where = [i] {
      return "traceEvents[" + std::to_string(i) + "]: ";
    };
    if (!event.is_object()) return fail(error, where() + "not an object");
    const std::string ph =
        event.get("ph") != nullptr ? event.get("ph")->string_or("") : "";
    if (ph != "B" && ph != "E" && ph != "X") continue;  // M, flow, counters

    const JsonValue* ts = event.get("ts");
    if (ts == nullptr || !ts->is_number()) {
      return fail(error, where() + "'" + ph + "' event has no numeric ts");
    }
    const int pid = static_cast<int>(
        event.get("pid") != nullptr ? event.get("pid")->number_or(1) : 1);
    const int tid = static_cast<int>(
        event.get("tid") != nullptr ? event.get("tid")->number_or(0) : 0);

    if (ph == "E") {
      auto& stack = open[{pid, tid}];
      if (stack.empty()) {
        return fail(error, where() + "'E' event with no open 'B' "
                                     "(truncated or reordered trace)");
      }
      Node& span = out->spans[static_cast<std::size_t>(stack.back())];
      span.end_us = ts->number_value;
      if (span.end_us + kEps < span.start_us) {
        return fail(error, where() + "'E' before its 'B' (span '" +
                               span.name + "')");
      }
      stack.pop_back();
      continue;
    }

    const JsonValue* name = event.get("name");
    if (name == nullptr || !name->is_string() || name->string_value.empty()) {
      return fail(error, where() + "'" + ph + "' event has no name");
    }
    Node span;
    span.name = name->string_value;
    span.pid = pid;
    span.tid = tid;
    span.start_us = ts->number_value;
    if (ph == "X") {
      const JsonValue* dur = event.get("dur");
      if (dur == nullptr || !dur->is_number() || dur->number_value < 0) {
        return fail(error, where() + "'X' event has no numeric dur");
      }
      span.end_us = span.start_us + dur->number_value;
      if (const JsonValue* args = event.get("args"); args != nullptr) {
        if (const JsonValue* id = args->get("span");
            id != nullptr && id->is_string()) {
          span.id = parse_hex(id->string_value);
        }
        if (const JsonValue* parent = args->get("parent");
            parent != nullptr && parent->is_string()) {
          span.parent = parse_hex(parent->string_value);
        }
      }
      out->spans.push_back(std::move(span));
    } else {  // "B": close on the matching "E"
      const int index = static_cast<int>(out->spans.size());
      span.end_us = span.start_us;  // until the E arrives
      out->spans.push_back(std::move(span));
      open[{pid, tid}].push_back(index);
    }
  }
  for (const auto& [lane, stack] : open) {
    if (!stack.empty()) {
      return fail(error,
                  "unclosed 'B' event for span '" +
                      out->spans[static_cast<std::size_t>(stack.back())].name +
                      "' (truncated trace)");
    }
  }
  return true;
}

/// Resolve parent links: explicit span ids first, then per-lane
/// containment for id-less spans (the local B/E flavor).
void build_forest(TraceData* out) {
  std::map<std::uint64_t, int> by_id;
  for (std::size_t i = 0; i < out->spans.size(); ++i) {
    if (out->spans[i].id != 0) {
      by_id.emplace(out->spans[i].id, static_cast<int>(i));
      out->merged = true;
    }
  }
  std::map<std::pair<int, int>, std::vector<int>> lanes;
  for (std::size_t i = 0; i < out->spans.size(); ++i) {
    Node& span = out->spans[i];
    if (span.parent != 0) {
      const auto it = by_id.find(span.parent);
      if (it != by_id.end() && it->second != static_cast<int>(i)) {
        span.parent_index = it->second;
        continue;
      }
    }
    if (span.id == 0) lanes[{span.pid, span.tid}].push_back(static_cast<int>(i));
  }
  // Containment nesting within one lane: sorted by (start asc, end
  // desc), a stack of enclosing spans mirrors the RAII nesting the
  // emitter recorded.
  for (auto& [lane, indices] : lanes) {
    std::sort(indices.begin(), indices.end(), [out](int a, int b) {
      const Node& sa = out->spans[static_cast<std::size_t>(a)];
      const Node& sb = out->spans[static_cast<std::size_t>(b)];
      if (sa.start_us != sb.start_us) return sa.start_us < sb.start_us;
      return sa.end_us > sb.end_us;
    });
    std::vector<int> stack;
    for (int index : indices) {
      const Node& span = out->spans[static_cast<std::size_t>(index)];
      while (!stack.empty()) {
        const Node& top = out->spans[static_cast<std::size_t>(stack.back())];
        if (span.start_us + kEps >= top.start_us &&
            span.end_us <= top.end_us + kEps) {
          break;  // enclosed
        }
        stack.pop_back();
      }
      if (!stack.empty()) {
        out->spans[static_cast<std::size_t>(index)].parent_index =
            stack.back();
      }
      stack.push_back(index);
    }
  }
  for (std::size_t i = 0; i < out->spans.size(); ++i) {
    const int parent = out->spans[i].parent_index;
    if (parent >= 0) {
      out->spans[static_cast<std::size_t>(parent)].children.push_back(
          static_cast<int>(i));
    } else {
      out->roots.push_back(static_cast<int>(i));
    }
  }
  std::sort(out->roots.begin(), out->roots.end(), [out](int a, int b) {
    return out->spans[static_cast<std::size_t>(a)].start_us <
           out->spans[static_cast<std::size_t>(b)].start_us;
  });
}

/// socet-journal-v1 JSONL: spans don't cross the journal, but every
/// event carries `corr` (the job) and `span` (the innermost open span
/// name), so each correlation id folds into an envelope: one
/// `journal/corr` root from first to last event, one child per span
/// name bounding the events recorded under it.  Approximate by
/// construction — event-bounded envelopes, not closed spans.
bool load_journal(std::string_view text, TraceData* out, std::string* error) {
  struct Envelope {
    double first_us = 0;
    double last_us = 0;
    std::map<std::string, std::pair<double, double>> by_span;
    bool any = false;
  };
  std::map<std::string, Envelope> corrs;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    JsonValue event;
    std::string parse_error;
    if (!json_parse(line, &event, &parse_error) || !event.is_object()) {
      return fail(error, "line " + std::to_string(line_no) + ": " +
                             (parse_error.empty() ? "not a JSON object"
                                                  : parse_error));
    }
    if (event.get("schema") != nullptr) continue;  // header / kind line
    const JsonValue* ts = event.get("ts_us");
    if (ts == nullptr || !ts->is_number()) {
      return fail(error, "line " + std::to_string(line_no) +
                             ": journal event has no numeric ts_us");
    }
    const std::string corr =
        event.get("corr") != nullptr ? event.get("corr")->string_or("") : "";
    Envelope& envelope = corrs[corr.empty() ? "-" : corr];
    const double at = ts->number_value;
    if (!envelope.any || at < envelope.first_us) envelope.first_us = at;
    if (!envelope.any || at > envelope.last_us) envelope.last_us = at;
    envelope.any = true;
    const std::string span =
        event.get("span") != nullptr ? event.get("span")->string_or("") : "";
    if (!span.empty()) {
      auto [it, inserted] = envelope.by_span.emplace(span, std::pair{at, at});
      if (!inserted) {
        it->second.first = std::min(it->second.first, at);
        it->second.second = std::max(it->second.second, at);
      }
    }
  }
  for (const auto& [corr, envelope] : corrs) {
    Node root;
    root.name = "journal/corr";
    root.start_us = envelope.first_us;
    root.end_us = envelope.last_us;
    const int root_index = static_cast<int>(out->spans.size());
    out->spans.push_back(std::move(root));
    for (const auto& [span_name, bounds] : envelope.by_span) {
      Node child;
      child.name = span_name;
      child.start_us = bounds.first;
      child.end_us = bounds.second;
      child.parent_index = root_index;
      out->spans.push_back(std::move(child));
    }
  }
  out->journal = true;
  // Parent links are already explicit; just fill children/roots.
  for (std::size_t i = 0; i < out->spans.size(); ++i) {
    const int parent = out->spans[i].parent_index;
    if (parent >= 0) {
      out->spans[static_cast<std::size_t>(parent)].children.push_back(
          static_cast<int>(i));
    } else {
      out->roots.push_back(static_cast<int>(i));
    }
  }
  return true;
}

/// Critical-path walk (see header): cover [span.start, until] with the
/// chain of gating spans, appending segments newest-first.
void walk_critical(const TraceData& trace, int index, double until, int depth,
                   std::vector<CriticalStep>* out) {
  const Node& span = trace.spans[static_cast<std::size_t>(index)];
  double cursor = until;
  std::vector<int> kids = span.children;
  std::sort(kids.begin(), kids.end(), [&trace](int a, int b) {
    return trace.spans[static_cast<std::size_t>(a)].end_us >
           trace.spans[static_cast<std::size_t>(b)].end_us;
  });
  for (int k : kids) {
    const Node& child = trace.spans[static_cast<std::size_t>(k)];
    if (child.end_us > cursor + kEps) continue;  // overlapped in parallel
    if (cursor <= span.start_us + kEps) break;
    if (cursor - child.end_us > kEps) {
      out->push_back({span.name, depth, child.end_us, cursor});
    }
    if (depth < kMaxDepth) {
      walk_critical(trace, k, child.end_us, depth + 1, out);
    } else {
      out->push_back({child.name, depth + 1, child.start_us, child.end_us});
    }
    cursor = child.start_us;
  }
  if (cursor - span.start_us > kEps) {
    out->push_back({span.name, depth, span.start_us, cursor});
  }
}

/// Accumulator behind NameStats: the same 64-bucket power-of-two
/// layout Histogram uses, so bucket_quantile applies verbatim.
struct Acc {
  std::uint64_t buckets[Histogram::kBuckets] = {};
  std::uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
  std::uint64_t min_us = ~0ull;
  std::uint64_t max_us = 0;

  void record(double dur_us, double self) {
    const std::uint64_t v = static_cast<std::uint64_t>(
        std::llround(std::max(0.0, dur_us)));
    const std::size_t b = std::min<std::size_t>(
        v <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(v - 1)),
        Histogram::kBuckets - 1);
    ++buckets[b];
    ++count;
    total_us += std::max(0.0, dur_us);
    self_us += std::max(0.0, self);
    min_us = std::min(min_us, v);
    max_us = std::max(max_us, v);
  }

  [[nodiscard]] NameStats stats(const std::string& name) const {
    NameStats s;
    s.name = name;
    s.count = count;
    s.total_us = total_us;
    s.self_us = self_us;
    s.min_us = count == 0 ? 0 : static_cast<double>(min_us);
    s.max_us = static_cast<double>(max_us);
    const std::uint64_t lo = count == 0 ? 0 : min_us;
    s.p50_us = bucket_quantile(buckets, count, 0.50, lo, max_us);
    s.p90_us = bucket_quantile(buckets, count, 0.90, lo, max_us);
    s.p99_us = bucket_quantile(buckets, count, 0.99, lo, max_us);
    return s;
  }
};

/// Wall time a span spent outside its children: duration minus the
/// union of child intervals (overlapping children count once).
double self_time_us(const TraceData& trace, const Node& span) {
  if (span.children.empty()) return span.dur_us();
  std::vector<std::pair<double, double>> intervals;
  intervals.reserve(span.children.size());
  for (int k : span.children) {
    const Node& child = trace.spans[static_cast<std::size_t>(k)];
    intervals.emplace_back(std::max(child.start_us, span.start_us),
                           std::min(child.end_us, span.end_us));
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double open_from = 0;
  double open_to = -1;
  for (const auto& [from, to] : intervals) {
    if (to <= from) continue;
    if (open_to < from) {
      covered += std::max(0.0, open_to - open_from);
      open_from = from;
      open_to = to;
    } else {
      open_to = std::max(open_to, to);
    }
  }
  covered += std::max(0.0, open_to - open_from);
  return std::max(0.0, span.dur_us() - covered);
}

std::vector<NameStats> sorted_stats(const std::map<std::string, Acc>& accs) {
  std::vector<NameStats> out;
  out.reserve(accs.size());
  for (const auto& [name, acc] : accs) out.push_back(acc.stats(name));
  std::sort(out.begin(), out.end(), [](const NameStats& a, const NameStats& b) {
    if (a.total_us != b.total_us) return a.total_us > b.total_us;
    return a.name < b.name;
  });
  return out;
}

std::string stats_json(const std::vector<NameStats>& stats) {
  std::string out = "{";
  bool first = true;
  for (const NameStats& s : stats) {
    if (!first) out += ',';
    first = false;
    out += "\"" + json_escape(s.name) +
           "\":{\"count\":" + std::to_string(s.count) +
           ",\"total_us\":" + json_number(s.total_us) +
           ",\"self_us\":" + json_number(s.self_us) +
           ",\"min_us\":" + json_number(s.min_us) +
           ",\"max_us\":" + json_number(s.max_us) +
           ",\"p50_us\":" + json_number(s.p50_us) +
           ",\"p90_us\":" + json_number(s.p90_us) +
           ",\"p99_us\":" + json_number(s.p99_us) + "}";
  }
  return out + "}";
}

void fold_stacks(const TraceData& trace, int index, const std::string& prefix,
                 int depth, std::map<std::string, std::uint64_t>* out) {
  const Node& span = trace.spans[static_cast<std::size_t>(index)];
  const std::string path =
      prefix.empty() ? span.name : prefix + ";" + span.name;
  const std::uint64_t self = static_cast<std::uint64_t>(
      std::llround(std::max(0.0, self_time_us(trace, span))));
  if (self > 0) (*out)[path] += self;
  if (depth >= kMaxDepth) return;
  for (int k : trace.spans[static_cast<std::size_t>(index)].children) {
    fold_stacks(trace, k, path, depth + 1, out);
  }
}

}  // namespace

bool load_trace(std::string_view text, TraceData* out, std::string* error) {
  *out = TraceData();
  const std::size_t first = text.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) {
    return fail(error, "line 1: empty trace artifact");
  }
  // A journal is JSONL whose header line names the schema; everything
  // else is treated as one Chrome trace document.
  const std::size_t first_line_end = text.find('\n', first);
  const std::string_view first_line = text.substr(
      first, (first_line_end == std::string_view::npos ? text.size()
                                                       : first_line_end) -
                 first);
  if (first_line.find("\"socet-journal-v1\"") != std::string_view::npos) {
    if (!load_journal(text, out, error)) return false;
    return true;
  }
  if (!load_chrome(text, out, error)) return false;
  build_forest(out);
  return true;
}

TraceData recorded_trace() {
  TraceData out;
  const std::vector<TraceEvent> events = collect_trace_events();
  // Relative to the first span, as chrome_trace_json does, so doubles
  // keep nanosecond resolution.
  const std::uint64_t epoch = events.empty() ? 0 : events.front().start_ns;
  for (const TraceEvent& event : events) {
    Node span;
    span.name = event.name;
    span.tid = static_cast<int>(event.tid);
    span.start_us = static_cast<double>(event.start_ns - epoch) / 1e3;
    span.end_us = static_cast<double>(event.end_ns - epoch) / 1e3;
    out.spans.push_back(std::move(span));
  }
  build_forest(&out);
  return out;
}

std::vector<CriticalPath> critical_paths(const TraceData& trace) {
  std::vector<CriticalPath> paths;
  paths.reserve(trace.roots.size());
  for (int root : trace.roots) {
    const Node& span = trace.spans[static_cast<std::size_t>(root)];
    CriticalPath path;
    path.root = span.name;
    path.start_us = span.start_us;
    path.total_us = span.dur_us();
    walk_critical(trace, root, span.end_us, 0, &path.steps);
    std::reverse(path.steps.begin(), path.steps.end());
    paths.push_back(std::move(path));
  }
  return paths;
}

Aggregate aggregate(const std::vector<TraceData>& traces) {
  Aggregate result;
  std::map<std::string, Acc> by_name;
  std::map<std::string, Acc> by_stage;
  for (const TraceData& trace : traces) {
    ++result.traces;
    double first = 0;
    double last = 0;
    bool any = false;
    for (const Node& span : trace.spans) {
      ++result.span_count;
      if (!any || span.start_us < first) first = span.start_us;
      if (!any || span.end_us > last) last = span.end_us;
      any = true;
      const double self = self_time_us(trace, span);
      by_name[span.name].record(span.dur_us(), self);
      by_stage[stage_of(span.name)].record(span.dur_us(), self);
      if (span.name == "serve/queue") result.queue_us += span.dur_us();
      if (span.name == "serve/job") result.compute_us += span.dur_us();
      if (span.name == "serve/respond") result.respond_us += span.dur_us();
    }
    if (any) result.wall_us += last - first;
  }
  result.by_name = sorted_stats(by_name);
  result.by_stage = sorted_stats(by_stage);
  return result;
}

DiffResult diff(const Aggregate& a, const Aggregate& b) {
  DiffResult result;
  result.a_total_us = a.wall_us;
  result.b_total_us = b.wall_us;
  result.delta_us = b.wall_us - a.wall_us;
  // Self time, not inclusive time: a slowed leaf inflates every
  // ancestor's total equally, but only its own self — so ranking by
  // self-delta names the stage that actually got slower, and each
  // microsecond of the shift is attributed to exactly one stage.
  std::map<std::string, std::pair<double, double>> stages;
  for (const NameStats& s : a.by_stage) stages[s.name].first = s.self_us;
  for (const NameStats& s : b.by_stage) stages[s.name].second = s.self_us;
  double magnitude = 0;
  for (const auto& [stage, totals] : stages) {
    DiffEntry entry;
    entry.stage = stage;
    entry.a_us = totals.first;
    entry.b_us = totals.second;
    entry.delta_us = totals.second - totals.first;
    magnitude += std::abs(entry.delta_us);
    result.entries.push_back(std::move(entry));
  }
  for (DiffEntry& entry : result.entries) {
    entry.share_pct =
        magnitude <= 0 ? 0 : 100.0 * std::abs(entry.delta_us) / magnitude;
  }
  std::sort(result.entries.begin(), result.entries.end(),
            [](const DiffEntry& x, const DiffEntry& y) {
              if (x.delta_us != y.delta_us) return x.delta_us > y.delta_us;
              return x.stage < y.stage;
            });
  if (!result.entries.empty() && result.entries.front().delta_us > 0) {
    result.guilty = result.entries.front().stage;
  }
  return result;
}

std::string analysis_text(const std::vector<CriticalPath>& paths,
                          const Aggregate& aggregate, std::size_t top) {
  std::string out = "trace-analyze: " + std::to_string(aggregate.traces) +
                    " trace(s), " + std::to_string(aggregate.span_count) +
                    " spans, wall " +
                    util::Table::num(aggregate.wall_us / 1e3, 2) + " ms\n";

  // The slowest root's critical path — the chain that gated the run.
  const CriticalPath* slowest = nullptr;
  for (const CriticalPath& path : paths) {
    if (slowest == nullptr || path.total_us > slowest->total_us) {
      slowest = &path;
    }
  }
  if (slowest != nullptr) {
    out += "\ncritical path of slowest root '" + slowest->root + "' (" +
           util::Table::num(slowest->total_us / 1e3, 2) + " ms, " +
           std::to_string(slowest->steps.size()) + " steps):\n";
    util::Table steps({"#", "span", "depth", "from (us)", "self (us)",
                       "share %"});
    std::size_t shown = 0;
    for (std::size_t i = 0;
         i < slowest->steps.size() && shown < top; ++i, ++shown) {
      const CriticalStep& step = slowest->steps[i];
      steps.add_row(
          {std::to_string(i + 1), step.name, std::to_string(step.depth),
           util::Table::num(step.from_us - slowest->start_us, 1),
           util::Table::num(step.self_us(), 1),
           util::Table::num(slowest->total_us <= 0
                                ? 0
                                : 100.0 * step.self_us() / slowest->total_us,
                            1)});
    }
    out += steps.to_text();
    if (slowest->steps.size() > top) {
      out += "(" + std::to_string(slowest->steps.size() - top) +
             " more steps; --top N to widen)\n";
    }
  }

  const auto table_for = [top](const char* label,
                               const std::vector<NameStats>& stats) {
    util::Table table({label, "count", "total (us)", "self (us)", "p50",
                       "p90", "p99", "max"});
    std::size_t shown = 0;
    for (const NameStats& s : stats) {
      if (shown++ >= top) break;
      table.add_row({s.name, std::to_string(s.count),
                     util::Table::num(s.total_us, 1),
                     util::Table::num(s.self_us, 1),
                     util::Table::num(s.p50_us, 1),
                     util::Table::num(s.p90_us, 1),
                     util::Table::num(s.p99_us, 1),
                     util::Table::num(s.max_us, 1)});
    }
    return table.to_text();
  };
  out += "\nper-stage attribution:\n" + table_for("stage", aggregate.by_stage);
  out += "\nper-span latency distribution:\n" +
         table_for("span", aggregate.by_name);

  if (aggregate.queue_us > 0 || aggregate.compute_us > 0) {
    const double both = aggregate.queue_us + aggregate.compute_us;
    out += "\ndaemon split: queue " +
           util::Table::num(aggregate.queue_us, 1) + " us, compute " +
           util::Table::num(aggregate.compute_us, 1) + " us, respond " +
           util::Table::num(aggregate.respond_us, 1) + " us (queue " +
           util::Table::num(both <= 0 ? 0 : 100.0 * aggregate.queue_us / both,
                            1) +
           "% of queue+compute)\n";
  }
  return out;
}

std::string diff_text(const DiffResult& result, std::size_t top) {
  std::string out =
      "trace diff: wall " + util::Table::num(result.a_total_us / 1e3, 2) +
      " ms -> " + util::Table::num(result.b_total_us / 1e3, 2) + " ms (" +
      (result.delta_us >= 0 ? "+" : "") +
      util::Table::num(result.delta_us / 1e3, 2) + " ms)\n";
  util::Table table({"stage", "A (us)", "B (us)", "delta (us)", "share %"});
  std::size_t shown = 0;
  for (const DiffEntry& entry : result.entries) {
    if (shown++ >= top) break;
    table.add_row({entry.stage, util::Table::num(entry.a_us, 1),
                   util::Table::num(entry.b_us, 1),
                   (entry.delta_us >= 0 ? "+" : "") +
                       util::Table::num(entry.delta_us, 1),
                   util::Table::num(entry.share_pct, 1)});
  }
  out += table.to_text();
  if (result.guilty.empty()) {
    out += "no stage got slower\n";
  } else {
    const DiffEntry& guilty = result.entries.front();
    out += "guilty stage: " + guilty.stage + " (+" +
           util::Table::num(guilty.delta_us, 1) + " us, " +
           util::Table::num(guilty.share_pct, 1) + "% of the shift)\n";
  }
  return out;
}

std::string analysis_json(const std::vector<CriticalPath>& paths,
                          const Aggregate& aggregate) {
  std::string out = "{\"schema\":\"socet-trace-analysis-v1\",\"traces\":" +
                    std::to_string(aggregate.traces) +
                    ",\"spans_total\":" + std::to_string(aggregate.span_count) +
                    ",\"wall_us\":" + json_number(aggregate.wall_us);
  const CriticalPath* slowest = nullptr;
  for (const CriticalPath& path : paths) {
    if (slowest == nullptr || path.total_us > slowest->total_us) {
      slowest = &path;
    }
  }
  if (slowest != nullptr) {
    out += ",\"critical_path\":{\"root\":\"" + json_escape(slowest->root) +
           "\",\"total_us\":" + json_number(slowest->total_us) +
           ",\"steps\":[";
    bool first = true;
    for (const CriticalStep& step : slowest->steps) {
      if (!first) out += ',';
      first = false;
      out += "{\"span\":\"" + json_escape(step.name) +
             "\",\"depth\":" + std::to_string(step.depth) +
             ",\"from_us\":" + json_number(step.from_us - slowest->start_us) +
             ",\"self_us\":" + json_number(step.self_us()) + "}";
    }
    out += "]}";
  }
  out += ",\"stages\":" + stats_json(aggregate.by_stage);
  out += ",\"spans\":" + stats_json(aggregate.by_name);
  if (aggregate.queue_us > 0 || aggregate.compute_us > 0) {
    out += ",\"daemon_split\":{\"queue_us\":" +
           json_number(aggregate.queue_us) +
           ",\"compute_us\":" + json_number(aggregate.compute_us) +
           ",\"respond_us\":" + json_number(aggregate.respond_us) + "}";
  }
  return out + "}";
}

std::string diff_json(const DiffResult& result) {
  std::string out = "{\"schema\":\"socet-trace-diff-v1\",\"a_wall_us\":" +
                    json_number(result.a_total_us) +
                    ",\"b_wall_us\":" + json_number(result.b_total_us) +
                    ",\"delta_us\":" + json_number(result.delta_us) +
                    ",\"guilty\":\"" + json_escape(result.guilty) +
                    "\",\"stages\":[";
  bool first = true;
  for (const DiffEntry& entry : result.entries) {
    if (!first) out += ',';
    first = false;
    out += "{\"stage\":\"" + json_escape(entry.stage) +
           "\",\"a_us\":" + json_number(entry.a_us) +
           ",\"b_us\":" + json_number(entry.b_us) +
           ",\"delta_us\":" + json_number(entry.delta_us) +
           ",\"share_pct\":" + json_number(entry.share_pct) + "}";
  }
  return out + "]}";
}

std::string folded_stacks(const std::vector<TraceData>& traces) {
  std::map<std::string, std::uint64_t> folded;
  for (const TraceData& trace : traces) {
    for (int root : trace.roots) fold_stacks(trace, root, "", 0, &folded);
  }
  std::string out;
  for (const auto& [path, self_us] : folded) {
    out += path + " " + std::to_string(self_us) + "\n";
  }
  return out;
}

}  // namespace socet::obs::analyze
