#include "socet/obs/tracemerge.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <map>

#include "socet/obs/jsonin.hpp"
#include "socet/obs/report.hpp"

namespace socet::obs {

namespace {

/// `text` as a strict decimal u64: digits only, no sign, no overflow.
bool parse_decimal(const std::string& text, std::uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

/// Greedy lane assignment for possibly-overlapping spans: `spans` must
/// be sorted by start; each span takes the lowest lane whose previous
/// occupant has already ended.  Returns one 0-based lane per span.
std::vector<std::size_t> assign_lanes(
    const std::vector<const TraceEvent*>& spans) {
  std::vector<std::uint64_t> lane_end;
  std::vector<std::size_t> lanes(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::size_t lane = lane_end.size();
    for (std::size_t j = 0; j < lane_end.size(); ++j) {
      if (lane_end[j] <= spans[i]->start_ns) {
        lane = j;
        break;
      }
    }
    if (lane == lane_end.size()) lane_end.push_back(0);
    lane_end[lane] = spans[i]->end_ns;
    lanes[i] = lane;
  }
  return lanes;
}

}  // namespace

std::int64_t estimate_clock_offset_ns(
    const std::vector<ClockSample>& samples) {
  bool found = false;
  std::uint64_t best_rtt = 0;
  std::int64_t best = 0;
  for (const ClockSample& sample : samples) {
    if (sample.recv_ns < sample.send_ns) continue;
    const std::uint64_t rtt = sample.recv_ns - sample.send_ns;
    if (found && rtt >= best_rtt) continue;
    found = true;
    best_rtt = rtt;
    const std::int64_t midpoint =
        static_cast<std::int64_t>(sample.send_ns + rtt / 2);
    best = static_cast<std::int64_t>(sample.server_ns) - midpoint;
  }
  return found ? best : 0;
}

std::string remote_spans_jsonl(const std::vector<TraceEvent>& spans) {
  std::string out;
  for (const TraceEvent& span : spans) {
    out += "{\"name\":\"" + json_escape(span.name) +
           "\",\"tid\":" + std::to_string(span.tid) + ",\"id\":\"" +
           span_id_hex(span.id) + "\",\"parent\":\"" +
           span_id_hex(span.parent) +
           "\",\"start_ns\":\"" + std::to_string(span.start_ns) +
           "\",\"end_ns\":\"" + std::to_string(span.end_ns) + "\"}\n";
  }
  return out;
}

bool parse_remote_spans_jsonl(std::string_view text,
                              std::vector<TraceEvent>* out,
                              std::string* error) {
  out->clear();
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    const auto fail = [&](const std::string& what) {
      if (error != nullptr) {
        *error = "span line " + std::to_string(line_no) + ": " + what;
      }
      return false;
    };
    JsonValue value;
    std::string parse_error;
    if (!json_parse(line, &value, &parse_error) || !value.is_object()) {
      return fail(parse_error.empty() ? "not a JSON object" : parse_error);
    }
    const auto string_field = [&value](const char* key) -> const std::string* {
      const JsonValue* field = value.get(key);
      return field != nullptr && field->is_string() ? &field->string_value
                                                    : nullptr;
    };
    TraceEvent span;
    const std::string* name = string_field("name");
    if (name == nullptr) return fail("missing name");
    span.name = *name;
    const JsonValue* tid = value.get("tid");
    if (tid == nullptr || !tid->to_uint32(&span.tid)) {
      return fail("'tid' is not a whole number in 0..4294967295");
    }
    for (const auto& [key, field] :
         {std::pair{"id", &span.id}, std::pair{"parent", &span.parent}}) {
      const std::string* hex = string_field(key);
      if (hex == nullptr || !parse_span_id(*hex, field)) {
        return fail(std::string("'") + key + "' is not a hex span id");
      }
    }
    for (const auto& [key, field] : {std::pair{"start_ns", &span.start_ns},
                                     std::pair{"end_ns", &span.end_ns}}) {
      const std::string* decimal = string_field(key);
      if (decimal == nullptr || !parse_decimal(*decimal, field)) {
        return fail(std::string("'") + key +
                    "' is not a decimal nanosecond string");
      }
    }
    if (span.end_ns < span.start_ns) return fail("'end_ns' before 'start_ns'");
    out->push_back(std::move(span));
  }
  return true;
}

std::string merged_chrome_trace(const MergeInput& input) {
  // Re-base daemon spans onto the client clock up front; everything
  // after this point works in one timeline.
  std::vector<TraceEvent> daemon = input.daemon_spans;
  for (TraceEvent& span : daemon) {
    span.start_ns = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(span.start_ns) - input.clock_offset_ns);
    span.end_ns = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(span.end_ns) - input.clock_offset_ns);
  }

  std::uint64_t epoch = 0;
  bool have_epoch = false;
  const auto consider = [&](std::uint64_t start_ns) {
    if (!have_epoch || start_ns < epoch) epoch = start_ns;
    have_epoch = true;
  };
  for (const TraceEvent& span : input.client_spans) consider(span.start_ns);
  for (const TraceEvent& span : daemon) consider(span.start_ns);

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    if (!first) out += ',';
    first = false;
    out += event;
  };
  const auto meta = [&](int pid, std::size_t tid, const char* what,
                        const std::string& name) {
    emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) + ",\"name\":\"" + what +
         "\",\"args\":{\"name\":\"" + json_escape(name) + "\"}}");
  };
  meta(1, 0, "process_name", "socet client");
  meta(2, 0, "process_name", "socet serve");
  const auto slice = [&](std::uint32_t pid, std::size_t tid,
                         const TraceEvent& span) {
    emit(chrome_slice(span, pid, static_cast<std::uint32_t>(tid), epoch));
  };
  const auto by_start = [](const TraceEvent* a, const TraceEvent* b) {
    if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
    return a->end_ns > b->end_ns;
  };

  // Client submit spans overlap under pipelining, so stripe them
  // across as many pid-1 lanes as the window needed.
  std::vector<const TraceEvent*> client;
  for (const TraceEvent& span : input.client_spans) client.push_back(&span);
  std::sort(client.begin(), client.end(), by_start);
  const std::vector<std::size_t> client_lanes = assign_lanes(client);
  std::size_t client_lane_count = 0;
  std::map<std::uint64_t, std::pair<std::size_t, std::uint64_t>> client_by_id;
  for (std::size_t i = 0; i < client.size(); ++i) {
    client_lane_count = std::max(client_lane_count, client_lanes[i] + 1);
    const std::size_t tid = client_lanes[i] + 1;
    client_by_id[client[i]->id] = {tid, client[i]->start_ns};
    slice(1, tid, *client[i]);
  }
  for (std::size_t lane = 1; lane <= client_lane_count; ++lane) {
    meta(1, lane, "thread_name", "submit #" + std::to_string(lane));
  }

  // Daemon worker spans (tid > 0) nest strictly per thread; the
  // cross-thread queue/respond spans (tid 0) get striped lanes.
  constexpr std::size_t kLooseLane = 900;
  std::map<std::uint32_t, std::vector<const TraceEvent*>> worker_lanes;
  std::vector<const TraceEvent*> loose;
  for (const TraceEvent& span : daemon) {
    if (span.tid > 0) {
      worker_lanes[span.tid].push_back(&span);
    } else {
      loose.push_back(&span);
    }
  }
  for (auto& [tid, lane] : worker_lanes) {
    std::sort(lane.begin(), lane.end(), by_start);
    meta(2, tid, "thread_name", "worker tid " + std::to_string(tid));
    for (const TraceEvent* span : lane) slice(2, tid, *span);
  }
  std::sort(loose.begin(), loose.end(), by_start);
  const std::vector<std::size_t> loose_lanes = assign_lanes(loose);
  std::size_t loose_lane_count = 0;
  for (std::size_t i = 0; i < loose.size(); ++i) {
    loose_lane_count = std::max(loose_lane_count, loose_lanes[i] + 1);
    slice(2, kLooseLane + loose_lanes[i], *loose[i]);
  }
  for (std::size_t lane = 0; lane < loose_lane_count; ++lane) {
    meta(2, kLooseLane + lane, "thread_name",
         "queue/respond #" + std::to_string(lane + 1));
  }

  // Flow events draw each client→daemon handoff: one `s` on the submit
  // slice, one `f` per daemon span that adopted it as parent.
  for (const TraceEvent& span : daemon) {
    const auto client_it = client_by_id.find(span.parent);
    if (client_it == client_by_id.end()) continue;
    const auto [client_tid, client_start] = client_it->second;
    const std::string id = span_id_hex(span.parent);
    emit("{\"ph\":\"s\",\"pid\":1,\"tid\":" + std::to_string(client_tid) +
         ",\"name\":\"submit\",\"cat\":\"socet\",\"id\":\"" + id +
         "\",\"ts\":" + chrome_trace_us(client_start - epoch) + "}");
    const std::size_t daemon_tid = span.tid > 0 ? span.tid : kLooseLane;
    emit("{\"ph\":\"f\",\"bp\":\"e\",\"pid\":2,\"tid\":" +
         std::to_string(daemon_tid) +
         ",\"name\":\"submit\",\"cat\":\"socet\",\"id\":\"" + id +
         "\",\"ts\":" + chrome_trace_us(span.start_ns - epoch) + "}");
  }

  out += "]}";
  return out;
}

}  // namespace socet::obs
