#include "socet/obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <map>
#include <mutex>

#include "socet/obs/report.hpp"

namespace socet::obs {

namespace {

std::atomic<bool> g_trace_enabled{false};

/// Events recorded by one thread, plus the ids of its open spans.
/// Registered with the sink on first use; the destructor (thread exit)
/// hands the events back so worker threads that die before export
/// still show up.
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
  std::vector<std::uint64_t> open;  ///< ids of open spans, innermost last
  std::string thread_name;

  ThreadBuffer();
  ~ThreadBuffer();
};

/// Global collection point.  Holds pointers to live thread buffers and
/// the events/names of exited threads.
struct TraceSink {
  std::mutex mutex;
  std::uint32_t next_tid = 1;
  std::vector<ThreadBuffer*> live;
  std::vector<TraceEvent> retired;
  std::map<std::uint32_t, std::string> thread_names;

  static TraceSink& instance() {
    static TraceSink sink;
    return sink;
  }
};

ThreadBuffer::ThreadBuffer() {
  TraceSink& sink = TraceSink::instance();
  std::lock_guard<std::mutex> lock(sink.mutex);
  tid = sink.next_tid++;
  sink.live.push_back(this);
}

ThreadBuffer::~ThreadBuffer() {
  TraceSink& sink = TraceSink::instance();
  std::lock_guard<std::mutex> lock(sink.mutex);
  sink.retired.insert(sink.retired.end(),
                      std::make_move_iterator(events.begin()),
                      std::make_move_iterator(events.end()));
  if (!thread_name.empty()) sink.thread_names[tid] = thread_name;
  sink.live.erase(std::remove(sink.live.begin(), sink.live.end(), this),
                  sink.live.end());
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer buffer;
  return buffer;
}

}  // namespace

bool trace_enabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void set_trace_enabled(bool enabled) {
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t new_span_id() {
  static std::atomic<std::uint64_t> counter{1};
  // High bits: nanoseconds at first use, so ids minted by the client
  // process and the daemon process never collide in one merged trace.
  static const std::uint64_t seed = (now_ns() << 16) & 0x7fffffff00000000ull;
  return seed | counter.fetch_add(1, std::memory_order_relaxed);
}

std::string span_id_hex(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(id));
  return buf;
}

bool parse_span_id(std::string_view text, std::uint64_t* out) {
  if (text.substr(0, 2) == "0x") text.remove_prefix(2);
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out, 16);
  return !text.empty() && ec == std::errc() && ptr == end;
}

namespace detail {

/// Per-thread capture state owned by the active SpanCapture.
struct CaptureState {
  std::uint64_t remote_parent = 0;
  std::size_t base_depth = 0;  ///< open spans when the capture began
  std::vector<TraceEvent> records;
};

namespace {
thread_local CaptureState* g_capture = nullptr;
}  // namespace

bool capture_active() { return g_capture != nullptr; }

std::uint64_t open_span(std::uint64_t* parent) {
  std::vector<std::uint64_t>& open = local_buffer().open;
  const CaptureState* capture = g_capture;
  if (capture != nullptr && open.size() == capture->base_depth) {
    *parent = capture->remote_parent;
  } else {
    *parent = open.empty() ? 0 : open.back();
  }
  const std::uint64_t id = new_span_id();
  open.push_back(id);
  return id;
}

void close_span(const char* name, std::uint64_t id, std::uint64_t parent,
                std::uint64_t start_ns, bool traced, bool captured) {
  const std::uint64_t end_ns = now_ns();
  ThreadBuffer& buffer = local_buffer();
  if (!buffer.open.empty() && buffer.open.back() == id) buffer.open.pop_back();
  TraceEvent event{name, buffer.tid, id, parent, start_ns, end_ns};
  if (captured && g_capture != nullptr) g_capture->records.push_back(event);
  if (traced) buffer.events.push_back(std::move(event));
}

}  // namespace detail

SpanCapture::SpanCapture(std::uint64_t trace_id, std::uint64_t remote_parent)
    : trace_id_(trace_id) {
  if (detail::g_capture != nullptr) return;  // nested capture: passive
  auto* state = new detail::CaptureState;
  state->remote_parent = remote_parent;
  state->base_depth = local_buffer().open.size();
  state_ = state;
  detail::g_capture = state;
}

SpanCapture::~SpanCapture() {
  if (state_ == nullptr) return;
  detail::g_capture = nullptr;
  delete static_cast<detail::CaptureState*>(state_);
}

std::vector<TraceEvent> SpanCapture::take() {
  if (state_ == nullptr) return {};
  return std::move(static_cast<detail::CaptureState*>(state_)->records);
}

void name_this_thread(const std::string& name) {
  ThreadBuffer& buffer = local_buffer();
  buffer.thread_name = name;
  TraceSink& sink = TraceSink::instance();
  std::lock_guard<std::mutex> lock(sink.mutex);
  sink.thread_names[buffer.tid] = name;
}

std::vector<TraceEvent> collect_trace_events() {
  TraceSink& sink = TraceSink::instance();
  std::lock_guard<std::mutex> lock(sink.mutex);
  std::vector<TraceEvent> events = sink.retired;
  for (const ThreadBuffer* buffer : sink.live) {
    events.insert(events.end(), buffer->events.begin(),
                  buffer->events.end());
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;
            });
  return events;
}

std::string chrome_trace_us(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

std::string chrome_slice(const TraceEvent& span, std::uint32_t pid,
                         std::uint32_t tid, std::uint64_t epoch_ns) {
  return "{\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) + ",\"name\":\"" +
         json_escape(span.name) + "\",\"cat\":\"socet\",\"ts\":" +
         chrome_trace_us(span.start_ns - epoch_ns) +
         ",\"dur\":" + chrome_trace_us(span.end_ns - span.start_ns) +
         ",\"args\":{\"span\":\"" + span_id_hex(span.id) +
         "\",\"parent\":\"" + span_id_hex(span.parent) + "\"}}";
}

std::string chrome_trace_json() {
  const std::vector<TraceEvent> events = collect_trace_events();
  const std::uint64_t epoch = events.empty() ? 0 : events.front().start_ns;

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    if (!first) out += ',';
    first = false;
    out += event;
  };

  // Thread-name metadata events give each lane a readable label.
  std::map<std::uint32_t, std::string> names;
  {
    TraceSink& sink = TraceSink::instance();
    std::lock_guard<std::mutex> lock(sink.mutex);
    names = sink.thread_names;
  }
  for (const auto& [tid, name] : names) {
    emit("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
         json_escape(name) + "\"}}");
  }
  for (const TraceEvent& event : events) {
    emit(chrome_slice(event, 1, event.tid, epoch));
  }
  out += "]}";
  return out;
}

void reset_trace() {
  TraceSink& sink = TraceSink::instance();
  std::lock_guard<std::mutex> lock(sink.mutex);
  sink.retired.clear();
  sink.thread_names.clear();
  for (ThreadBuffer* buffer : sink.live) buffer->events.clear();
}

}  // namespace socet::obs
