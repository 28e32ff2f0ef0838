// Scoped wall-time spans with Chrome trace-event export.
//
//   void plan(...) {
//     SOCET_SPAN("soc/plan_chip_test");
//     ...
//   }
//
// A Span is an RAII guard: when tracing is enabled it records one
// TraceEvent (name, thread, id, parent, start, end) into a per-thread
// buffer on destruction; when disabled its constructor is a single
// relaxed atomic load plus a thread-local capture check.  Every recorded
// span takes a process-unique id, and its parent is the span that was
// open around it on the same thread, so the exported trace carries its
// own nesting.  Buffers register themselves with a global sink on first
// use and hand their events back when the thread exits, so worker-pool
// threads that die before export still appear in the trace — each
// thread gets its own lane (`tid`) in chrome://tracing / Perfetto.
//
// Export (`chrome_trace_json`) must only run when no instrumented
// thread is concurrently recording — in practice: after worker pools
// have joined, which is how the CLI uses it.
//
// Span names are `<stage>/<what>` string literals; the leading stage
// segment is what the run report aggregates by (see report.hpp and
// docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "socet/obs/journal.hpp"
#include "socet/obs/timer.hpp"

namespace socet::obs {

/// Global tracing switch (independent of the metrics switch).
bool trace_enabled();
void set_trace_enabled(bool enabled);

/// One closed span: the record every exporter and reader shares —
/// `--trace` files, daemon span captures, the `spans` wire verb and the
/// merged cross-process trace.
struct TraceEvent {
  std::string name;
  std::uint32_t tid = 0;
  std::uint64_t id = 0;       ///< process-unique, never 0 once recorded
  std::uint64_t parent = 0;   ///< enclosing span's id; 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Process-unique span/trace id: a per-process time-derived seed in the
/// high bits (so two processes started at different nanoseconds draw
/// from disjoint ranges) plus an atomic counter.  Never returns 0.
std::uint64_t new_span_id();

/// A span id as traces and the wire write it: `0x` and lowercase hex.
std::string span_id_hex(std::uint64_t id);

/// The inverse of span_id_hex: an optional `0x`, then 1 to 16 hex
/// digits and nothing else.  False for anything looser.
bool parse_span_id(std::string_view text, std::uint64_t* out);

namespace detail {
bool capture_active();
/// Push a fresh id on this thread's stack of open spans; `*parent` gets
/// the innermost open span (or an active capture's remote parent).
std::uint64_t open_span(std::uint64_t* parent);
/// Pop `id` and hand the closed span to the trace buffer (`traced`),
/// to the active capture (`captured`), or to both.
void close_span(const char* name, std::uint64_t id, std::uint64_t parent,
                std::uint64_t start_ns, bool traced, bool captured);
}  // namespace detail

/// Adopt a remote trace context on the *current thread*: while alive,
/// every SOCET_SPAN this thread opens is also handed to the capture,
/// parented under the innermost open span (or under `remote_parent` at
/// the capture's base depth).  Independent of the global trace switch —
/// this is how daemon workers trace one request on behalf of a client
/// without turning whole-process tracing on.  `take()` hands the
/// records back; call it after the instrumented scope closed.  Captures
/// do not nest: a second capture on the same thread is passive (records
/// nothing, take() returns empty).
class SpanCapture {
 public:
  SpanCapture(std::uint64_t trace_id, std::uint64_t remote_parent);
  ~SpanCapture();
  SpanCapture(const SpanCapture&) = delete;
  SpanCapture& operator=(const SpanCapture&) = delete;

  std::uint64_t trace_id() const { return trace_id_; }
  std::vector<TraceEvent> take();

 private:
  std::uint64_t trace_id_ = 0;
  void* state_ = nullptr;  ///< detail::CaptureState*, null if passive
};

class Span {
 public:
  explicit Span(const char* name) {
    const bool capturing = detail::capture_active();
    traced_ = trace_enabled();
    if (traced_ || capturing) {
      name_ = name;
      captured_ = capturing;
      id_ = detail::open_span(&parent_);
      start_ns_ = now_ns();
    }
    // The journal's crash dump reports each thread's active spans, so
    // spans also maintain a journal-side stack while it is recording.
    if (journal_enabled()) {
      journal_pushed_ = true;
      detail::journal_push_span(name);
    }
  }
  ~Span() {
    if (name_ != nullptr) {
      detail::close_span(name_, id_, parent_, start_ns_, traced_, captured_);
    }
    if (journal_pushed_) detail::journal_pop_span();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
  bool traced_ = false;
  bool captured_ = false;
  bool journal_pushed_ = false;
};

/// Label this thread's lane in the exported trace (e.g. "worker-2").
void name_this_thread(const std::string& name);

/// Copy of every recorded event (live buffers + exited threads),
/// sorted by start time.  See the export caveat above.
std::vector<TraceEvent> collect_trace_events();

/// A nanosecond offset from a trace's epoch as a Chrome `ts`/`dur`
/// value: fixed-point microseconds ("1500000.250").  Six significant
/// digits would print a short span's end before its start once the
/// trace runs past one second.
std::string chrome_trace_us(std::uint64_t ns);

/// One span as a Chrome complete (`X`) slice on lane (`pid`, `tid`):
/// `ts`/`dur` in microseconds relative to `epoch_ns`, and hex
/// `args.span`/`args.parent` ids.  Every exporter renders spans with it.
std::string chrome_slice(const TraceEvent& span, std::uint32_t pid,
                         std::uint32_t tid, std::uint64_t epoch_ns);

/// Full Chrome trace-event JSON document: thread-name metadata events,
/// then one `chrome_slice` per recorded span on its thread's lane,
/// timestamps relative to the first span.
std::string chrome_trace_json();

/// Drop all recorded events and thread names (tests).
void reset_trace();

}  // namespace socet::obs

#define SOCET_OBS_CONCAT2(a, b) a##b
#define SOCET_OBS_CONCAT(a, b) SOCET_OBS_CONCAT2(a, b)
/// Open a span covering the rest of the enclosing scope.
#define SOCET_SPAN(name) \
  ::socet::obs::Span SOCET_OBS_CONCAT(socet_obs_span_, __LINE__)(name)
