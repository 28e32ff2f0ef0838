// Scoped wall-time spans with Chrome trace-event export.
//
//   void plan(...) {
//     SOCET_SPAN("soc/plan_chip_test");
//     ...
//   }
//
// A Span is an RAII guard: when tracing is enabled it records one
// (name, thread, start, end) event into a per-thread buffer on
// destruction; when disabled its constructor is a single relaxed atomic
// load.  Buffers register themselves with a global sink on first use
// and hand their events back when the thread exits, so worker-pool
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
#include <vector>

#include "socet/obs/journal.hpp"
#include "socet/obs/timer.hpp"

namespace socet::obs {

/// Global tracing switch (independent of the metrics switch).
bool trace_enabled();
void set_trace_enabled(bool enabled);

/// One closed span.  `name` must be a string with static storage
/// duration (SOCET_SPAN passes literals).
struct TraceEvent {
  const char* name = nullptr;
  std::uint32_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// One closed span with an identity: part of a distributed trace.
/// Unlike TraceEvent these are self-contained (owned name, explicit
/// parent link) so they can cross the process boundary (tracemerge.hpp
/// serializes them for the serve `spans` verb).
struct SpanRecord {
  std::string name;
  std::uint32_t tid = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root of its capture
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Process-unique span/trace id: a per-process time-derived seed in the
/// high bits (so two processes started at different nanoseconds draw
/// from disjoint ranges) plus an atomic counter.  Never returns 0.
std::uint64_t new_span_id();

namespace detail {
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns);
bool capture_active();
void capture_open(std::uint64_t* id, std::uint64_t* parent);
void capture_close(const char* name, std::uint64_t id, std::uint64_t parent,
                   std::uint64_t start_ns, std::uint64_t end_ns);
}  // namespace detail

/// Adopt a remote trace context on the *current thread*: while alive,
/// every SOCET_SPAN this thread opens is also recorded as a SpanRecord
/// with a fresh span id, parented under the innermost open span (or
/// under `remote_parent` at the top).  Independent of the global trace
/// switch — this is how daemon workers trace one request on behalf of
/// a client without turning whole-process tracing on.  `take()` hands
/// the records back; call it after the instrumented scope closed.
/// Captures do not nest: a second capture on the same thread is
/// passive (records nothing, take() returns empty).
class SpanCapture {
 public:
  SpanCapture(std::uint64_t trace_id, std::uint64_t remote_parent);
  ~SpanCapture();
  SpanCapture(const SpanCapture&) = delete;
  SpanCapture& operator=(const SpanCapture&) = delete;

  std::uint64_t trace_id() const { return trace_id_; }
  std::vector<SpanRecord> take();

 private:
  std::uint64_t trace_id_ = 0;
  void* state_ = nullptr;  ///< detail::CaptureState*, null if passive
};

class Span {
 public:
  explicit Span(const char* name) {
    const bool capturing = detail::capture_active();
    if (trace_enabled()) traced_ = true;
    if (traced_ || capturing) {
      name_ = name;
      start_ns_ = now_ns();
    }
    if (capturing) {
      captured_ = true;
      detail::capture_open(&capture_id_, &capture_parent_);
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
      const std::uint64_t end_ns = now_ns();
      if (traced_) detail::record_span(name_, start_ns_, end_ns);
      if (captured_) {
        detail::capture_close(name_, capture_id_, capture_parent_, start_ns_,
                              end_ns);
      }
    }
    if (journal_pushed_) detail::journal_pop_span();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t capture_id_ = 0;
  std::uint64_t capture_parent_ = 0;
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

/// Full Chrome trace-event JSON document: matched B/E pairs per span,
/// one `tid` lane per recording thread, thread-name metadata events,
/// timestamps in microseconds relative to the first span.
std::string chrome_trace_json();

/// Drop all recorded events and thread names (tests).
void reset_trace();

}  // namespace socet::obs

#define SOCET_OBS_CONCAT2(a, b) a##b
#define SOCET_OBS_CONCAT(a, b) SOCET_OBS_CONCAT2(a, b)
/// Open a span covering the rest of the enclosing scope.
#define SOCET_SPAN(name) \
  ::socet::obs::Span SOCET_OBS_CONCAT(socet_obs_span_, __LINE__)(name)
