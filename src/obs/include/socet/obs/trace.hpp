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
// relaxed atomic load.  Every recorded span takes a process-unique id,
// and its parent is the span that was open around it on the same
// thread, so the exported trace carries its own nesting.  An interval
// no scope brackets (the daemon's queue wait) is recorded after the
// fact with `record_span`, as a root on the calling thread's lane.
// Buffers register themselves with a global sink on first use and hand
// their events back when the thread exits, so worker-pool threads that
// die before export still appear in the trace — each thread gets its
// own lane (`tid`) in chrome://tracing / Perfetto.
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

/// One closed span: the record the `--trace` exporter, the run report
/// and the bench lines all read.
struct TraceEvent {
  std::string name;
  std::uint32_t tid = 0;
  std::uint64_t id = 0;       ///< process-unique, never 0 once recorded
  std::uint64_t parent = 0;   ///< enclosing span's id; 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// A span id as traces write it (`0x` and lowercase hex), read back:
/// an optional `0x`, then 1 to 16 hex digits and nothing else.  False
/// for anything looser.
bool parse_span_id(std::string_view text, std::uint64_t* out);

namespace detail {
/// Push a fresh id on this thread's stack of open spans; `*parent` gets
/// the innermost open span (0 if none).
std::uint64_t open_span(std::uint64_t* parent);
/// Pop `id` and append the closed span to this thread's buffer.
void close_span(const char* name, std::uint64_t id, std::uint64_t parent,
                std::uint64_t start_ns);
}  // namespace detail

class Span {
 public:
  explicit Span(const char* name) {
    if (trace_enabled()) {
      name_ = name;
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
      detail::close_span(name_, id_, parent_, start_ns_);
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
  bool journal_pushed_ = false;
};

/// Record a span that already ended, `[start_ns, end_ns]` on the
/// now_ns() clock, as a root (parent 0) on the calling thread's lane.
/// A no-op while tracing is off.
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns);

/// Label this thread's lane in the exported trace (e.g. "worker-2").
void name_this_thread(const std::string& name);

/// Copy of every recorded event (live buffers + exited threads),
/// sorted by start time.  See the export caveat above.
std::vector<TraceEvent> collect_trace_events();

/// One span as a Chrome complete (`X`) slice on its thread's lane:
/// `ts`/`dur` as fixed-point microseconds relative to `epoch_ns`
/// ("1500000.250"; six significant digits would print a short span's
/// end before its start once the trace runs past one second), and hex
/// `args.span`/`args.parent` ids.
std::string chrome_slice(const TraceEvent& span, std::uint64_t epoch_ns);

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
