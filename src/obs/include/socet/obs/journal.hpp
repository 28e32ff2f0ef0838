// Decision journal + flight recorder.
//
//   SOCET_EVENT("ccg/route", {"core", name}, {"shift", shift}, ...);
//
// A structured, append-only record of *why* the pipeline did what it
// did: which edge class the transparency search settled on, which CCG
// route the reservation-aware Dijkstra picked (and how far departures
// slid), which optimizer moves were proposed and why they were
// rejected, how parallel sessions were colored, and whether a service
// job hit the plan cache.  Metrics/tracing (metrics.hpp, trace.hpp)
// answer "how long"; the journal answers "why this plan".
//
// Off by default: when disabled, SOCET_EVENT is a single relaxed
// atomic load and stdout stays byte-identical.  When enabled, each
// event is rendered at record time into one self-contained JSONL line
//
//   {"seq":12,"ts_us":84.2,"tid":3,"corr":"job-2",
//    "span":"service/job","type":"service/job","cache":"hit",...}
//
// and delivered to the active sinks:
//
//   * memory sink (`journal_start_memory`): unbounded per-thread
//     buffers, merged by `journal_jsonl()` into a `socet-journal-v1`
//     document (docs/FORMATS.md §5) for `--journal FILE` and the
//     `socet explain` queries (explain.hpp);
//   * flight recorder (`journal_start_flight`): a fixed-capacity ring of
//     pre-rendered lines, written without a lock.  A fatal-signal
//     handler dumps the last N events plus every thread's active span
//     stack to stderr using only async-signal-safe calls, so a crashing
//     run still tells you what it was deciding; `journal_flight_lines`
//     serves the same ring to the daemon's `journal` verb, which
//     `socet explain --connect` queries.  A writer that finds its slot
//     held by another writer drops its line instead of waiting.
//
// Correlation: `JournalScope` tags all events recorded by the current
// thread inside its lifetime (service workers use "job-<n>"); the
// innermost SOCET_SPAN name is captured automatically.
//
// Export (`journal_jsonl`) has the same caveat as trace export: call
// it only when no instrumented thread is concurrently recording.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

namespace socet::obs {

/// Global journal switch (independent of metrics/trace switches).
/// True while any sink is active.
bool journal_enabled();

/// Number of events recorded since start/reset (either sink).
std::uint64_t journal_event_count();

/// Enable the unbounded in-memory sink (for `--journal FILE`).
void journal_start_memory();

/// Bounds on the flight ring's capacity, in events.
inline constexpr std::size_t kMinFlightCapacity = 16;
inline constexpr std::size_t kMaxFlightCapacity = 65536;

/// Enable the fixed-capacity ring sink.  `capacity` must lie in
/// [kMinFlightCapacity, kMaxFlightCapacity] (util::Error otherwise); a
/// call with a different capacity than the live ring starts a new,
/// empty ring.  Fatal signals (SEGV/ABRT/BUS/FPE/ILL) dump
/// the ring and active spans to stderr before re-raising with the
/// default disposition.
void journal_start_flight(std::size_t capacity = 256);

/// Stop recording (buffers are kept for export).
void journal_stop();

/// Stop recording and drop all buffered events, correlation state and
/// sequence numbers (tests).
void journal_reset();

/// The full journal document: a `{"schema":"socet-journal-v1",...}`
/// header line followed by every memory-sink event in sequence order,
/// one JSON object per line, trailing newline.
std::string journal_jsonl();

/// Write the flight-recorder ring (oldest first) and the active span
/// stack of every live thread to `fd` as JSONL.  Async-signal-safe.
/// Lines longer than a ring slot keep their prefix.
void journal_dump_flight(int fd);

/// The newest flight-recorder lines whose total size (one newline
/// each) fits `max_bytes`, oldest first; lines longer than a ring slot
/// are left out.  nullopt when the flight recorder is off.
std::optional<std::vector<std::string>> journal_flight_lines(
    std::size_t max_bytes);

/// One typed key/value pair of an event.  The value is rendered to
/// JSON at construction; construction only happens inside an enabled
/// SOCET_EVENT, so the disabled path never touches it.
class JournalField {
 public:
  JournalField(const char* key, const char* value);
  JournalField(const char* key, const std::string& value);
  JournalField(const char* key, bool value);
  JournalField(const char* key, double value);
  JournalField(const char* key, int value);
  JournalField(const char* key, long value);
  JournalField(const char* key, long long value);
  JournalField(const char* key, unsigned value);
  JournalField(const char* key, unsigned long value);
  JournalField(const char* key, unsigned long long value);

  const char* key() const { return key_; }
  const std::string& json() const { return json_; }

 private:
  const char* key_;
  std::string json_;  ///< pre-rendered JSON value ("\"hit\"", "42", ...)
};

/// Record one event.  `type` must be a `<stage>/<what>` string literal
/// (same convention as span names).  Prefer the SOCET_EVENT macro.
void journal_event(const char* type,
                   std::initializer_list<JournalField> fields);

/// RAII correlation tag: events recorded by this thread while the
/// scope is alive carry `"corr":"<id>"`.  Scopes nest; the innermost
/// wins and the previous id is restored on destruction.
class JournalScope {
 public:
  explicit JournalScope(const std::string& id);
  ~JournalScope();
  JournalScope(const JournalScope&) = delete;
  JournalScope& operator=(const JournalScope&) = delete;

 private:
  bool active_ = false;
  std::string previous_;
};

namespace detail {
/// Span-stack hooks driven by obs::Span (trace.hpp).  `name` must have
/// static storage duration.
void journal_push_span(const char* name);
void journal_pop_span();
}  // namespace detail

}  // namespace socet::obs

/// Record a decision event; no-op (one relaxed load) when the journal
/// is disabled.  Fields are brace-lists: SOCET_EVENT("t", {"k", v}).
#define SOCET_EVENT(type, ...)                                     \
  do {                                                             \
    if (::socet::obs::journal_enabled()) {                         \
      ::socet::obs::journal_event((type), {__VA_ARGS__});          \
    }                                                              \
  } while (0)
