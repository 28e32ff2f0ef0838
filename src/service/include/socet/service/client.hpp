// Blocking protocol client for socet serve (docs/FORMATS.md §6).
//
// Client::run_lines replays a FORMATS.md §4 job file against a daemon
// and renders records byte-identical to one-shot `socet batch`: it
// applies the same comment/blank-line filter as
// PlanningService::run_lines, numbers the surviving lines 1..N, and
// prefixes each response payload with "job <n> ".  Requests are
// pipelined up to a window of unanswered frames (responses arrive in
// request order, so matching is positional); the default window is
// deliberately smaller than the server's per-connection window so the
// client never deadlocks writing while the server waits for it to read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "socet/obs/tracemerge.hpp"

namespace socet::service {

struct ClientOptions {
  std::string host = "127.0.0.1";
  unsigned short port = 0;
  /// Unanswered requests in flight; must stay below the server's
  /// per-connection window (default 64) or both sides block on writes.
  std::size_t window = 16;
  /// Distributed tracing (`batch --connect --trace`): run_lines opens a
  /// clock handshake, wraps every job in a client submit span,
  /// propagates the trace context on each frame (kFrameTraceFlag), and
  /// collects the daemon's spans afterwards.  Never changes records —
  /// the stdout byte-identity guarantee holds with this on.
  bool trace = false;
};

/// The two halves of one cross-process trace, plus the clock offset
/// that aligns them (daemon = client + offset).
struct ClientTrace {
  std::uint64_t trace_id = 0;  ///< 0 = tracing was off
  std::int64_t clock_offset_ns = 0;
  std::vector<obs::TraceEvent> client_spans;  ///< client clock
  std::vector<obs::TraceEvent> daemon_spans;  ///< daemon clock

  /// The merged Chrome trace-event document (obs::merged_chrome_trace).
  [[nodiscard]] std::string chrome_trace() const;
};

struct ClientReport {
  /// "job <n> <response payload>" per surviving line, in order.
  std::vector<std::string> records;
  std::size_t jobs = 0;    ///< lines sent
  std::size_t errors = 0;  ///< `error ...` responses
  std::size_t busy = 0;    ///< `busy ...` rejects
  /// Filled when ClientOptions::trace was on (trace_id != 0).
  ClientTrace trace;

  /// The records joined with newlines — `socet batch` output, byte for
  /// byte, when the server is not saturated.
  [[nodiscard]] std::string records_text() const;
};

class Client {
 public:
  /// Connects immediately; throws util::Error on failure.
  explicit Client(ClientOptions options);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Replay a job file (raw lines, comments included) and collect the
  /// responses.  Throws util::Error if the server closes mid-batch.
  ClientReport run_lines(const std::vector<std::string>& lines);

  /// One control round-trip (`stats`, `journal`, ...);
  /// returns the raw response payload.
  std::string query(const std::string& verb);

 private:
  /// A few `clock` probes → min-RTT midpoint offset estimate.
  std::int64_t clock_handshake();
  /// Fetch (and release) the daemon's spans for `trace_id`.
  std::vector<obs::TraceEvent> collect_spans(std::uint64_t trace_id);

  ClientOptions options_;
  int fd_ = -1;
};

}  // namespace socet::service
