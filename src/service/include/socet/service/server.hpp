// socet serve — the persistent planning daemon.
//
// One poll()-driven event-loop thread owns every socket: it accepts
// connections, decodes length-prefixed frames (protocol.hpp), applies
// admission control, and flushes responses.  Job execution happens on a
// fixed worker pool behind the same MPMC WorkQueue the batch service
// uses; every worker runs jobs through service::Executor over ONE
// shared PlanCache, so the cache stays warm across requests,
// connections, and clients — the whole point of a daemon versus
// one-shot `socet batch`.
//
// Flow control, per connection:
//  * in-flight window — at most `client_window` unanswered requests are
//    read from a connection; further frames stay in the kernel/decoder
//    buffer until responses drain (backpressure instead of unbounded
//    queueing per client);
//  * write budget — a client that stops reading accumulates at most
//    256 KiB of unsent responses before the server also stops reading
//    from it.
//
// Admission control, global: a job arriving while `max_queue` requests
// are already queued (admitted, not yet executing) is answered with a
// structured `busy` reject immediately — the daemon's queue cannot grow
// without bound no matter how many clients connect.
//
// Responses are written in request order per connection (a FIFO of
// slots per connection; workers may finish out of order), exactly one
// frame per request.  The two control verbs (`stats`, `journal`) are
// answered inline by the event loop and occupy a slot like any request,
// so their position in the response stream is deterministic too.
// `journal` reads the process's flight recorder
// (obs::journal_start_flight, `socet serve --flight-recorder N`).
//
// With process tracing on (obs::set_trace_enabled, `serve --trace` or
// `--report`), each job records three root spans: `serve/job` on its
// worker's lane, and `serve/queue` (admission to worker pickup) and
// `serve/respond` (worker finish to the loop taking the reply) on the
// `serve-loop` lane.
//
// Graceful drain (SIGTERM/SIGINT or request_drain()): stop accepting,
// finish every admitted job, answer `busy draining` to new work, flush,
// close, join.  See docs/SERVICE.md "Running as a daemon".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "socet/service/cache.hpp"

namespace socet::service {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; Server::port() reports the bound port.
  unsigned short port = 0;
  /// Request-execution worker threads.
  unsigned threads = 1;
  /// Shared plan cache: entry bound and approximate byte bound
  /// (0 = no byte bound) — see cache.hpp.
  std::size_t cache_capacity = 4096;
  std::size_t cache_bytes = 0;
  /// Admission-control high-water mark on queued (not yet executing)
  /// requests; at or above it, new jobs get a `busy` reject.
  std::size_t max_queue = 1024;
  /// Per-connection unanswered-request window (backpressure).
  std::size_t client_window = 64;
  /// If non-empty, write "<port>\n" here once listening — how scripts
  /// and CI discover an ephemeral port.
  std::string port_file;
  /// JSONL access log: one `serve.access` object per request
  /// (FORMATS.md §7) — empty = off.  Appended and flushed per line, so
  /// an external `logrotate` with `copytruncate` can bound its size.
  /// It never touches the daemon's wire responses or stdout.
  std::string access_log;

  /// Test hook: runs on the worker thread before each job executes
  /// (admission-control and drain tests park workers here).
  std::function<void(const std::string& line)> before_execute;
};

/// A monotonic snapshot of the daemon's counters; the `stats` protocol
/// verb renders exactly this.  It is the daemon's one live-state
/// channel: a `stats` round trip is the liveness probe and `draining`
/// the readiness signal.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t requests = 0;      ///< job requests admitted
  std::uint64_t responses = 0;     ///< job responses completed
  std::uint64_t errors = 0;        ///< responses with error status
  std::uint64_t busy_rejects = 0;  ///< admission + drain rejects
  std::uint64_t bad_frames = 0;    ///< oversized/unrecoverable frames
  std::uint64_t queue_depth = 0;   ///< admitted, not yet executing
  std::uint64_t queue_depth_hwm = 0;  ///< high-water mark since start
  std::uint64_t inflight = 0;      ///< executing right now
  unsigned workers = 0;
  bool draining = false;
  CacheStats cache;
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;

  /// The deterministic key=value rendering after "ok stats ".
  [[nodiscard]] std::string text() const;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  /// Drains and joins if still running (request_drain + wait).
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen, spawn the worker pool and the event-loop thread.
  /// Throws util::Error if an address cannot be bound, or a port file
  /// or the access log cannot be written.
  void start();

  /// The bound port (resolves port 0 after start()).
  [[nodiscard]] unsigned short port() const;

  /// Thread- and signal-safe-adjacent: ask the event loop to begin a
  /// graceful drain.  Callable from any thread; the actual signal
  /// handler path goes through install_signal_handlers().
  void request_drain();

  /// Block until the drain completes and every thread has joined.
  void wait();

  /// Counter snapshot (valid during and after the run).
  [[nodiscard]] ServerStats stats() const;

  /// Route SIGTERM/SIGINT to this server's drain via an
  /// async-signal-safe self-pipe write.  One server per process.
  void install_signal_handlers();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace socet::service
