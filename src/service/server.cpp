#include "socet/service/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "socet/obs/build.hpp"
#include "socet/obs/expo.hpp"
#include "socet/obs/journal.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/report.hpp"
#include "socet/obs/trace.hpp"
#include "socet/obs/tracemerge.hpp"
#include "socet/service/httpd.hpp"
#include "socet/service/protocol.hpp"
#include "socet/service/queue.hpp"
#include "socet/service/service.hpp"
#include "socet/util/error.hpp"

namespace socet::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-connection unsent-response byte budget; reads pause above it.
constexpr std::size_t kMaxBufferedBytes = 256 * 1024;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Signal plumbing: the handler may only touch async-signal-safe state,
/// so it sets a pre-registered atomic flag and writes one byte to the
/// server's wake pipe.  One server per process (the CLI's case).
std::atomic<int> g_signal_wake_fd{-1};
std::atomic<bool>* g_signal_drain_flag = nullptr;

void on_drain_signal(int) {
  if (g_signal_drain_flag != nullptr) {
    g_signal_drain_flag->store(true, std::memory_order_release);
  }
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 'S';
    [[maybe_unused]] const ssize_t rc = ::write(fd, &byte, 1);
  }
}

std::string first_token(const std::string& line) {
  const auto first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto end = line.find_first_of(" \t\r", first);
  return line.substr(first,
                     end == std::string::npos ? std::string::npos
                                              : end - first);
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const auto start = line.find_first_not_of(" \t\r", pos);
    if (start == std::string::npos) break;
    const auto end = line.find_first_of(" \t\r", start);
    tokens.push_back(line.substr(
        start, end == std::string::npos ? std::string::npos : end - start));
    if (end == std::string::npos) break;
    pos = end;
  }
  return tokens;
}

}  // namespace

std::string ServerStats::text() const {
  std::string text;
  const auto field = [&text](const char* key, std::uint64_t value) {
    if (!text.empty()) text += ' ';
    text += key;
    text += '=';
    text += std::to_string(value);
  };
  field("workers", workers);
  field("connections", connections_open);
  field("accepted", connections_accepted);
  field("requests", requests);
  field("responses", responses);
  field("errors", errors);
  field("busy", busy_rejects);
  field("bad_frames", bad_frames);
  field("queue_depth", queue_depth);
  field("queue_hwm", queue_depth_hwm);
  field("inflight", inflight);
  field("draining", draining ? 1 : 0);
  field("cache_hits", cache.hits);
  field("cache_misses", cache.misses);
  field("cache_insertions", cache.insertions);
  field("cache_evictions", cache.evictions);
  field("cache_evicted_bytes", cache.evicted_bytes);
  field("cache_entries", cache_entries);
  field("cache_bytes", cache_bytes);
  return text;
}

struct Server::Impl {
  /// One connection's state machine, owned by the event loop; workers
  /// only ever hold a shared_ptr to route their completion back.
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    FrameReader reader;
    std::string out;           ///< encoded, unsent response bytes
    std::size_t out_off = 0;   ///< already-written prefix of `out`
    struct Slot {
      std::uint64_t id = 0;
      bool done = false;
      std::string body;
    };
    std::deque<Slot> slots;  ///< FIFO: responses flush in request order
    std::uint64_t next_slot_id = 1;
    bool peer_eof = false;  ///< no more requests will arrive
    bool fatal = false;     ///< close after the pending flush (bad frame)
    bool dead = false;      ///< closed and removed from the map
  };

  struct Task {
    std::shared_ptr<Conn> conn;
    std::uint64_t slot_id = 0;
    std::uint64_t ordinal = 0;
    std::string line;
    std::string corr;  ///< wire correlation id (may be empty)
    std::string verb;  ///< first token of `line` (access log)
    std::uint64_t depth_at_admit = 0;
    // Propagated trace context (kFrameTraceFlag); 0 = untraced request.
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span = 0;
    std::uint64_t admit_ns = 0;  ///< obs::now_ns() at admission
  };

  struct Completion {
    std::shared_ptr<Conn> conn;
    std::uint64_t slot_id = 0;
    std::string body;
    // Access-log fields, filled by the worker and written by the event
    // loop (the log has exactly one writer thread).
    std::string corr;
    std::string verb;
    double wall_us = 0;
    bool ok = false;
    bool cache_hit = false;
    std::uint64_t depth_at_admit = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span = 0;
    std::uint64_t finish_ns = 0;  ///< obs::now_ns() when the worker finished
  };

  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        cache(options.cache_capacity, options.cache_bytes) {}

  ServerOptions options;
  PlanCache cache;
  int listen_fd = -1;
  unsigned short bound_port = 0;
  int wake_r = -1;
  int wake_w = -1;
  std::thread loop_thread;
  std::vector<std::thread> workers;
  bool started = false;
  bool joined = false;

  // Telemetry plane (all dormant unless the options enable it).
  Httpd httpd;
  std::ofstream access_log;  ///< written only by the event-loop thread
  Clock::time_point start_time = Clock::now();
  std::int64_t start_unix_seconds =
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();

  // Cross-process tracing: spans captured for propagated trace ids,
  // held until the client fetches them with the `spans` verb.  Bounded
  // FIFO so a client that never collects cannot grow the daemon.
  static constexpr std::size_t kMaxTraces = 64;
  static constexpr std::size_t kMaxSpansPerTrace = 4096;
  std::mutex trace_mutex;
  std::map<std::uint64_t, std::vector<obs::TraceEvent>> trace_store;
  std::deque<std::uint64_t> trace_order;

  WorkQueue<Task> queue;
  std::mutex completions_mutex;
  std::vector<Completion> completions;

  // Event-loop-private state.
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  std::uint64_t next_conn_id = 1;
  std::uint64_t next_ordinal = 1;

  // Counters shared between the loop, workers, and external stats().
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> busy_rejects{0};
  std::atomic<std::uint64_t> bad_frames{0};
  std::atomic<std::uint64_t> queue_depth{0};
  std::atomic<std::uint64_t> queue_hwm{0};
  std::atomic<std::uint64_t> inflight{0};
  std::atomic<std::uint64_t> open_conns{0};
  std::atomic<bool> draining{false};
  std::atomic<bool> drain_requested{false};

  // ---------------------------------------------------------------- workers

  void worker_main(unsigned index) {
    obs::name_this_thread("serve-worker-" + std::to_string(index + 1));
    Executor executor(cache);
    while (auto task = queue.pop()) {
      queue_depth.fetch_sub(1, std::memory_order_relaxed);
      inflight.fetch_add(1, std::memory_order_relaxed);
      if (options.before_execute) options.before_execute(task->line);
      const std::uint64_t start_ns = obs::now_ns();
      const auto start = Clock::now();
      Completion completion;
      // A propagated trace context turns on per-request span capture:
      // every Span this worker opens while running the job is recorded
      // under the client's trace id, independent of the daemon's own
      // --trace switch.
      std::optional<obs::SpanCapture> capture;
      if (task->trace_id != 0) {
        capture.emplace(task->trace_id, task->parent_span);
      }
      {
        SOCET_SPAN("serve/job");
        // The wire correlation id (if the client sent one) scopes this
        // job's journal events, so `socet explain` queries line up with
        // the client's own naming; bare frames fall back to a
        // server-assigned ordinal id.
        obs::JournalScope journal_scope(
            task->corr.empty() ? "req-" + std::to_string(task->ordinal)
                               : task->corr);
        JobResult result = executor.run_line(task->line, task->ordinal);
        if (!result.ok) errors.fetch_add(1, std::memory_order_relaxed);
        completion.ok = result.ok;
        completion.cache_hit = result.cache_hit;
        completion.body = std::move(result.record);
      }
      if (capture) {
        auto spans = capture->take();
        capture.reset();
        // Synthesize the queue-wait span (admission → pickup) on the
        // event-loop lane (tid 0); the merge tool stripes it visually.
        spans.push_back(obs::TraceEvent{"serve/queue", 0, obs::new_span_id(),
                                        task->parent_span, task->admit_ns,
                                        start_ns});
        store_trace_spans(task->trace_id, std::move(spans));
      }
      const double request_us =
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count();
      SOCET_HISTOGRAM("serve/request_us", request_us);
      responses.fetch_add(1, std::memory_order_relaxed);
      inflight.fetch_sub(1, std::memory_order_relaxed);
      completion.conn = std::move(task->conn);
      completion.slot_id = task->slot_id;
      completion.corr = std::move(task->corr);
      completion.verb = std::move(task->verb);
      completion.wall_us = request_us;
      completion.depth_at_admit = task->depth_at_admit;
      completion.trace_id = task->trace_id;
      completion.parent_span = task->parent_span;
      completion.finish_ns = obs::now_ns();
      {
        std::lock_guard<std::mutex> lock(completions_mutex);
        completions.push_back(std::move(completion));
      }
      wake();
    }
  }

  void wake() {
    const char byte = 'C';
    [[maybe_unused]] const ssize_t rc = ::write(wake_w, &byte, 1);
    // A full pipe is fine: the loop drains it and rescans everything.
  }

  // ---------------------------------------------------------------- tracing

  void store_trace_spans(std::uint64_t trace_id,
                         std::vector<obs::TraceEvent> spans) {
    std::lock_guard<std::mutex> lock(trace_mutex);
    auto it = trace_store.find(trace_id);
    if (it == trace_store.end()) {
      while (trace_order.size() >= kMaxTraces) {
        trace_store.erase(trace_order.front());
        trace_order.pop_front();
      }
      trace_order.push_back(trace_id);
      it = trace_store.emplace(trace_id, std::vector<obs::TraceEvent>{}).first;
    }
    auto& stored = it->second;
    for (auto& span : spans) {
      if (stored.size() >= kMaxSpansPerTrace) break;
      stored.push_back(std::move(span));
    }
  }

  // -------------------------------------------------------------- the loop

  [[nodiscard]] bool can_read(const Conn& conn) const {
    return !conn.fatal && !conn.peer_eof && !conn.dead &&
           conn.slots.size() < options.client_window &&
           conn.out.size() - conn.out_off < kMaxBufferedBytes;
  }

  void loop_main() {
    obs::name_this_thread("serve-loop");
    std::vector<pollfd> pfds;
    std::vector<std::shared_ptr<Conn>> polled;
    while (true) {
      if (drain_requested.load(std::memory_order_acquire) &&
          !draining.load(std::memory_order_relaxed)) {
        begin_drain();
        // Close already-idle connections immediately: they produce no
        // poll events, so waiting for one would block the drain.
        close_idle_conns();
      }
      if (draining.load(std::memory_order_relaxed) && conns.empty()) break;

      pfds.clear();
      polled.clear();
      pfds.push_back({wake_r, POLLIN, 0});
      const bool poll_listen =
          listen_fd >= 0 && !draining.load(std::memory_order_relaxed);
      if (poll_listen) pfds.push_back({listen_fd, POLLIN, 0});
      const std::size_t conn_base = pfds.size();
      for (auto& [fd, conn] : conns) {
        short events = 0;
        if (can_read(*conn)) events |= POLLIN;
        if (conn->out_off < conn->out.size()) events |= POLLOUT;
        pfds.push_back({fd, events, 0});
        polled.push_back(conn);
      }

      const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1);
      if (rc < 0 && errno != EINTR) break;  // unrecoverable poll failure
      if (rc < 0) continue;                 // EINTR: rescan (drain signal)

      if ((pfds[0].revents & POLLIN) != 0) drain_wake_pipe();
      apply_completions();
      if (poll_listen && (pfds[1].revents & POLLIN) != 0) accept_all();

      for (std::size_t c = 0; c < polled.size(); ++c) {
        const auto& conn = polled[c];
        if (conn->dead) continue;
        const short revents = pfds[conn_base + c].revents;
        if ((revents & POLLOUT) != 0) {
          try_write(conn);
          if (!conn->dead) pump(conn);  // freed write budget may unblock reads
        }
        if (!conn->dead && (revents & POLLIN) != 0) handle_read(conn);
        if (!conn->dead && (revents & (POLLERR | POLLNVAL)) != 0) {
          close_conn(conn);
        }
        if (!conn->dead) maybe_close(conn);
      }
      if (draining.load(std::memory_order_relaxed)) close_idle_conns();
    }
  }

  /// During a drain, connections that owe nothing (no pending slots,
  /// output flushed) are closed so the loop can terminate even with
  /// clients still attached.
  void close_idle_conns() {
    std::vector<std::shared_ptr<Conn>> snapshot;
    snapshot.reserve(conns.size());
    for (auto& [fd, conn] : conns) snapshot.push_back(conn);
    for (const auto& conn : snapshot) maybe_close(conn);
  }

  void begin_drain() {
    draining.store(true, std::memory_order_relaxed);
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
    // Workers finish every admitted job (close() drains the tail), then
    // exit; new jobs are answered `busy draining` before reaching the
    // queue.
    queue.close();
    SOCET_EVENT("serve/drain", {"conns", conns.size()},
                {"queued", queue_depth.load(std::memory_order_relaxed)});
  }

  void drain_wake_pipe() {
    char buffer[256];
    while (true) {
      const ssize_t r = ::read(wake_r, buffer, sizeof(buffer));
      if (r <= 0) break;
    }
  }

  void apply_completions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(completions_mutex);
      batch.swap(completions);
    }
    for (auto& completion : batch) {
      const auto& conn = completion.conn;
      log_access(conn->id, completion.corr, completion.verb,
                 completion.ok ? "ok" : "error", completion.depth_at_admit,
                 completion.wall_us, completion.cache_hit ? "hit" : "miss");
      if (completion.trace_id != 0) {
        // The respond span covers worker-finish → event-loop pickup:
        // the tail latency a client sees past the job itself.
        store_trace_spans(
            completion.trace_id,
            {obs::TraceEvent{"serve/respond", 0, obs::new_span_id(),
                             completion.parent_span, completion.finish_ns,
                             obs::now_ns()}});
      }
      if (conn->dead) continue;  // client vanished mid-job: drop result
      for (auto& slot : conn->slots) {
        if (slot.id == completion.slot_id) {
          slot.done = true;
          slot.body = std::move(completion.body);
          break;
        }
      }
      pump(conn);
      if (!conn->dead) maybe_close(conn);
    }
  }

  void accept_all() {
    while (true) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) break;
      set_nonblocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->id = next_conn_id++;
      conns.emplace(fd, conn);
      accepted.fetch_add(1, std::memory_order_relaxed);
      open_conns.fetch_add(1, std::memory_order_relaxed);
      SOCET_COUNT("serve/connections");
      SOCET_EVENT("serve/conn", {"conn", conn->id}, {"event", "accept"});
    }
  }

  void handle_read(const std::shared_ptr<Conn>& conn) {
    char buffer[16384];
    while (can_read(*conn)) {
      const ssize_t r = ::read(conn->fd, buffer, sizeof(buffer));
      if (r > 0) {
        conn->reader.feed(buffer, static_cast<std::size_t>(r));
        pump(conn);
        if (r < static_cast<ssize_t>(sizeof(buffer))) break;
      } else if (r == 0) {
        conn->peer_eof = true;  // half-close: still flush pending work
        break;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      } else if (errno == EINTR) {
        continue;
      } else {
        close_conn(conn);  // ECONNRESET and friends: client is gone
        return;
      }
    }
  }

  /// Decode and dispatch as many buffered frames as flow control
  /// allows, then surface a protocol error (oversized frame) and flush.
  void pump(const std::shared_ptr<Conn>& conn) {
    while (can_read_frames(*conn)) {
      auto frame = conn->reader.next_frame();
      if (!frame) break;
      dispatch(conn, frame->payload, frame->corr,
               frame->has_trace ? &frame->trace : nullptr);
    }
    if (conn->reader.overflowed() && !conn->fatal) {
      bad_frames.fetch_add(1, std::memory_order_relaxed);
      SOCET_COUNT("serve/bad_frames");
      SOCET_EVENT("serve/frame", {"conn", conn->id}, {"event", "oversized"},
                  {"announced", conn->reader.announced()});
      add_done_slot(conn,
                    "error oversized frame: announced " +
                        std::to_string(conn->reader.announced()) +
                        " bytes (limit " + std::to_string(kMaxFrameBytes) +
                        ")");
      conn->fatal = true;  // close once everything pending has flushed
    }
    flush_ready(conn);
    try_write(conn);
  }

  /// Like can_read, but without the peer_eof guard: frames already
  /// buffered before a half-close still execute.
  [[nodiscard]] bool can_read_frames(const Conn& conn) const {
    return !conn.fatal && !conn.dead &&
           conn.slots.size() < options.client_window &&
           conn.out.size() - conn.out_off < kMaxBufferedBytes;
  }

  void add_done_slot(const std::shared_ptr<Conn>& conn, std::string body) {
    conn->slots.push_back({conn->next_slot_id++, true, std::move(body)});
  }

  /// One FORMATS.md §7 access-log line.  Only ever called from the
  /// event-loop thread (inline verbs and rejects in dispatch, job
  /// completions in apply_completions), so the stream needs no lock.
  void log_access(std::uint64_t conn_id, const std::string& corr,
                  const std::string& verb, const char* status,
                  std::uint64_t depth, double wall_us, const char* cache) {
    if (!access_log.is_open()) return;
    const auto ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - start_time)
                           .count();
    std::string entry = "{\"type\":\"serve.access\",\"ts_us\":" +
                        std::to_string(ts_us) + ",\"conn\":" +
                        std::to_string(conn_id) + ",\"corr\":\"" +
                        obs::json_escape(corr) + "\",\"verb\":\"" +
                        obs::json_escape(verb) + "\",\"status\":\"" + status +
                        "\",\"queue_depth\":" + std::to_string(depth) +
                        ",\"wall_us\":" +
                        std::to_string(static_cast<std::uint64_t>(wall_us)) +
                        ",\"cache\":" +
                        (cache == nullptr ? std::string("null")
                                          : "\"" + std::string(cache) + "\"") +
                        "}\n";
    access_log << entry;
    access_log.flush();
  }

  void dispatch(const std::shared_ptr<Conn>& conn, const std::string& line,
                const std::string& corr, const FrameTrace* trace) {
    const std::string verb = first_token(line);
    const std::uint64_t depth = queue_depth.load(std::memory_order_relaxed);
    if (verb == "stats") {
      add_done_slot(conn, "ok stats " + snapshot().text());
      log_access(conn->id, corr, verb, "ok", depth, 0, nullptr);
      return;
    }
    if (verb == "clock") {
      // The clock-offset handshake: answer with this process's
      // monotonic now.  Answered pre-drain so trace collection still
      // works against a draining daemon.
      add_done_slot(conn, "ok clock " + std::to_string(obs::now_ns()));
      log_access(conn->id, corr, verb, "ok", depth, 0, nullptr);
      return;
    }
    if (verb == "spans") {
      dispatch_spans(conn, line, corr, depth);
      return;
    }
    if (verb == "journal") {
      dispatch_journal(conn, corr, depth);
      return;
    }
    if (draining.load(std::memory_order_relaxed)) {
      busy_rejects.fetch_add(1, std::memory_order_relaxed);
      SOCET_COUNT("serve/busy_rejects");
      SOCET_EVENT("serve/busy", {"conn", conn->id}, {"why", "draining"});
      add_done_slot(conn, "busy draining");
      log_access(conn->id, corr, verb, "busy", depth, 0, nullptr);
      return;
    }
    if (depth >= options.max_queue) {
      busy_rejects.fetch_add(1, std::memory_order_relaxed);
      SOCET_COUNT("serve/busy_rejects");
      SOCET_EVENT("serve/busy", {"conn", conn->id}, {"why", "queue_full"},
                  {"queue", depth}, {"limit", options.max_queue});
      add_done_slot(conn, "busy queue=" + std::to_string(depth) +
                              " limit=" +
                              std::to_string(options.max_queue));
      log_access(conn->id, corr, verb, "busy", depth, 0, nullptr);
      return;
    }
    requests.fetch_add(1, std::memory_order_relaxed);
    SOCET_COUNT("serve/requests");
    queue_depth.fetch_add(1, std::memory_order_relaxed);
    SOCET_GAUGE_MAX("serve/queue_depth", depth + 1);
    std::uint64_t hwm = queue_hwm.load(std::memory_order_relaxed);
    while (depth + 1 > hwm &&
           !queue_hwm.compare_exchange_weak(hwm, depth + 1,
                                            std::memory_order_relaxed)) {
    }
    const std::uint64_t slot_id = conn->next_slot_id++;
    conn->slots.push_back({slot_id, false, {}});
    Task task;
    task.conn = conn;
    task.slot_id = slot_id;
    task.ordinal = next_ordinal++;
    task.line = line;
    task.corr = corr;
    task.verb = verb;
    task.depth_at_admit = depth + 1;
    if (trace != nullptr) {
      task.trace_id = trace->trace_id;
      task.parent_span = trace->parent_span;
    }
    task.admit_ns = obs::now_ns();
    queue.push(std::move(task));
  }

  /// `spans <trace-id-hex>`: hand back (and release) every span the
  /// daemon captured for the client's trace, as socet-spans-v1 JSONL.
  void dispatch_spans(const std::shared_ptr<Conn>& conn,
                      const std::string& line, const std::string& corr,
                      std::uint64_t depth) {
    const auto tokens = split_tokens(line);
    std::uint64_t trace_id = 0;
    if (tokens.size() != 2 || !obs::parse_span_id(tokens[1], &trace_id) ||
        trace_id == 0) {
      add_done_slot(conn, "error bad spans id '" + line + "'");
      log_access(conn->id, corr, "spans", "error", depth, 0, nullptr);
      return;
    }
    std::vector<obs::TraceEvent> spans;
    {
      std::lock_guard<std::mutex> lock(trace_mutex);
      auto it = trace_store.find(trace_id);
      if (it != trace_store.end()) {
        spans = std::move(it->second);
        trace_store.erase(it);
        trace_order.erase(
            std::find(trace_order.begin(), trace_order.end(), trace_id));
      }
    }
    add_done_slot(conn, "ok spans " + std::to_string(spans.size()) + "\n" +
                            obs::remote_spans_jsonl(spans));
    log_access(conn->id, corr, "spans", "ok", depth, 0, nullptr);
  }

  /// `journal`: the flight-recorder ring as socet-journal-v1 text, the
  /// newest lines that fit well under kMaxFrameBytes.
  void dispatch_journal(const std::shared_ptr<Conn>& conn,
                        const std::string& corr, std::uint64_t depth) {
    constexpr std::size_t kBodyBudget = 900 * 1024;
    const auto lines = obs::journal_flight_lines(kBodyBudget);
    if (!lines) {
      add_done_slot(conn,
                    "error journal ring disabled "
                    "(start serve with --flight-recorder N)");
      log_access(conn->id, corr, "journal", "error", depth, 0, nullptr);
      return;
    }
    std::string body =
        "ok journal\n{\"schema\":\"socet-journal-v1\",\"events\":" +
        std::to_string(lines->size()) + ",\"kind\":\"ring\"}";
    for (const auto& entry : *lines) {
      body += '\n';
      body += entry;
    }
    add_done_slot(conn, std::move(body));
    log_access(conn->id, corr, "journal", "ok", depth, 0, nullptr);
  }

  void flush_ready(const std::shared_ptr<Conn>& conn) {
    while (!conn->slots.empty() && conn->slots.front().done) {
      conn->out += encode_frame(conn->slots.front().body);
      conn->slots.pop_front();
    }
  }

  void try_write(const std::shared_ptr<Conn>& conn) {
    while (conn->out_off < conn->out.size()) {
      const ssize_t w = ::write(conn->fd, conn->out.data() + conn->out_off,
                                conn->out.size() - conn->out_off);
      if (w > 0) {
        conn->out_off += static_cast<std::size_t>(w);
      } else if (errno == EINTR) {
        continue;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      } else {
        close_conn(conn);  // EPIPE etc: client stopped reading for good
        return;
      }
    }
    if (conn->out_off == conn->out.size()) {
      conn->out.clear();
      conn->out_off = 0;
    } else if (conn->out_off > 65536) {
      conn->out.erase(0, conn->out_off);
      conn->out_off = 0;
    }
  }

  void maybe_close(const std::shared_ptr<Conn>& conn) {
    const bool flushed = conn->out_off >= conn->out.size();
    const bool idle = conn->slots.empty() && flushed;
    if (!idle) return;
    if (conn->fatal || conn->peer_eof ||
        draining.load(std::memory_order_relaxed)) {
      close_conn(conn);
    }
  }

  void close_conn(const std::shared_ptr<Conn>& conn) {
    if (conn->dead) return;
    conn->dead = true;
    ::close(conn->fd);
    conns.erase(conn->fd);
    open_conns.fetch_sub(1, std::memory_order_relaxed);
    SOCET_EVENT("serve/conn", {"conn", conn->id}, {"event", "close"});
  }

  /// The Prometheus exposition: the registry plus build identity and
  /// start time, the standard idiom for "which binary is this and how
  /// long has it been up".  Live server state is the `stats` verb's.
  [[nodiscard]] std::string exposition() const {
    std::string out = obs::prometheus_text();
    out += "# TYPE socet_build_info gauge\n";
    out += std::string("socet_build_info{version=\"") + obs::build_version() +
           "\",git=\"" + obs::build_git() + "\"} 1\n";
    out += "# TYPE socet_start_time_seconds gauge\n";
    out += "socet_start_time_seconds " + std::to_string(start_unix_seconds) +
           "\n";
    return out;
  }

  [[nodiscard]] ServerStats snapshot() const {
    ServerStats stats;
    stats.connections_accepted = accepted.load(std::memory_order_relaxed);
    stats.connections_open = open_conns.load(std::memory_order_relaxed);
    stats.requests = requests.load(std::memory_order_relaxed);
    stats.responses = responses.load(std::memory_order_relaxed);
    stats.errors = errors.load(std::memory_order_relaxed);
    stats.busy_rejects = busy_rejects.load(std::memory_order_relaxed);
    stats.bad_frames = bad_frames.load(std::memory_order_relaxed);
    stats.queue_depth = queue_depth.load(std::memory_order_relaxed);
    stats.queue_depth_hwm = queue_hwm.load(std::memory_order_relaxed);
    stats.inflight = inflight.load(std::memory_order_relaxed);
    stats.workers = options.threads;
    stats.draining = draining.load(std::memory_order_relaxed);
    stats.cache = cache.stats();
    stats.cache_entries = cache.size();
    stats.cache_bytes = cache.bytes();
    return stats;
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() {
  if (impl_->started && !impl_->joined) {
    request_drain();
    wait();
  }
  if (impl_->listen_fd >= 0) ::close(impl_->listen_fd);
  if (impl_->wake_r >= 0) ::close(impl_->wake_r);
  if (impl_->wake_w >= 0) ::close(impl_->wake_w);
}

void Server::start() {
  util::require(!impl_->started, "server already started");
  util::require(impl_->options.threads >= 1,
                "serve needs at least one worker thread");
  util::require(impl_->options.client_window >= 1,
                "--window must be at least 1");
  util::require(impl_->options.max_queue >= 1,
                "--max-queue must be at least 1");
  impl_->listen_fd = net_listen(impl_->options.host, impl_->options.port);
  impl_->bound_port = local_port(impl_->listen_fd);
  int pipe_fds[2];
  util::require(::pipe(pipe_fds) == 0, "cannot create the wake pipe");
  impl_->wake_r = pipe_fds[0];
  impl_->wake_w = pipe_fds[1];
  set_nonblocking(impl_->wake_r);
  set_nonblocking(impl_->wake_w);
  if (!impl_->options.port_file.empty()) {
    std::ofstream file(impl_->options.port_file);
    file << impl_->bound_port << "\n";
    util::require(file.good(), "cannot write port file '" +
                                   impl_->options.port_file + "'");
  }
  // Telemetry plane: set up before any thread runs so the event loop
  // never races the access-log open.  The HTTP listener turns metrics
  // collection on — the registry renders to HTTP only, so wire
  // responses and stdout are untouched.
  if (impl_->options.metrics_http) obs::set_metrics_enabled(true);
  if (!impl_->options.access_log.empty()) {
    impl_->access_log.open(impl_->options.access_log, std::ios::app);
    util::require(impl_->access_log.is_open(),
                  "cannot open access log '" + impl_->options.access_log +
                      "'");
  }
  if (impl_->options.metrics_http) {
    HttpdOptions http_options;
    http_options.host = impl_->options.metrics_host;
    http_options.port = impl_->options.metrics_port;
    http_options.port_file = impl_->options.metrics_port_file;
    Impl* impl = impl_.get();
    impl_->httpd.start(
        http_options,
        [impl](const std::string& method,
               const std::string& path) -> HttpResponse {
          if (method != "GET") {
            return {405, "text/plain; charset=utf-8", "method not allowed\n"};
          }
          if (path == "/metrics") {
            return {200, "text/plain; version=0.0.4; charset=utf-8",
                    impl->exposition()};
          }
          if (path == "/healthz") {
            return {200, "text/plain; charset=utf-8", "ok\n"};
          }
          if (path == "/readyz") {
            // Readiness flips during drain so a load balancer stops
            // routing to a daemon that will `busy` every job.
            return impl->draining.load(std::memory_order_relaxed)
                       ? HttpResponse{503, "text/plain; charset=utf-8",
                                      "draining\n"}
                       : HttpResponse{200, "text/plain; charset=utf-8",
                                      "ready\n"};
          }
          return {404, "text/plain; charset=utf-8", "not found\n"};
        });
  }
  impl_->workers.reserve(impl_->options.threads);
  for (unsigned t = 0; t < impl_->options.threads; ++t) {
    impl_->workers.emplace_back([this, t] { impl_->worker_main(t); });
  }
  impl_->loop_thread = std::thread([this] { impl_->loop_main(); });
  impl_->started = true;
}

unsigned short Server::port() const { return impl_->bound_port; }

unsigned short Server::metrics_port() const { return impl_->httpd.port(); }

void Server::request_drain() {
  impl_->drain_requested.store(true, std::memory_order_release);
  if (impl_->started) impl_->wake();
}

void Server::wait() {
  if (!impl_->started || impl_->joined) return;
  impl_->loop_thread.join();
  for (auto& worker : impl_->workers) worker.join();
  // The telemetry listener outlives the event loop on purpose: /readyz
  // answers 503 for the whole drain, and the last scrape still sees the
  // final counters.  Stop it only once the daemon is fully quiesced.
  impl_->httpd.stop();
  if (impl_->access_log.is_open()) impl_->access_log.close();
  impl_->joined = true;
}

ServerStats Server::stats() const { return impl_->snapshot(); }

void Server::install_signal_handlers() {
  util::require(impl_->started,
                "install_signal_handlers needs a started server");
  g_signal_drain_flag = &impl_->drain_requested;
  g_signal_wake_fd.store(impl_->wake_w, std::memory_order_relaxed);
  struct sigaction action = {};
  action.sa_handler = on_drain_signal;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

}  // namespace socet::service
