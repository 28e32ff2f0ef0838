#include "socet/service/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "socet/obs/journal.hpp"
#include "socet/obs/report.hpp"
#include "socet/obs/trace.hpp"
#include "socet/service/protocol.hpp"
#include "socet/service/queue.hpp"
#include "socet/service/service.hpp"
#include "socet/util/error.hpp"

namespace socet::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-connection unsent-response byte budget; reads pause above it.
constexpr std::size_t kMaxBufferedBytes = 256 * 1024;

/// Longest first token the access log keeps whole (FORMATS.md §7).
constexpr std::size_t kMaxLoggedVerb = 32;

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

/// The request's first token, as dispatch matches it and the access log
/// records it.  One longer than kMaxLoggedVerb bytes (no verb is) keeps
/// its first kMaxLoggedVerb bytes plus `...(<n> bytes)`, so a request
/// adds at most a short line to the log.
std::string request_verb(const std::string& line) {
  const auto first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto end = line.find_first_of(" \t\r", first);
  const std::size_t length =
      (end == std::string::npos ? line.size() : end) - first;
  if (length <= kMaxLoggedVerb) return line.substr(first, length);
  return line.substr(first, kMaxLoggedVerb) + "...(" +
         std::to_string(length) + " bytes)";
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
    std::string verb;  ///< request_verb(line), for the access log
    std::uint64_t depth_at_admit = 0;
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
    bool ok = false;
    bool cache_hit = false;
    std::uint64_t depth_at_admit = 0;
    // obs::now_ns() at admission, worker pickup and worker finish: the
    // access log's wall_us and the serve/queue and serve/respond spans.
    std::uint64_t admit_ns = 0;
    std::uint64_t pickup_ns = 0;
    std::uint64_t finish_ns = 0;
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

  std::ofstream access_log;  ///< written only by the event-loop thread
  Clock::time_point start_time = Clock::now();

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
      Completion completion;
      completion.admit_ns = task->admit_ns;
      completion.pickup_ns = obs::now_ns();
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
      completion.finish_ns = obs::now_ns();
      responses.fetch_add(1, std::memory_order_relaxed);
      inflight.fetch_sub(1, std::memory_order_relaxed);
      completion.conn = std::move(task->conn);
      completion.slot_id = task->slot_id;
      completion.corr = std::move(task->corr);
      completion.verb = std::move(task->verb);
      completion.depth_at_admit = task->depth_at_admit;
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
                 static_cast<double>(completion.finish_ns -
                                     completion.pickup_ns) / 1e3,
                 completion.cache_hit ? "hit" : "miss");
      if (obs::trace_enabled()) {
        // The job's wait for a worker and its reply's wait for this
        // loop, as root spans on the loop's lane; `trace-analyze` sums
        // them with serve/job into the daemon split.
        obs::record_span("serve/queue", completion.admit_ns,
                         completion.pickup_ns);
        obs::record_span("serve/respond", completion.finish_ns,
                         obs::now_ns());
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
      dispatch(conn, frame->payload, frame->corr);
    }
    if (conn->reader.overflowed() && !conn->fatal) {
      bad_frames.fetch_add(1, std::memory_order_relaxed);
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
                const std::string& corr) {
    const std::string verb = request_verb(line);
    const std::uint64_t depth = queue_depth.load(std::memory_order_relaxed);
    if (verb == "stats") {
      add_done_slot(conn, "ok stats " + snapshot().text());
      log_access(conn->id, corr, verb, "ok", depth, 0, nullptr);
      return;
    }
    if (verb == "journal") {
      dispatch_journal(conn, corr, depth);
      return;
    }
    if (draining.load(std::memory_order_relaxed)) {
      busy_rejects.fetch_add(1, std::memory_order_relaxed);
      SOCET_EVENT("serve/busy", {"conn", conn->id}, {"why", "draining"});
      add_done_slot(conn, "busy draining");
      log_access(conn->id, corr, verb, "busy", depth, 0, nullptr);
      return;
    }
    if (depth >= options.max_queue) {
      busy_rejects.fetch_add(1, std::memory_order_relaxed);
      SOCET_EVENT("serve/busy", {"conn", conn->id}, {"why", "queue_full"},
                  {"queue", depth}, {"limit", options.max_queue});
      add_done_slot(conn, "busy queue=" + std::to_string(depth) +
                              " limit=" +
                              std::to_string(options.max_queue));
      log_access(conn->id, corr, verb, "busy", depth, 0, nullptr);
      return;
    }
    requests.fetch_add(1, std::memory_order_relaxed);
    queue_depth.fetch_add(1, std::memory_order_relaxed);
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
    task.admit_ns = obs::now_ns();
    queue.push(std::move(task));
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

  /// Frame every finished reply at the head of the FIFO.  This is the one
  /// place replies are framed, so it bounds them: a body over
  /// kMaxFrameBytes (an error that echoes a near-limit request) goes out
  /// as a short error naming its size instead of throwing on this thread.
  void flush_ready(const std::shared_ptr<Conn>& conn) {
    while (!conn->slots.empty() && conn->slots.front().done) {
      const std::string& body = conn->slots.front().body;
      if (body.size() <= kMaxFrameBytes) {
        conn->out += encode_frame(body);
      } else {
        conn->out += encode_frame(
            "error reply of " + std::to_string(body.size()) +
            " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
            "-byte frame limit");
      }
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
  // Open the access log before any thread runs, so the event loop never
  // races the open.
  if (!impl_->options.access_log.empty()) {
    impl_->access_log.open(impl_->options.access_log, std::ios::app);
    util::require(impl_->access_log.is_open(),
                  "cannot open access log '" + impl_->options.access_log +
                      "'");
  }
  impl_->workers.reserve(impl_->options.threads);
  for (unsigned t = 0; t < impl_->options.threads; ++t) {
    impl_->workers.emplace_back([this, t] { impl_->worker_main(t); });
  }
  impl_->loop_thread = std::thread([this] { impl_->loop_main(); });
  impl_->started = true;
}

unsigned short Server::port() const { return impl_->bound_port; }

void Server::request_drain() {
  impl_->drain_requested.store(true, std::memory_order_release);
  if (impl_->started) impl_->wake();
}

void Server::wait() {
  if (!impl_->started || impl_->joined) return;
  impl_->loop_thread.join();
  for (auto& worker : impl_->workers) worker.join();
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
