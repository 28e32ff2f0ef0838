#include "socet/obs/journal.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "socet/obs/report.hpp"
#include "socet/obs/timer.hpp"
#include "socet/util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <unistd.h>
#define SOCET_JOURNAL_HAS_SIGNALS 1
#else
#define SOCET_JOURNAL_HAS_SIGNALS 0
#endif

namespace socet::obs {

namespace {

constexpr std::size_t kMaxThreads = 256;    ///< crash-visible thread slots
constexpr std::size_t kMaxSpanDepth = 32;   ///< active-span stack per thread
constexpr std::size_t kCorrBytes = 48;      ///< correlation id storage
constexpr std::size_t kSlotText = 512;      ///< flight-recorder line storage
constexpr std::size_t kSlotWords = kSlotText / sizeof(std::uint64_t);
constexpr std::size_t kMaxLine = kSlotText - 1;  ///< longest whole line

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_memory{false};
std::atomic<bool> g_flight{false};
std::atomic<std::uint64_t> g_seq{0};
std::atomic<std::uint64_t> g_epoch_ns{0};

/// Per-thread journal state.  Lives in a fixed static pool (not on the
/// heap, not thread_local) so the fatal-signal handler can walk every
/// thread's active spans with nothing but atomic loads.  The owning
/// thread is the only writer of `spans`/`corr`/`lines`; `span_depth`
/// publishes the stack to the crash handler.
struct ThreadSlot {
  std::atomic<bool> in_use{false};
  std::uint32_t tid = 0;
  std::atomic<std::uint32_t> span_depth{0};
  const char* spans[kMaxSpanDepth] = {};  ///< static-storage span names
  char corr[kCorrBytes] = {};
  std::vector<std::pair<std::uint64_t, std::string>> lines;  ///< memory sink
};

ThreadSlot g_slots[kMaxThreads];

/// One pre-rendered line of the flight-recorder ring, guarded by a
/// seqlock: `state` is 0 while empty, odd while a writer holds the slot,
/// and 2*seq+2 once line `seq` is complete.  The text lives in atomic
/// words, so a reader that races a writer copies stale bytes rather than
/// racing on them, and then sees `state` move and discards the copy.
struct FlightSlot {
  std::atomic<std::uint64_t> state{0};
  std::atomic<std::uint64_t> size{0};  ///< full line size, may exceed kMaxLine
  std::atomic<std::uint64_t> words[kSlotWords];
};

/// The ring and its capacity behind one pointer, so a reader never pairs
/// one ring with another's capacity.  Never freed: the crash handler may
/// run at any point, including during static destruction, and may still
/// hold a ring that a later journal_start_flight replaced — so each ring
/// keeps the one it replaced reachable.
struct FlightRing {
  FlightRing(std::size_t n, const FlightRing* replaced)
      : capacity(n), slots(new FlightSlot[n]), previous(replaced) {}
  const std::size_t capacity;
  FlightSlot* const slots;
  const FlightRing* const previous;
};

std::atomic<FlightRing*> g_ring{nullptr};

/// Store line `seq` in its slot, or drop it when another writer holds
/// the slot or it already holds a newer line.  Never waits.
void flight_write(FlightRing& ring, std::uint64_t seq, const std::string& line) {
  FlightSlot& slot = ring.slots[seq % ring.capacity];
  std::uint64_t state = slot.state.load(std::memory_order_relaxed);
  if ((state & 1) != 0 || state > 2 * seq + 2 ||
      !slot.state.compare_exchange_strong(state, 2 * seq + 1,
                                          std::memory_order_relaxed)) {
    return;
  }
  // Orders the odd state before the text: a reader that copies any of
  // the new words then sees `state` moved.
  std::atomic_thread_fence(std::memory_order_release);
  const std::size_t n = std::min(line.size(), kMaxLine);
  for (std::size_t w = 0; w * sizeof(std::uint64_t) < n; ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, line.data() + w * sizeof(word),
                std::min(sizeof(word), n - w * sizeof(word)));
    slot.words[w].store(word, std::memory_order_relaxed);
  }
  slot.size.store(line.size(), std::memory_order_relaxed);
  slot.state.store(2 * seq + 2, std::memory_order_release);
}

/// Copy line `seq` into `text` (kSlotText bytes; the first
/// min(*size, kMaxLine) are the line) if its slot holds it complete.
/// Async-signal-safe.
bool flight_read(const FlightRing& ring, std::uint64_t seq, char* text,
                 std::size_t* size) {
  const FlightSlot& slot = ring.slots[seq % ring.capacity];
  const std::uint64_t state = slot.state.load(std::memory_order_acquire);
  if (state != 2 * seq + 2) return false;
  const std::uint64_t full = slot.size.load(std::memory_order_relaxed);
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(full, kMaxLine));
  for (std::size_t w = 0; w * sizeof(std::uint64_t) < n; ++w) {
    const std::uint64_t word = slot.words[w].load(std::memory_order_relaxed);
    std::memcpy(text + w * sizeof(word), &word, sizeof(word));
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.state.load(std::memory_order_relaxed) != state) return false;
  *size = static_cast<std::size_t>(full);
  return true;
}

/// The seq range [lo, head) the ring can still hold.
std::pair<std::uint64_t, std::uint64_t> flight_window(const FlightRing& ring) {
  const std::uint64_t head = g_seq.load(std::memory_order_acquire);
  return {head > ring.capacity ? head - ring.capacity : 0, head};
}

/// Merge point for memory-sink lines of exited threads, plus the tid
/// counter shared by both sinks.
struct JournalSink {
  std::mutex mutex;
  std::uint32_t next_tid = 1;
  std::vector<std::pair<std::uint64_t, std::string>> retired;

  static JournalSink& instance() {
    static JournalSink sink;
    return sink;
  }
};

/// Claims a pool slot on first use; retires buffered lines and frees
/// the slot when the thread exits.
struct SlotHolder {
  ThreadSlot* slot = nullptr;

  SlotHolder() {
    JournalSink& sink = JournalSink::instance();
    std::lock_guard<std::mutex> lock(sink.mutex);
    for (std::size_t i = 0; i < kMaxThreads; ++i) {
      if (!g_slots[i].in_use.load(std::memory_order_relaxed)) {
        slot = &g_slots[i];
        slot->tid = sink.next_tid++;
        slot->span_depth.store(0, std::memory_order_relaxed);
        slot->corr[0] = '\0';
        slot->in_use.store(true, std::memory_order_release);
        break;
      }
    }
    // Pool exhausted (> kMaxThreads concurrently journaling threads):
    // this thread records nothing rather than blocking or crashing.
  }

  ~SlotHolder() {
    if (slot == nullptr) return;
    JournalSink& sink = JournalSink::instance();
    std::lock_guard<std::mutex> lock(sink.mutex);
    sink.retired.insert(sink.retired.end(),
                        std::make_move_iterator(slot->lines.begin()),
                        std::make_move_iterator(slot->lines.end()));
    slot->lines.clear();
    slot->span_depth.store(0, std::memory_order_relaxed);
    slot->corr[0] = '\0';
    slot->in_use.store(false, std::memory_order_release);
  }
};

ThreadSlot* local_slot() {
  thread_local SlotHolder holder;
  return holder.slot;
}

// --- async-signal-safe output helpers (write(2) only) -----------------

#if SOCET_JOURNAL_HAS_SIGNALS

void safe_write(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n <= 0) return;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

void safe_write_str(int fd, const char* text) {
  safe_write(fd, text, std::strlen(text));
}

void safe_write_u64(int fd, std::uint64_t value) {
  char buf[24];
  char* p = buf + sizeof(buf);
  do {
    *--p = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value > 0);
  safe_write(fd, p, static_cast<std::size_t>(buf + sizeof(buf) - p));
}

/// Write `text` as the body of a JSON string: quotes, backslashes and
/// control bytes are replaced with '?'.  (Real escaping allocates;
/// the sanitized form is enough for span names and job ids.)
void safe_write_json_body(int fd, const char* text) {
  char buf[kSlotText];
  std::size_t n = 0;
  for (; text[n] != '\0' && n < sizeof(buf); ++n) {
    const char c = text[n];
    buf[n] = (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
                 ? '?'
                 : c;
  }
  safe_write(fd, buf, n);
}

#endif  // SOCET_JOURNAL_HAS_SIGNALS

#if SOCET_JOURNAL_HAS_SIGNALS

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};

std::atomic<bool> g_handler_installed{false};
std::atomic<int> g_crash_entered{0};

void crash_handler(int sig) {
  // First thread in dumps; any concurrent crasher goes straight to the
  // default disposition.
  if (g_crash_entered.exchange(1) == 0) {
    safe_write_str(STDERR_FILENO,
                   "\n=== socet flight recorder (fatal signal ");
    safe_write_u64(STDERR_FILENO, static_cast<std::uint64_t>(sig));
    safe_write_str(STDERR_FILENO, ") ===\n");
    journal_dump_flight(STDERR_FILENO);
    safe_write_str(STDERR_FILENO, "=== end flight recorder ===\n");
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void arm_crash_handler_once() {
  if (g_handler_installed.exchange(true)) return;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = crash_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  for (int sig : kFatalSignals) sigaction(sig, &action, nullptr);
}

#else

void arm_crash_handler_once() {}

#endif  // SOCET_JOURNAL_HAS_SIGNALS

}  // namespace

bool journal_enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t journal_event_count() {
  return g_seq.load(std::memory_order_relaxed);
}

void journal_start_memory() {
  std::uint64_t expected = 0;
  g_epoch_ns.compare_exchange_strong(expected, now_ns(),
                                     std::memory_order_relaxed);
  g_memory.store(true, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_release);
}

void journal_start_flight(std::size_t capacity) {
  std::uint64_t expected = 0;
  g_epoch_ns.compare_exchange_strong(expected, now_ns(),
                                     std::memory_order_relaxed);
  util::require(
      capacity >= kMinFlightCapacity && capacity <= kMaxFlightCapacity,
      "journal_start_flight: capacity " + std::to_string(capacity) +
          " outside " + std::to_string(kMinFlightCapacity) + ".." +
          std::to_string(kMaxFlightCapacity));
  const FlightRing* ring = g_ring.load(std::memory_order_acquire);
  if (ring == nullptr || ring->capacity != capacity) {
    g_ring.store(new FlightRing(capacity, ring), std::memory_order_release);
  }
  arm_crash_handler_once();
  g_flight.store(true, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_release);
}

void journal_stop() {
  g_enabled.store(false, std::memory_order_release);
}

void journal_reset() {
  g_enabled.store(false, std::memory_order_release);
  g_memory.store(false, std::memory_order_relaxed);
  g_flight.store(false, std::memory_order_relaxed);
  JournalSink& sink = JournalSink::instance();
  std::lock_guard<std::mutex> lock(sink.mutex);
  sink.retired.clear();
  for (ThreadSlot& slot : g_slots) {
    if (slot.in_use.load(std::memory_order_acquire)) slot.lines.clear();
  }
  if (FlightRing* ring = g_ring.load(std::memory_order_acquire)) {
    for (std::size_t i = 0; i < ring->capacity; ++i) {
      ring->slots[i].state.store(0, std::memory_order_relaxed);
    }
  }
  g_seq.store(0, std::memory_order_relaxed);
  g_epoch_ns.store(0, std::memory_order_relaxed);
}

// --- field rendering --------------------------------------------------

JournalField::JournalField(const char* key, const char* value)
    : key_(key), json_('"' + json_escape(value) + '"') {}
JournalField::JournalField(const char* key, const std::string& value)
    : key_(key), json_('"' + json_escape(value) + '"') {}
JournalField::JournalField(const char* key, bool value)
    : key_(key), json_(value ? "true" : "false") {}
JournalField::JournalField(const char* key, double value)
    : key_(key), json_(json_number(value)) {}
JournalField::JournalField(const char* key, int value)
    : key_(key), json_(std::to_string(value)) {}
JournalField::JournalField(const char* key, long value)
    : key_(key), json_(std::to_string(value)) {}
JournalField::JournalField(const char* key, long long value)
    : key_(key), json_(std::to_string(value)) {}
JournalField::JournalField(const char* key, unsigned value)
    : key_(key), json_(std::to_string(value)) {}
JournalField::JournalField(const char* key, unsigned long value)
    : key_(key), json_(std::to_string(value)) {}
JournalField::JournalField(const char* key, unsigned long long value)
    : key_(key), json_(std::to_string(value)) {}

void journal_event(const char* type,
                   std::initializer_list<JournalField> fields) {
  if (!journal_enabled()) return;
  ThreadSlot* slot = local_slot();
  if (slot == nullptr) return;

  const std::uint64_t seq = g_seq.fetch_add(1, std::memory_order_relaxed);
  const double ts_us =
      static_cast<double>(now_ns() -
                          g_epoch_ns.load(std::memory_order_relaxed)) /
      1e3;

  std::string line;
  line.reserve(192);
  line += "{\"seq\":";
  line += std::to_string(seq);
  line += ",\"ts_us\":";
  line += json_number(ts_us);
  line += ",\"tid\":";
  line += std::to_string(slot->tid);
  if (slot->corr[0] != '\0') {
    line += ",\"corr\":\"";
    line += json_escape(slot->corr);
    line += '"';
  }
  const std::uint32_t depth =
      slot->span_depth.load(std::memory_order_relaxed);
  if (depth > 0 && depth <= kMaxSpanDepth) {
    line += ",\"span\":\"";
    line += json_escape(slot->spans[depth - 1]);
    line += '"';
  }
  line += ",\"type\":\"";
  line += json_escape(type);
  line += '"';
  for (const JournalField& field : fields) {
    line += ",\"";
    line += json_escape(field.key());
    line += "\":";
    line += field.json();
  }
  line += '}';

  if (g_memory.load(std::memory_order_relaxed)) {
    slot->lines.emplace_back(seq, line);
  }
  if (g_flight.load(std::memory_order_relaxed)) {
    if (FlightRing* ring = g_ring.load(std::memory_order_acquire)) {
      flight_write(*ring, seq, line);
    }
  }
}

std::string journal_jsonl() {
  JournalSink& sink = JournalSink::instance();
  std::vector<std::pair<std::uint64_t, std::string>> lines;
  {
    std::lock_guard<std::mutex> lock(sink.mutex);
    lines = sink.retired;
    for (const ThreadSlot& slot : g_slots) {
      if (!slot.in_use.load(std::memory_order_acquire)) continue;
      lines.insert(lines.end(), slot.lines.begin(), slot.lines.end());
    }
  }
  std::sort(lines.begin(), lines.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out = "{\"schema\":\"socet-journal-v1\",\"events\":" +
                    std::to_string(lines.size()) + "}\n";
  for (const auto& [seq, line] : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

void journal_dump_flight(int fd) {
#if SOCET_JOURNAL_HAS_SIGNALS
  safe_write_str(fd, "{\"schema\":\"socet-journal-v1\",\"kind\":\"flight\"}\n");
  if (const FlightRing* ring = g_ring.load(std::memory_order_acquire)) {
    char text[kSlotText];
    const auto [lo, head] = flight_window(*ring);
    for (std::uint64_t seq = lo; seq < head; ++seq) {
      std::size_t size = 0;
      if (!flight_read(*ring, seq, text, &size)) continue;
      safe_write(fd, text, std::min(size, kMaxLine));
      safe_write(fd, "\n", 1);
    }
  }
  // Active span stacks: what every journaling thread was doing.
  for (ThreadSlot& slot : g_slots) {
    if (!slot.in_use.load(std::memory_order_acquire)) continue;
    std::uint32_t depth = slot.span_depth.load(std::memory_order_acquire);
    if (depth > kMaxSpanDepth) depth = kMaxSpanDepth;
    safe_write_str(fd, "{\"type\":\"crash/active_spans\",\"tid\":");
    safe_write_u64(fd, slot.tid);
    if (slot.corr[0] != '\0') {
      safe_write_str(fd, ",\"corr\":\"");
      safe_write_json_body(fd, slot.corr);
      safe_write_str(fd, "\"");
    }
    safe_write_str(fd, ",\"spans\":[");
    for (std::uint32_t i = 0; i < depth; ++i) {
      if (i > 0) safe_write_str(fd, ",");
      safe_write_str(fd, "\"");
      safe_write_json_body(fd, slot.spans[i]);
      safe_write_str(fd, "\"");
    }
    safe_write_str(fd, "]}\n");
  }
#else
  (void)fd;
#endif
}

std::optional<std::vector<std::string>> journal_flight_lines(
    std::size_t max_bytes) {
  const FlightRing* ring = g_ring.load(std::memory_order_acquire);
  if (!g_flight.load(std::memory_order_relaxed) || ring == nullptr) {
    return std::nullopt;
  }
  std::vector<std::string> lines;
  std::size_t used = 0;
  char text[kSlotText];
  const auto [lo, head] = flight_window(*ring);
  for (std::uint64_t seq = head; seq-- > lo;) {
    std::size_t size = 0;
    if (!flight_read(*ring, seq, text, &size) || size > kMaxLine) continue;
    if (used + size + 1 > max_bytes) break;
    used += size + 1;
    lines.emplace_back(text, size);
  }
  std::reverse(lines.begin(), lines.end());
  return lines;
}

JournalScope::JournalScope(const std::string& id) {
  if (!journal_enabled()) return;
  ThreadSlot* slot = local_slot();
  if (slot == nullptr) return;
  active_ = true;
  previous_ = slot->corr;
  const std::size_t n = std::min(id.size(), kCorrBytes - 1);
  std::memcpy(slot->corr, id.data(), n);
  slot->corr[n] = '\0';
}

JournalScope::~JournalScope() {
  if (!active_) return;
  ThreadSlot* slot = local_slot();
  if (slot == nullptr) return;
  const std::size_t n = std::min(previous_.size(), kCorrBytes - 1);
  std::memcpy(slot->corr, previous_.data(), n);
  slot->corr[n] = '\0';
}

namespace detail {

void journal_push_span(const char* name) {
  ThreadSlot* slot = local_slot();
  if (slot == nullptr) return;
  const std::uint32_t depth =
      slot->span_depth.load(std::memory_order_relaxed);
  if (depth < kMaxSpanDepth) slot->spans[depth] = name;
  slot->span_depth.store(depth + 1, std::memory_order_release);
}

void journal_pop_span() {
  ThreadSlot* slot = local_slot();
  if (slot == nullptr) return;
  const std::uint32_t depth =
      slot->span_depth.load(std::memory_order_relaxed);
  if (depth > 0) slot->span_depth.store(depth - 1, std::memory_order_release);
}

}  // namespace detail

}  // namespace socet::obs
