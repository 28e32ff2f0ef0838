#include "socet/obs/sampler.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <vector>

#include "socet/util/table.hpp"

#if defined(__linux__)
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>
#endif

namespace socet::obs {

#if defined(__linux__)

namespace {

/// Sampling period in CPU microseconds (ITIMER_PROF).  A prime-ish
/// period avoids lockstep with millisecond-periodic workloads.
constexpr unsigned kIntervalUs = 1009;
/// Preallocated sample capacity; samples past it are counted as dropped
/// rather than blocking or allocating in the handler.
constexpr std::size_t kMaxSamples = 1 << 16;
constexpr int kMaxFrames = 48;
// backtrace() called inside the handler sees: the handler itself, the
// libc signal trampoline (__restore_rt), then the interrupted thread's
// real frames.  Frame 0 varies (sometimes backtrace's own helper), so
// symbolization re-trims anything that still lands in this file.
constexpr int kSkipFrames = 2;

struct RawSample {
  void* frames[kMaxFrames];
  int depth;
  std::uint32_t tid;
};

// All handler-visible state is plain atomics over preallocated storage:
// the SIGPROF handler claims a slot with one fetch_add and writes into
// memory no one else touches until the sampler is stopped.
std::vector<RawSample> g_samples;
std::atomic<std::size_t> g_next{0};
std::atomic<std::size_t> g_dropped{0};
std::atomic<bool> g_running{false};

struct sigaction g_previous_action;

void sigprof_handler(int, siginfo_t*, void*) {
  if (!g_running.load(std::memory_order_relaxed)) return;
  const std::size_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot >= g_samples.size()) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  RawSample& sample = g_samples[slot];
  sample.depth = ::backtrace(sample.frames, kMaxFrames);
  sample.tid =
      static_cast<std::uint32_t>(::syscall(SYS_gettid));
}

std::size_t captured() {
  return std::min(g_next.load(std::memory_order_relaxed), g_samples.size());
}

/// Best-effort name for one return address: demangled symbol, else
/// `module+0xoff`, else the raw address.
std::string symbolize(void* addr) {
  Dl_info info{};
  if (::dladdr(addr, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      std::string name(demangled);
      std::free(demangled);
      // Fold templated/overloaded detail out of the label: keep
      // everything up to the argument list.
      const std::size_t paren = name.find('(');
      if (paren != std::string::npos) name.resize(paren);
      return name;
    }
    return info.dli_sname;
  }
  if (::dladdr(addr, &info) != 0 && info.dli_fname != nullptr) {
    const char* base = info.dli_fname;
    for (const char* p = base; *p != '\0'; ++p) {
      if (*p == '/') base = p + 1;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "+0x%zx",
                  reinterpret_cast<std::size_t>(addr) -
                      reinterpret_cast<std::size_t>(info.dli_fbase));
    return std::string(base) + buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%zx",
                reinterpret_cast<std::size_t>(addr));
  return buf;
}

/// Symbolize every captured sample into outermost-first frame lists,
/// caching per-address so hot stacks resolve once.
std::vector<std::vector<std::string>> symbolized_stacks() {
  std::map<void*, std::string> cache;
  const auto name_of = [&cache](void* addr) -> const std::string& {
    auto it = cache.find(addr);
    if (it == cache.end()) it = cache.emplace(addr, symbolize(addr)).first;
    return it->second;
  };

  std::vector<std::vector<std::string>> stacks;
  const std::size_t n = captured();
  stacks.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    const RawSample& sample = g_samples[s];
    std::vector<std::string> frames;
    // Walk innermost -> outermost, skipping the handler prologue, then
    // reverse so folded output reads root-first.
    for (int f = kSkipFrames; f < sample.depth; ++f) {
      std::string name = name_of(sample.frames[f]);
      // Residual handler/trampoline frames (signal delivery details
      // differ across libc builds) add noise, not information.
      if (name.find("sigprof_handler") != std::string::npos ||
          name.find("__restore_rt") != std::string::npos ||
          name == "backtrace") {
        continue;
      }
      frames.push_back(std::move(name));
    }
    if (frames.empty()) continue;
    std::reverse(frames.begin(), frames.end());
    stacks.push_back(std::move(frames));
  }
  return stacks;
}

}  // namespace

bool sampler_supported() { return true; }

bool Sampler::start() {
  if (g_running.load(std::memory_order_relaxed)) return false;
  g_samples.resize(kMaxSamples);

  // backtrace() may lazily dlopen libgcc on first use, which is not
  // async-signal-safe — take that hit here, outside the handler.
  void* warmup[4];
  ::backtrace(warmup, 4);

  struct sigaction action{};
  action.sa_sigaction = &sigprof_handler;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (::sigaction(SIGPROF, &action, &g_previous_action) != 0) return false;

  g_running.store(true, std::memory_order_relaxed);

  itimerval timer{};
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value = timer.it_interval;
  if (::setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    g_running.store(false, std::memory_order_relaxed);
    ::sigaction(SIGPROF, &g_previous_action, nullptr);
    return false;
  }
  return true;
}

void Sampler::stop() {
  if (!g_running.load(std::memory_order_relaxed)) return;
  itimerval disarm{};
  ::setitimer(ITIMER_PROF, &disarm, nullptr);
  g_running.store(false, std::memory_order_relaxed);
  ::sigaction(SIGPROF, &g_previous_action, nullptr);
}

bool Sampler::running() { return g_running.load(std::memory_order_relaxed); }

std::size_t Sampler::sample_count() { return captured(); }

std::size_t Sampler::dropped_count() {
  return g_dropped.load(std::memory_order_relaxed);
}

std::string Sampler::folded_stacks() {
  std::map<std::string, std::uint64_t> folded;
  for (const auto& frames : symbolized_stacks()) {
    std::string key;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      if (f != 0) key += ';';
      key += frames[f];
    }
    ++folded[key];
  }
  // Hottest stacks first (count desc, then name for determinism).
  std::vector<std::pair<std::string, std::uint64_t>> rows(folded.begin(),
                                                          folded.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::string out;
  for (const auto& [stack, count] : rows) {
    out += stack + " " + std::to_string(count) + "\n";
  }
  return out;
}

std::string Sampler::top_functions_table(std::size_t limit) {
  struct Tally {
    std::uint64_t self = 0;
    std::uint64_t inclusive = 0;
  };
  std::map<std::string, Tally> tallies;
  std::size_t total = 0;
  for (const auto& frames : symbolized_stacks()) {
    ++total;
    ++tallies[frames.back()].self;
    // Inclusive counts each function once per sample, however often it
    // recurses within the stack.
    std::vector<std::string> seen;
    for (const auto& frame : frames) {
      if (std::find(seen.begin(), seen.end(), frame) == seen.end()) {
        seen.push_back(frame);
        ++tallies[frame].inclusive;
      }
    }
  }
  std::vector<std::pair<std::string, Tally>> rows(tallies.begin(),
                                                  tallies.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.self != b.second.self) return a.second.self > b.second.self;
    return a.first < b.first;
  });
  if (rows.size() > limit) rows.resize(limit);

  util::Table table({"function", "self", "self %", "incl"});
  for (const auto& [name, tally] : rows) {
    table.add_row({name, std::to_string(tally.self),
                   total == 0
                       ? "0"
                       : util::Table::num(100.0 *
                                              static_cast<double>(tally.self) /
                                              static_cast<double>(total),
                                          1),
                   std::to_string(tally.inclusive)});
  }
  std::string out = "profile: " + std::to_string(total) + " samples";
  const std::size_t dropped = dropped_count();
  if (dropped != 0) out += " (" + std::to_string(dropped) + " dropped)";
  out += "\n" + table.to_text();
  return out;
}

void Sampler::reset() {
  if (g_running.load(std::memory_order_relaxed)) return;
  g_next.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
}

#else  // !__linux__

bool sampler_supported() { return false; }
bool Sampler::start() { return false; }
void Sampler::stop() {}
bool Sampler::running() { return false; }
std::size_t Sampler::sample_count() { return 0; }
std::size_t Sampler::dropped_count() { return 0; }
std::string Sampler::folded_stacks() { return {}; }
std::string Sampler::top_functions_table(std::size_t) { return {}; }
void Sampler::reset() {}

#endif

}  // namespace socet::obs
