// The shared monotonic clock.
//
// Every timed quantity in the codebase — span timestamps, service
// queue/wall times, bench wall clocks — reads this one steady clock so
// numbers from different layers line up in the same trace.
#pragma once

#include <chrono>
#include <cstdint>

namespace socet::obs {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary (but fixed per process) epoch.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// RAII-free stopwatch: construct (or reset) to start, read at will.
class StopWatch {
 public:
  StopWatch() : start_(now_ns()) {}

  void reset() { start_ = now_ns(); }

  [[nodiscard]] std::uint64_t elapsed_ns() const { return now_ns() - start_; }
  [[nodiscard]] double elapsed_ms() const {
    return static_cast<double>(elapsed_ns()) / 1e6;
  }

 private:
  std::uint64_t start_;
};

}  // namespace socet::obs
