// Sampling CPU profiler.
//
// A SIGPROF/ITIMER_PROF-driven wall-of-CPU-time profiler: the kernel
// delivers SIGPROF to whichever thread is burning CPU, the handler
// captures that thread's stack with `backtrace` into a preallocated
// lock-free sample buffer, and symbolization (`dladdr` + demangling)
// happens once at stop time, never in the signal path.  Output is the
// folded-stacks format consumed by flamegraph tooling
// (`outer;inner;leaf 42` — one line per unique stack) plus an
// aggregated top-functions table for quick terminal triage.
//
// Like the metrics and trace collectors, the profiler is off by
// default: until `Sampler::start` runs, no signal handler is installed
// and no timer is armed, so an unprofiled run is bit-for-bit the same
// process it always was.  The CLI exposes it as `--profile FILE` on
// every command (folded stacks to FILE, top-functions to stderr;
// stdout is never touched).
#pragma once

#include <cstddef>
#include <string>

namespace socet::obs {

/// True when the platform supports profiling (Linux: SIGPROF +
/// backtrace + dladdr).  On unsupported platforms `start` returns
/// false and everything else is a no-op.
bool sampler_supported();

/// Process-wide sampler (SIGPROF has process granularity, so there is
/// exactly one).  All control calls must come from the same thread and
/// never from a signal handler.
class Sampler {
 public:
  /// Install the SIGPROF handler and arm ITIMER_PROF (one sample per
  /// 1009 us of CPU time, at most 65,536 kept).  Returns false if
  /// already running or unsupported.  Existing samples from a previous
  /// start/stop cycle are kept (accumulate) until `reset`.
  static bool start();
  /// Disarm the timer and restore the previous SIGPROF disposition.
  static void stop();
  static bool running();

  /// Captured (not dropped) samples so far.
  static std::size_t sample_count();
  /// Samples lost to a full buffer.
  static std::size_t dropped_count();

  /// Folded-stacks text: `frame;frame;leaf count\n` per unique stack,
  /// outermost frame first, sorted by count descending.  Call after
  /// `stop` (symbolization is not signal-safe and not cheap).
  static std::string folded_stacks();
  /// util::Table of the hottest functions: self samples (stack leaf)
  /// and inclusive samples (appears anywhere in the stack).
  static std::string top_functions_table(std::size_t limit = 20);

  /// Drop all captured samples (sampler must be stopped).
  static void reset();
};

}  // namespace socet::obs
