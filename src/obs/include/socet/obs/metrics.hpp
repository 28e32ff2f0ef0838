// Cross-layer metrics registry.
//
// A process-wide registry of named counters, gauges, and fixed-bucket
// histograms, all backed by atomics so hot paths on any thread can
// record without locking.  Collection is off by default: every mutation
// macro first reads one relaxed atomic flag, so an uninstrumented run
// pays a single predictable branch per site and nothing else — the
// planner's stdout (and the service's byte-identical-across-threads
// guarantee) is never affected because metrics only ever render to
// stderr or side files.
//
// Hot-path usage (the static reference caches the registry lookup):
//
//   SOCET_COUNT("ccg/relaxations");
//   SOCET_COUNT_N("faultsim/faults_dropped", dropped);
//   SOCET_HISTOGRAM("service/wall_us", wall_us);
//   SOCET_GAUGE_MAX("service/queue_depth", depth);
//
// Naming convention: `<stage>/<quantity>`, lower_snake quantity, with
// the stage matching the span prefixes in trace.hpp (docs/OBSERVABILITY.md
// lists every name).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace socet::obs {

/// Global collection switch shared by every metric site.
bool metrics_enabled();
void set_metrics_enabled(bool enabled);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written / running-maximum value (e.g. queue depth).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Raise the gauge to `v` if `v` is larger (monotone high-water mark).
  void record_max(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram over non-negative integers with power-of-two
/// bucket bounds (1, 2, 4, … 2^62, +overflow).  Quantiles are estimated
/// by rank-walking the buckets with linear interpolation inside the
/// landing bucket, then clamped to the exact observed [min, max] — so an
/// empty histogram reports 0 and a single sample reports itself exactly.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;  ///< last bucket = overflow

  void record(std::uint64_t v);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t min() const;
  [[nodiscard]] std::uint64_t max() const;
  [[nodiscard]] double mean() const;
  /// q in [0, 1]; q=0.5 is the median.  0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::uint64_t bucket_count(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket `b` (2^b; overflow bucket = UINT64_MAX).
  static std::uint64_t bucket_bound(std::size_t b);

  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

/// Quantile estimate over a raw power-of-two bucket array laid out like
/// Histogram's (`buckets` must have Histogram::kBuckets entries).  The
/// rank walk interpolates linearly inside the landing bucket.
/// `observed_min`/`observed_max` are the exact sample extremes: the
/// first occupied bucket's floor and the final occupied bucket's ceiling
/// interpolate against them (a latency histogram whose top bucket spans
/// [2^19, 2^20] but whose slowest sample was 600k reports p99 inside
/// [2^19, 600k], not pegged at the bucket bound), and the estimate is
/// clamped to [min, max].
double bucket_quantile(const std::uint64_t* buckets, std::uint64_t count,
                       double q, std::uint64_t observed_min,
                       std::uint64_t observed_max);

/// Point-in-time copy of every registered metric, in registration-stable
/// (sorted by name) order.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Total number of named metrics in the snapshot.
  [[nodiscard]] std::size_t size() const {
    return counters.size() + gauges.size() + histograms.size();
  }
};

/// Process-wide name -> metric table.  Lookup takes a mutex; handles are
/// stable for the process lifetime, so call sites cache the reference in
/// a function-local static (the SOCET_* macros below do exactly that).
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// util::Table rendering of the snapshot (for `--metrics` on stderr).
  [[nodiscard]] std::string table_text() const;
  /// JSON object rendering (embedded in the run report).
  [[nodiscard]] std::string json() const;

  /// Zero every metric (tests; the registry itself never shrinks).
  void reset();


 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

inline Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return Registry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}

}  // namespace socet::obs

// Mutation macros: one relaxed load when collection is off; a cached
// registry reference plus one atomic RMW when on.
#define SOCET_COUNT(name) SOCET_COUNT_N(name, 1)
#define SOCET_COUNT_N(name, n)                                    \
  do {                                                            \
    if (::socet::obs::metrics_enabled()) {                        \
      static ::socet::obs::Counter& socet_obs_c =                 \
          ::socet::obs::counter(name);                            \
      socet_obs_c.add(static_cast<std::uint64_t>(n));             \
    }                                                             \
  } while (0)
#define SOCET_HISTOGRAM(name, v)                                  \
  do {                                                            \
    if (::socet::obs::metrics_enabled()) {                        \
      static ::socet::obs::Histogram& socet_obs_h =               \
          ::socet::obs::histogram(name);                          \
      socet_obs_h.record(static_cast<std::uint64_t>(v));          \
    }                                                             \
  } while (0)
#define SOCET_GAUGE_SET(name, v)                                  \
  do {                                                            \
    if (::socet::obs::metrics_enabled()) {                        \
      static ::socet::obs::Gauge& socet_obs_g =                   \
          ::socet::obs::gauge(name);                              \
      socet_obs_g.set(static_cast<std::int64_t>(v));              \
    }                                                             \
  } while (0)
#define SOCET_GAUGE_MAX(name, v)                                  \
  do {                                                            \
    if (::socet::obs::metrics_enabled()) {                        \
      static ::socet::obs::Gauge& socet_obs_g =                   \
          ::socet::obs::gauge(name);                              \
      socet_obs_g.record_max(static_cast<std::int64_t>(v));       \
    }                                                             \
  } while (0)
