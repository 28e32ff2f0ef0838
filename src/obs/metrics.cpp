#include "socet/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <mutex>

#include "socet/obs/report.hpp"
#include "socet/util/table.hpp"

namespace socet::obs {

namespace {

std::atomic<bool> g_metrics_enabled{false};

}  // namespace

bool metrics_enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

// ------------------------------------------------------------- histogram

void Histogram::record(std::uint64_t v) {
  // Bucket b holds values in (2^(b-1), 2^b]; 0 lands in bucket 0.
  const std::size_t b = std::min<std::size_t>(
      v <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(v - 1)),
      kBuckets - 1);
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::bucket_bound(std::size_t b) {
  if (b + 1 >= kBuckets) return ~0ull;
  return 1ull << b;
}

std::uint64_t Histogram::min() const {
  const std::uint64_t m = min_.load(std::memory_order_relaxed);
  return m == ~0ull ? 0 : m;
}

std::uint64_t Histogram::max() const {
  return max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  return static_cast<double>(sum()) / static_cast<double>(n);
}

double Histogram::quantile(double q) const {
  std::uint64_t buckets[kBuckets];
  for (std::size_t b = 0; b < kBuckets; ++b) {
    buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return bucket_quantile(buckets, count(), q, min(), max());
}

double bucket_quantile(const std::uint64_t* buckets, std::uint64_t count,
                       double q, std::uint64_t observed_min,
                       std::uint64_t observed_max) {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank in [1, count]; walk buckets until the cumulative count covers
  // it, then interpolate linearly inside the landing bucket.
  const double rank = q * static_cast<double>(count - 1) + 1.0;
  std::size_t first_occupied = Histogram::kBuckets;
  std::size_t last_occupied = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (first_occupied == Histogram::kBuckets) first_occupied = b;
    last_occupied = b;
  }
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    const std::uint64_t here = buckets[b];
    if (here == 0) continue;
    if (static_cast<double>(cumulative + here) >= rank) {
      double lo =
          b == 0 ? 0.0 : static_cast<double>(Histogram::bucket_bound(b - 1));
      double hi = static_cast<double>(Histogram::bucket_bound(b));
      // The exact extremes tighten the open-ended edges: the final
      // occupied bucket's ceiling is the observed max (not the bucket
      // bound, which pegs p99 at a power of two or worse — UINT64_MAX
      // for the overflow bucket), and the first occupied bucket's floor
      // is the observed min.
      if (b == last_occupied) hi = static_cast<double>(observed_max);
      if (b == first_occupied) {
        lo = std::min(static_cast<double>(observed_min), hi);
      }
      if (hi < lo) hi = lo;
      const double within =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(here);
      const double estimate = lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
      // Degenerate histograms (single sample, all-equal samples) report
      // exact values.
      return std::clamp(estimate, static_cast<double>(observed_min),
                        static_cast<double>(observed_max));
    }
    cumulative += here;
  }
  // count said more samples than the buckets hold (racy relaxed reads);
  // answer with the best upper bound we have.
  return static_cast<double>(observed_max);
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// -------------------------------------------------------------- registry

// std::map keeps iteration sorted by name and never invalidates the
// mapped objects, so handles returned once stay valid forever.
struct Registry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, Counter, std::less<>> counters;
  std::map<std::string, Gauge, std::less<>> gauges;
  std::map<std::string, Histogram, std::less<>> histograms;
};

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Registry::Impl& Registry::impl() const {
  static Impl impl;
  return impl;
}

Counter& Registry::counter(std::string_view name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto it = i.counters.find(name);
  if (it == i.counters.end()) {
    it = i.counters.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto it = i.gauges.find(name);
  if (it == i.gauges.end()) {
    it = i.gauges.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto it = i.histograms.find(name);
  if (it == i.histograms.end()) {
    it = i.histograms.try_emplace(std::string(name)).first;
  }
  return it->second;
}

MetricsSnapshot Registry::snapshot() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : i.counters) {
    snap.counters.push_back({name, counter.value()});
  }
  for (const auto& [name, gauge] : i.gauges) {
    snap.gauges.push_back({name, gauge.value()});
  }
  for (const auto& [name, histogram] : i.histograms) {
    MetricsSnapshot::HistogramValue h;
    h.name = name;
    h.count = histogram.count();
    h.sum = histogram.sum();
    h.min = histogram.min();
    h.max = histogram.max();
    h.mean = histogram.mean();
    h.p50 = histogram.quantile(0.50);
    h.p90 = histogram.quantile(0.90);
    h.p99 = histogram.quantile(0.99);
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

std::string Registry::table_text() const {
  const MetricsSnapshot snap = snapshot();
  util::Table table({"metric", "type", "value"});
  for (const auto& c : snap.counters) {
    table.add_row({c.name, "counter", std::to_string(c.value)});
  }
  for (const auto& g : snap.gauges) {
    table.add_row({g.name, "gauge", std::to_string(g.value)});
  }
  for (const auto& h : snap.histograms) {
    table.add_row({h.name, "histogram",
                   "n=" + std::to_string(h.count) +
                       " mean=" + util::Table::num(h.mean) +
                       " p50=" + util::Table::num(h.p50) +
                       " p90=" + util::Table::num(h.p90) +
                       " p99=" + util::Table::num(h.p99) +
                       " max=" + std::to_string(h.max)});
  }
  return table.to_text();
}

std::string Registry::json() const {
  const MetricsSnapshot snap = snapshot();
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i) out += ',';
    out += "\"" + json_escape(snap.counters[i].name) +
           "\":" + std::to_string(snap.counters[i].value);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i) out += ',';
    out += "\"" + json_escape(snap.gauges[i].name) +
           "\":" + std::to_string(snap.gauges[i].value);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    if (i) out += ',';
    out += "\"" + json_escape(h.name) + "\":{\"count\":" +
           std::to_string(h.count) + ",\"sum\":" + std::to_string(h.sum) +
           ",\"min\":" + std::to_string(h.min) +
           ",\"max\":" + std::to_string(h.max) +
           ",\"mean\":" + json_number(h.mean) +
           ",\"p50\":" + json_number(h.p50) +
           ",\"p90\":" + json_number(h.p90) +
           ",\"p99\":" + json_number(h.p99) + "}";
  }
  out += "}}";
  return out;
}

void Registry::reset() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  for (auto& [name, counter] : i.counters) counter.reset();
  for (auto& [name, gauge] : i.gauges) gauge.reset();
  for (auto& [name, histogram] : i.histograms) histogram.reset();
}

}  // namespace socet::obs
