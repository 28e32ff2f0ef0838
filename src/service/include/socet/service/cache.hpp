// Content-addressed plan cache.
//
// Results are keyed by the FNV-1a hash of the job's canonical line plus
// the plan-option fingerprint — identical requests hash identically, so
// a repeated `plan` inside a batch, across batches, or from any client
// of the `serve` daemon returns the memoized record instead of
// re-running the CCG scheduler.  Bounded LRU with a single mutex:
// lookups move the entry to the front, insertions evict from the back.
// Capacity 0 disables caching (every lookup is a recorded miss) — the
// throughput bench uses that to isolate worker-pool scaling from
// memoization.
//
// Two independent bounds govern eviction: an entry count (`capacity`)
// and an approximate byte budget (`max_bytes`, 0 = unbounded).  The
// byte bound is what keeps a long-running daemon (`socet serve`) from
// growing without limit on a payload-heavy workload; bytes are
// approximated as payload size plus a fixed per-entry overhead
// (kEntryOverheadBytes covers the LRU node, index slot, and key).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace socet::service {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// 64-bit FNV-1a.  `seed` chains hashes: fnv1a(b, fnv1a(a)) hashes the
/// concatenation a+b.
constexpr std::uint64_t fnv1a(std::string_view data,
                              std::uint64_t seed = kFnvOffsetBasis) {
  std::uint64_t hash = seed;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Approximate bytes released by evictions (same accounting as
  /// PlanCache::bytes); what a daemon operator watches to size
  /// --cache-bytes.
  std::uint64_t evicted_bytes = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// Thread-safe LRU cache from content hash to finished job result.
class PlanCache {
 public:
  struct Entry {
    /// The deterministic result payload (everything after "ok <verb> ").
    std::string payload;
  };

  /// Fixed accounting overhead per cached entry on top of the payload
  /// text: LRU list node, hash-map slot and key.
  static constexpr std::size_t kEntryOverheadBytes = 96;

  /// Approximate resident size of one entry.
  static std::size_t entry_bytes(const Entry& entry) {
    return entry.payload.size() + kEntryOverheadBytes;
  }

  /// `capacity` bounds entries (0 disables caching entirely);
  /// `max_bytes` additionally bounds approximate resident bytes
  /// (0 = no byte bound).
  explicit PlanCache(std::size_t capacity, std::size_t max_bytes = 0)
      : capacity_(capacity), max_bytes_(max_bytes) {}

  std::optional<Entry> lookup(std::uint64_t key);
  void insert(std::uint64_t key, Entry entry);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  /// Approximate resident bytes across all entries.
  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t max_bytes() const { return max_bytes_; }

 private:
  using LruList = std::list<std::pair<std::uint64_t, Entry>>;

  const std::size_t capacity_;
  const std::size_t max_bytes_;
  mutable std::mutex mutex_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, LruList::iterator> index_;
  CacheStats stats_;
  std::size_t bytes_ = 0;
};

}  // namespace socet::service
