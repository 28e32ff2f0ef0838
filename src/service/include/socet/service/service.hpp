// The concurrent planning service.
//
// A PlanningService owns a fixed worker pool and a shared
// content-addressed plan cache (see cache.hpp).  A batch of jobs is
// enqueued on a work queue (queue.hpp); each worker pops jobs, resolves
// the named system from a thread-local instance table (system
// construction and planning share zero mutable state across threads),
// consults the cache, and writes its result into a pre-sized slot —
// so results always come back in input order and `--threads 8` output
// is byte-identical to `--threads 1`.
//
// Error isolation: a malformed job line or a job that throws
// (unknown system, selection out of range) produces an error *record*
// in its slot; the rest of the batch is unaffected.  The batch-level
// `errors` count is what the CLI turns into its exit code.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "socet/service/cache.hpp"
#include "socet/service/job.hpp"

namespace socet::service {

struct ServiceOptions {
  /// Worker threads.  1 = still through the pool machinery, just serial.
  unsigned threads = 1;
  /// LRU entries; 0 disables memoization.
  std::size_t cache_capacity = 4096;
  /// Approximate cache byte budget; 0 = unbounded (entry count still
  /// applies).  What keeps a long-running `socet serve` from growing
  /// without limit.
  std::size_t cache_bytes = 0;
};

/// One finished job.  `record` is the deterministic line the CLI prints
/// (no timing — timing lives in the counters so output stays
/// byte-stable across runs and thread counts).
struct JobResult {
  std::size_t index = 0;  ///< position in the submitted batch
  bool ok = false;
  std::string record;
  std::uint64_t key = 0;  ///< content hash (0 for parse failures)
  bool cache_hit = false;
  double queue_us = 0;  ///< enqueue -> worker pickup
  double wall_us = 0;   ///< worker pickup -> done
};

struct BatchReport {
  std::vector<JobResult> results;  ///< input order
  CacheStats cache;                ///< delta accrued by this batch
  unsigned errors = 0;
  double wall_ms = 0;  ///< whole batch, enqueue to join

  /// Service counters rendered with util::Table: jobs, errors, cache
  /// hits/misses, mean/p50/p95/max queue and wall time per job (the
  /// percentiles come from obs::Histogram), batch wall clock.
  [[nodiscard]] std::string summary_table() const;
  /// All result records, one per line — exactly what `socet batch`
  /// prints to stdout.
  [[nodiscard]] std::string records_text() const;
};

/// One worker's execution context: a private system table (each thread
/// materializes the systems its jobs name exactly once; no System is
/// ever shared across threads) over a shared PlanCache.  Both the batch
/// worker pool and the serve daemon's request workers run every job
/// through run_line — one execution path is what makes `socet client`
/// responses byte-identical to one-shot `socet batch` records.
class Executor {
 public:
  explicit Executor(PlanCache& cache);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Parse and execute one job line.  The returned JobResult's `record`
  /// is the label-free record *body* — `ok <verb> <payload>` or
  /// `error <message>` — callers prepend their own framing
  /// ("job <n> ").  `ordinal` tags the journal events (batch: 1-based
  /// batch index; serve: global request number).  queue_us/wall_us are
  /// left zero; timing belongs to the caller.
  JobResult run_line(const std::string& line, std::uint64_t ordinal);

 private:
  struct Systems;  // thread-local system table (service.cpp)
  PlanCache& cache_;
  std::unique_ptr<Systems> systems_;
};

class PlanningService {
 public:
  explicit PlanningService(ServiceOptions options = {});

  /// Execute a batch on the worker pool; results land in input order.
  BatchReport run(const std::vector<Job>& jobs);

  /// Line front-end: `#` comments and blank lines are skipped (they
  /// produce no result slot); a malformed job line yields an error
  /// record for its position instead of aborting the batch.
  BatchReport run_lines(const std::vector<std::string>& lines);

  [[nodiscard]] const PlanCache& cache() const { return cache_; }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }

 private:
  ServiceOptions options_;
  PlanCache cache_;
};

/// The content-addressed cache key of `job`: FNV-1a over the canonical
/// job line chained with the plan-option fingerprint
/// (soc::plan_options_key).  Exposed for tests.
std::uint64_t job_key(const Job& job);

}  // namespace socet::service
