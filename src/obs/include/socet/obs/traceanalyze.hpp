// Offline trace analytics — the layer that *reads* what five PRs of
// instrumentation write.
//
// Input: a span trace, i.e. a Chrome trace-event document of `X`
// slices — a local `--trace` file (trace.cpp) or a merged client/daemon
// trace (tracemerge.cpp), both linked by hex `args.span`/`args.parent`
// ids.  Slices without ids (`socet_workload --trace`) nest by
// containment within their (pid, tid) lane.  `load_trace` normalizes
// them into one span forest; parse failures carry a location (line
// number or event index) so a truncated artifact names the break
// point.  `B`/`E` events and decision journals are rejected: "why this
// plan" is `socet explain`'s question, not a timing one.
//
// Three analyses on top (the `socet trace-analyze` CLI verb renders
// them; the run report, every bench line and socet_bench's regression
// attribution reuse the aggregation and the diff):
//
//  * critical path — per root span (one per job in a merged trace),
//    walk back from the root's end through whichever child gated each
//    instant, yielding a chain of segments that covers [start, end]
//    exactly once.  Every microsecond of the job's wall time is
//    attributed to exactly one span: self time where the span itself
//    was the frontier, descent where a child was.
//  * aggregation — fold any number of traces/jobs into per-span-name
//    and per-stage latency distributions using the same 64-bucket
//    power-of-two histogram + `bucket_quantile` rank walk the metrics
//    registry uses (metrics.hpp), plus an exact self-time split
//    (children's covered intervals are union-merged, so overlapping
//    children never double-subtract).  Optionally rendered as folded
//    stacks (`a;b;c <self_us>`), flamegraph-compatible.
//  * differential attribution — subtract two aggregates and rank
//    stages by their contribution to the total delta; ties break by
//    name so the ranking is stable run to run.
//
// Stage = the leading `<stage>/` segment of a span name
// (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "socet/obs/metrics.hpp"

namespace socet::obs::analyze {

/// One normalized span in the forest.
struct Node {
  std::string name;
  std::uint32_t pid = 1;
  std::uint32_t tid = 0;
  double start_us = 0;
  double end_us = 0;
  std::uint64_t id = 0;      ///< 0 when the format carries no span ids
  std::uint64_t parent = 0;  ///< as declared; 0 = root
  int parent_index = -1;     ///< resolved tree link (-1 = root)
  std::vector<int> children;

  [[nodiscard]] double dur_us() const { return end_us - start_us; }
};

/// One parsed trace artifact: the span forest plus provenance.
struct TraceData {
  std::vector<Node> spans;
  std::vector<int> roots;  ///< indices of parentless spans
};

/// Parse one span trace (Chrome trace JSON) into a span forest.
/// Returns false with a located message on malformed or truncated
/// input; an empty-but-valid trace succeeds with zero spans.
bool load_trace(std::string_view text, TraceData* out,
                std::string* error = nullptr);

/// The spans this process has recorded so far (trace.hpp), as the same
/// forest `load_trace` builds from the exported `--trace` file.  Same
/// export caveat as `collect_trace_events`: call it once instrumented
/// threads have stopped recording.
TraceData recorded_trace();

/// One segment of a critical path: `[from_us, to_us)` was gated by
/// `name` at nesting depth `depth` (0 = the root itself).
struct CriticalStep {
  std::string name;
  int depth = 0;
  double from_us = 0;
  double to_us = 0;

  [[nodiscard]] double self_us() const { return to_us - from_us; }
};

/// The critical path of one root span, chronological order.
struct CriticalPath {
  std::string root;
  double start_us = 0;
  double total_us = 0;
  std::vector<CriticalStep> steps;
};

/// Critical paths for every root in the forest, in start order.
std::vector<CriticalPath> critical_paths(const TraceData& trace);

/// Latency distribution of one span name (or one stage) across every
/// analyzed trace.  Quantiles come from the 64-bucket power-of-two
/// rank walk (`bucket_quantile`) over integer
/// microseconds, clamped to the exact extremes.
struct NameStats {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;  ///< total minus children's union-merged cover
  double min_us = 0;
  double max_us = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
};

/// Aggregation over any number of traces.
struct Aggregate {
  std::size_t traces = 0;
  std::size_t span_count = 0;
  double wall_us = 0;  ///< sum over traces of (max end - min start)
  std::vector<NameStats> by_name;   ///< sorted by total_us desc
  std::vector<NameStats> by_stage;  ///< folded by leading segment
  // Daemon runs: the queue-vs-compute split from the synthesized
  // serve/queue / serve/job / serve/respond spans (zero when absent).
  double queue_us = 0;
  double compute_us = 0;
  double respond_us = 0;
};

Aggregate aggregate(const std::vector<TraceData>& traces);

/// One stage's contribution to the delta between two aggregates.
/// Times are *self* microseconds: self partitions each trace's wall
/// time across stages exactly once, so a slowdown lands on the stage
/// that caused it, not on every enclosing ancestor too.
struct DiffEntry {
  std::string stage;
  double a_us = 0;
  double b_us = 0;
  double delta_us = 0;   ///< b - a
  double share_pct = 0;  ///< |delta| / sum(|delta|) * 100 (0 when flat)
};

/// Stages ranked by signed delta descending (largest slowdown first),
/// name-tiebroken for stability.  `guilty` names the top positive
/// contributor ("" when nothing got slower).
struct DiffResult {
  double a_total_us = 0;
  double b_total_us = 0;
  double delta_us = 0;
  std::string guilty;
  std::vector<DiffEntry> entries;
};

DiffResult diff(const Aggregate& a, const Aggregate& b);

// --- renderings -------------------------------------------------------

/// Human tables (util::Table) for the CLI: critical path of the
/// slowest root (up to `top` steps), the per-stage and per-name
/// distribution tables (up to `top` rows each), and the queue/compute
/// split when present.
std::string analysis_text(const std::vector<CriticalPath>& paths,
                          const Aggregate& aggregate, std::size_t top);

/// Diff attribution table + guilty-stage headline.
std::string diff_text(const DiffResult& result, std::size_t top);

/// `socet-trace-analysis-v1` JSON document.
std::string analysis_json(const std::vector<CriticalPath>& paths,
                          const Aggregate& aggregate);

/// `socet-trace-diff-v1` JSON document.
std::string diff_json(const DiffResult& result);

/// Folded stacks over the whole forest (`root;child;leaf <self_us>`
/// with integer microseconds, identical paths summed) — the same
/// format the SIGPROF sampler emits, so existing flamegraph tooling
/// applies unchanged.
std::string folded_stacks(const std::vector<TraceData>& traces);

}  // namespace socet::obs::analyze
