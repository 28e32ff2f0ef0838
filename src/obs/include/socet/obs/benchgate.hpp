// Bench-trajectory bookkeeping and the regression gate.
//
// Every bench binary emits one greppable `BENCH_<name>.json {...}`
// stderr line (bench/report.hpp).  This module is the consuming side,
// shared by `tools/socet_bench` and the tests: parse those lines,
// summarize repeated runs (min / median / IQR — median+IQR because
// wall-clock noise is one-sided), render per-bench trajectory files
// (`BENCH_<name>.json` at the repo root, one appended point per
// harness run), compare medians against `bench/baseline.json` with a
// noise-adjusted tolerance, and rank the stages behind a regression
// from two points' stage extras.  Schemas: docs/BENCHMARKS.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "socet/obs/traceanalyze.hpp"

namespace socet::obs::bench {

/// Numeric extras of a bench line or trajectory point, in line order
/// (BenchReport::metric fields, then `stage_<stage>_ms` self times).
using Extras = std::vector<std::pair<std::string, double>>;

/// One parsed `BENCH_<name>.json` stderr line.
struct BenchLine {
  std::string name;
  bool ok = false;
  bool skipped = false;          ///< gate auto-skip (e.g. too few CPUs)
  double wall_ms = 0;
  Extras extra;
};

/// Find and parse the first BENCH_ line in a stderr capture.  A `null`
/// or missing `wall_ms` (the emitter writes null for non-finite
/// values) is a hard parse error: a bench whose clock broke must not
/// become a trajectory point.
bool parse_bench_line(std::string_view stderr_text, BenchLine* out,
                      std::string* error = nullptr);

/// Order statistics over the repeats of one bench.
struct RepeatStats {
  std::size_t n = 0;
  double min = 0;
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  [[nodiscard]] double iqr() const { return q3 - q1; }
};

/// Min/median/quartiles of `samples` (linear interpolation between
/// order statistics; empty input yields all zeros).
RepeatStats summarize_repeats(std::vector<double> samples);

/// One bench aggregated over its repeats — the unit the trajectory
/// files and the gate consume.
struct RunRecord {
  std::string name;
  bool ok = false;
  bool skipped = false;
  RepeatStats wall_ms;
  std::int64_t max_rss_kb = 0;   ///< max over repeats (child rusage)
  double utime_ms = 0;           ///< median over repeats
  double stime_ms = 0;
  Extras extra;  ///< last repeat's
};

/// Append `record` as a new point in a `socet-bench-trajectory-v1`
/// document.  `existing_text` is the current file content ("" or
/// unparseable restarts the trajectory).  `label` tags the point
/// (e.g. a git SHA); empty is fine.
std::string trajectory_json(std::string_view existing_text,
                            const RunRecord& record,
                            const std::string& label);

/// Median wall time, and (when `extra` is given) the numeric extras, of
/// the newest comparable (non-skipped, ok) point in a
/// `socet-bench-trajectory-v1` document.  Returns false when the text
/// is empty/unparseable or no such point exists — the gate then shows
/// "-" in its delta-vs-previous column instead of a bogus zero.
bool trajectory_last_median(std::string_view text, double* median_ms,
                            Extras* extra = nullptr);

/// One point's `stage_<stage>_ms` extras as an aggregate (wall time and
/// per-stage self times) for `analyze::diff`: a gate regression is
/// attributed by diffing the previous point against this run's.
/// Extras without the stage prefix are ignored.
analyze::Aggregate stage_aggregate(double wall_ms, const Extras& extra);

/// `bench/baseline.json`: bench name -> reference median wall_ms.
struct Baseline {
  std::map<std::string, double> wall_ms;
};

bool parse_baseline(std::string_view text, Baseline* out,
                    std::string* error = nullptr);

/// `prior` with each ok, non-skipped record's median in place of (or
/// added as) its bench's entry.  Every other entry stays, the entry of a
/// skipped or failed bench included, so an update from a `--filter`ed
/// run cannot drop the benches it did not run.
Baseline merge_baseline(Baseline prior, const std::vector<RunRecord>& records);

/// Render a baseline document, one entry per bench in name order.
std::string baseline_json(const Baseline& baseline);

/// Gate verdict for one bench.
struct CheckOutcome {
  enum class Verdict {
    kPass,
    kRegression,       ///< median beyond the noise-adjusted limit
    kFailed,           ///< the bench itself reported ok=false
    kSkipped,          ///< bench skipped its gate; not comparable
    kNoBaseline,       ///< bench ran but baseline has no entry
  };
  std::string name;
  Verdict verdict = Verdict::kPass;
  double baseline_ms = 0;
  double measured_ms = 0;   ///< median
  double limit_ms = 0;      ///< baseline + margin + min(IQR, margin)
  // The limit's two ingredients, surfaced so gate output can say *how
  // much* slack each bench actually got (pct margin vs IQR noise).
  double margin_ms = 0;         ///< baseline * tolerance_pct / 100
  double iqr_allowance_ms = 0;  ///< min(IQR(measured), margin)
};

/// Compare measured medians against the baseline.  With
/// `margin = baseline * tolerance_pct / 100`, the limit is
/// `baseline + margin + min(IQR(measured), margin)` — the IQR term
/// absorbs run-to-run noise so a jittery-but-unchanged bench does not
/// trip the gate, while its cap keeps noise from ever hiding a real
/// 2x slowdown.
std::vector<CheckOutcome> check_against_baseline(
    const std::vector<RunRecord>& records, const Baseline& baseline,
    double tolerance_pct);

/// True when any outcome is kRegression or kFailed.
bool has_regression(const std::vector<CheckOutcome>& outcomes);

}  // namespace socet::obs::bench
