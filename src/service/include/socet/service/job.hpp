// The planning-service job model.
//
// A Job is one planning request against a named system, covering the
// CLI's computational verbs: `plan`, `optimize`, `explore`, `parallel`,
// and `program`.  Jobs travel as single text lines (see docs/FORMATS.md
// §4) so batches can be files or pipes; `canonical_job_line` renders the
// normalized form that doubles as the content-addressed cache key — two
// jobs with the same canonical line are guaranteed to produce the same
// result record.
#pragma once

#include <string>
#include <vector>

namespace socet::service {

enum class Verb { kPlan, kOptimize, kExplore, kParallel, kProgram };

const char* verb_name(Verb verb);

struct Job {
  Verb verb = Verb::kPlan;
  std::string system = "barcode";
  /// Version index per core, 0-based, empty = minimum-area version
  /// everywhere.  May be shorter than the system's core list (the rest
  /// default to version 1); never longer — that is a parse-time error
  /// only the executor can raise, since the parser does not know the
  /// system.
  std::vector<unsigned> selection;
  bool pipelined = false;

  // -- optimize-only parameters ------------------------------------------
  enum class Objective { kNone, kAreaBudget, kTatBudget, kWeighted };
  Objective objective = Objective::kNone;
  unsigned area_budget = 0;
  unsigned long long tat_budget = 0;
  double w1 = 1.0;
  double w2 = 1.0;

  friend bool operator==(const Job&, const Job&) = default;
};

/// Strict 1-based selection spec parser shared by the CLI and the job
/// parser: "1,2,3" -> {0, 1, 2}.  Rejects empty tokens, trailing commas,
/// non-numeric tokens, and 0 (indices are 1-based) with util::Error.
std::vector<unsigned> parse_selection_spec(const std::string& spec);

/// Strict weight parser shared by the CLI and the job parser: the whole
/// token must be one finite decimal number; anything else (trailing
/// text, `inf`, `nan`, overflow) is a util::Error naming `what`.
double parse_weight(const std::string& token, const std::string& what);

/// Parse one job line, e.g.
///   plan system=barcode selection=1,2,3 pipelined
///   optimize system=system2 area-budget=100
/// Throws util::Error with a message naming the offending token *and*
/// its 1-based column on malformed input — job lines also arrive over
/// the serve protocol where there is no file/line context, so the
/// reject message is all the client gets.  `#` comments and blank
/// lines are the *caller's* concern (see PlanningService::run_lines).
Job parse_job_line(const std::string& line);

/// The normalized single-line rendering: verb first, then every
/// meaningful option in fixed order.  parse_job_line(canonical_job_line(j))
/// reproduces `j` exactly (fixpoint, tested).
std::string canonical_job_line(const Job& job);

}  // namespace socet::service
