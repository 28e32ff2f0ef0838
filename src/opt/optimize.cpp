#include "socet/opt/optimize.hpp"

#include <algorithm>
#include <limits>

#include "socet/obs/journal.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/trace.hpp"

namespace socet::opt {

namespace {

using soc::ChipTestPlan;
using soc::Soc;

DesignPoint evaluate(const Soc& soc, std::vector<unsigned> selection,
                     const OptimizeOptions& options) {
  DesignPoint point;
  point.plan = soc::plan_chip_test(soc, selection, options.plan);
  point.selection = std::move(selection);
  point.tat = point.plan.total_tat;
  point.overhead_cells = point.plan.total_overhead_cells();
  return point;
}

/// "2/1/3" — the 1-based per-core version choice (CLI/CSV convention).
std::string selection_str(const std::vector<unsigned>& selection) {
  std::string s;
  for (unsigned v : selection) {
    s += (s.empty() ? "" : "/") + std::to_string(v + 1);
  }
  return s;
}

}  // namespace

long long latency_improvement(const Soc& soc, const ChipTestPlan& plan,
                              std::uint32_t core, unsigned current_version,
                              unsigned next_version) {
  const auto& cur = soc.core(core).version(current_version);
  const auto& next = soc.core(core).version(next_version);
  long long current_number = 0;
  long long next_number = 0;
  for (const auto& [key, count] : plan.edge_use) {
    const auto& [c, in, out] = key;
    if (c != core) continue;
    const auto cur_latency = cur.latency(in, out);
    const auto next_latency = next.latency(in, out);
    if (cur_latency) {
      current_number += static_cast<long long>(count) * *cur_latency;
    }
    // A pair the next version lacks keeps its current latency (the
    // upgrade never removes transparency, but be defensive).
    const unsigned effective_next =
        next_latency ? *next_latency : cur_latency.value_or(0);
    next_number += static_cast<long long>(count) * effective_next;
  }
  return current_number - next_number;
}

DesignPoint minimize_tat(const Soc& soc, unsigned area_budget_cells,
                         const OptimizeOptions& options) {
  SOCET_SPAN("opt/minimize_tat");
  std::vector<unsigned> selection(soc.cores().size(), 0);
  DesignPoint best = evaluate(soc, selection, options);

  while (true) {
    SOCET_COUNT("opt/iterations");
    // Candidate moves: upgrade one core to its next version.  The
    // heuristic pass ranks by the paper's edge-usage latency numbers; if
    // no candidate shows a heuristic gain (an upgrade whose benefit is a
    // *new* transparency pair rather than a faster existing one), fall
    // back to exact re-planning so the walk doesn't stall.
    long long best_gain = 0;
    std::int32_t best_core = -1;
    DesignPoint best_candidate;
    for (int exact_pass = options.heuristic_ranking ? 0 : 1;
         exact_pass < 2 && best_core < 0; ++exact_pass) {
      for (std::uint32_t c = 0; c < soc.cores().size(); ++c) {
        const unsigned next = best.selection[c] + 1;
        if (next >= soc.core(c).version_count()) continue;
        SOCET_COUNT("opt/moves_proposed");

        const char* pass_name = exact_pass == 0 ? "heuristic" : "exact";
        long long gain;
        DesignPoint candidate;
        if (exact_pass == 0) {
          gain =
              latency_improvement(soc, best.plan, c, best.selection[c], next);
        } else {
          auto trial = best.selection;
          trial[c] = next;
          candidate = evaluate(soc, std::move(trial), options);
          gain = static_cast<long long>(best.tat) -
                 static_cast<long long>(candidate.tat);
        }
        if (gain <= best_gain) {
          SOCET_EVENT("opt/propose", {"objective", "min_tat"},
                      {"pass", pass_name}, {"core", soc.core(c).name()},
                      {"from", soc.core(c).version(best.selection[c]).name},
                      {"to", soc.core(c).version(next).name},
                      {"to_index", next + 1}, {"gain", gain},
                      {"outcome", "rejected"}, {"reason", "gain_not_better"});
          continue;
        }

        // Respect the area budget.
        if (exact_pass == 0) {
          auto trial = best.selection;
          trial[c] = next;
          candidate = evaluate(soc, std::move(trial), options);
        }
        const long long delta_area =
            static_cast<long long>(candidate.overhead_cells) -
            static_cast<long long>(best.overhead_cells);
        if (candidate.overhead_cells > area_budget_cells) {
          SOCET_EVENT("opt/propose", {"objective", "min_tat"},
                      {"pass", pass_name}, {"core", soc.core(c).name()},
                      {"from", soc.core(c).version(best.selection[c]).name},
                      {"to", soc.core(c).version(next).name},
                      {"to_index", next + 1}, {"gain", gain},
                      {"delta_area", delta_area}, {"outcome", "rejected"},
                      {"reason", "over_area_budget"});
          continue;
        }
        SOCET_EVENT("opt/propose", {"objective", "min_tat"},
                    {"pass", pass_name}, {"core", soc.core(c).name()},
                    {"from", soc.core(c).version(best.selection[c]).name},
                    {"to", soc.core(c).version(next).name},
                    {"to_index", next + 1}, {"gain", gain},
                    {"delta_area", delta_area}, {"outcome", "best"});
        best_gain = gain;
        best_core = static_cast<std::int32_t>(c);
        best_candidate = std::move(candidate);
      }
    }
    if (best_core < 0) break;
    const std::uint32_t moved = static_cast<std::uint32_t>(best_core);
    // Only accept moves that actually help the exact objective.
    if (best_candidate.tat >= best.tat) {
      SOCET_EVENT(
          "opt/reject_final", {"objective", "min_tat"},
          {"core", soc.core(moved).name()},
          {"from", soc.core(moved).version(best.selection[moved]).name},
          {"to", soc.core(moved).version(best.selection[moved] + 1).name},
          {"to_index", best.selection[moved] + 2},
          {"reason", "no_exact_tat_gain"});
      break;
    }
    SOCET_COUNT("opt/moves_accepted");
    SOCET_HISTOGRAM("opt/accept_delta_tat", best.tat - best_candidate.tat);
    SOCET_HISTOGRAM("opt/accept_delta_area",
                    best_candidate.overhead_cells - best.overhead_cells);
    SOCET_EVENT(
        "opt/accept", {"objective", "min_tat"}, {"core", soc.core(moved).name()},
        {"from", soc.core(moved).version(best.selection[moved]).name},
        {"to", soc.core(moved).version(best.selection[moved] + 1).name},
        {"delta_tat", static_cast<long long>(best.tat) -
                          static_cast<long long>(best_candidate.tat)},
        {"delta_area", static_cast<long long>(best_candidate.overhead_cells) -
                           static_cast<long long>(best.overhead_cells)},
        {"tat", best_candidate.tat}, {"area", best_candidate.overhead_cells});
    best = std::move(best_candidate);
  }
  best.met_constraint = best.overhead_cells <= area_budget_cells;
  SOCET_EVENT("opt/result", {"objective", "min_tat"},
              {"selection", selection_str(best.selection)}, {"tat", best.tat},
              {"area", best.overhead_cells}, {"met", best.met_constraint});
  return best;
}

DesignPoint minimize_area(const Soc& soc, unsigned long long tat_budget,
                          const OptimizeOptions& options) {
  SOCET_SPAN("opt/minimize_area");
  std::vector<unsigned> selection(soc.cores().size(), 0);
  DesignPoint best = evaluate(soc, selection, options);

  while (best.tat > tat_budget) {
    SOCET_COUNT("opt/iterations");
    // Cheapest upgrade with a non-zero latency improvement (w1=0, w2=1).
    // As in minimize_tat, an exact pass rescues the walk when the
    // edge-usage heuristic sees no gain anywhere.
    long long best_cost = std::numeric_limits<long long>::max();
    DesignPoint best_candidate;
    std::uint32_t moved = 0;
    bool found = false;
    for (int exact_pass = options.heuristic_ranking ? 0 : 1;
         exact_pass < 2 && !found; ++exact_pass) {
      for (std::uint32_t c = 0; c < soc.cores().size(); ++c) {
        const unsigned next = best.selection[c] + 1;
        if (next >= soc.core(c).version_count()) continue;
        SOCET_COUNT("opt/moves_proposed");
        const char* pass_name = exact_pass == 0 ? "heuristic" : "exact";
        if (exact_pass == 0) {
          const long long gain = latency_improvement(
              soc, best.plan, c, best.selection[c], next);
          if (gain <= 0) {
            SOCET_EVENT("opt/propose", {"objective", "min_area"},
                        {"pass", pass_name}, {"core", soc.core(c).name()},
                        {"from", soc.core(c).version(best.selection[c]).name},
                        {"to", soc.core(c).version(next).name},
                        {"to_index", next + 1}, {"gain", gain},
                        {"outcome", "rejected"},
                        {"reason", "no_heuristic_gain"});
            continue;
          }
        }
        const long long delta_area =
            static_cast<long long>(soc.core(c).version(next).extra_cells) -
            static_cast<long long>(
                soc.core(c).version(best.selection[c]).extra_cells);
        if (delta_area >= best_cost) {
          SOCET_EVENT("opt/propose", {"objective", "min_area"},
                      {"pass", pass_name}, {"core", soc.core(c).name()},
                      {"from", soc.core(c).version(best.selection[c]).name},
                      {"to", soc.core(c).version(next).name},
                      {"to_index", next + 1}, {"delta_area", delta_area},
                      {"outcome", "rejected"},
                      {"reason", "costlier_than_best"});
          continue;
        }
        auto trial = best.selection;
        trial[c] = next;
        DesignPoint candidate = evaluate(soc, std::move(trial), options);
        if (candidate.tat >= best.tat) {  // no real progress
          SOCET_EVENT("opt/propose", {"objective", "min_area"},
                      {"pass", pass_name}, {"core", soc.core(c).name()},
                      {"from", soc.core(c).version(best.selection[c]).name},
                      {"to", soc.core(c).version(next).name},
                      {"to_index", next + 1}, {"delta_area", delta_area},
                      {"outcome", "rejected"}, {"reason", "no_tat_progress"});
          continue;
        }
        SOCET_EVENT("opt/propose", {"objective", "min_area"},
                    {"pass", pass_name}, {"core", soc.core(c).name()},
                    {"from", soc.core(c).version(best.selection[c]).name},
                    {"to", soc.core(c).version(next).name},
                    {"to_index", next + 1}, {"delta_area", delta_area},
                    {"outcome", "best"});
        best_cost = delta_area;
        best_candidate = std::move(candidate);
        moved = c;
        found = true;
      }
    }
    if (!found) break;
    SOCET_COUNT("opt/moves_accepted");
    SOCET_HISTOGRAM("opt/accept_delta_tat", best.tat - best_candidate.tat);
    SOCET_HISTOGRAM("opt/accept_delta_area",
                    best_candidate.overhead_cells - best.overhead_cells);
    SOCET_EVENT(
        "opt/accept", {"objective", "min_area"},
        {"core", soc.core(moved).name()},
        {"from", soc.core(moved).version(best.selection[moved]).name},
        {"to", soc.core(moved).version(best.selection[moved] + 1).name},
        {"delta_tat", static_cast<long long>(best.tat) -
                          static_cast<long long>(best_candidate.tat)},
        {"delta_area", static_cast<long long>(best_candidate.overhead_cells) -
                           static_cast<long long>(best.overhead_cells)},
        {"tat", best_candidate.tat}, {"area", best_candidate.overhead_cells});
    best = std::move(best_candidate);
  }
  best.met_constraint = best.tat <= tat_budget;
  SOCET_EVENT("opt/result", {"objective", "min_area"},
              {"selection", selection_str(best.selection)}, {"tat", best.tat},
              {"area", best.overhead_cells}, {"met", best.met_constraint});
  return best;
}

DesignPoint minimize_weighted(const Soc& soc, double w1, double w2,
                              const OptimizeOptions& options) {
  SOCET_SPAN("opt/minimize_weighted");
  util::require(w1 >= 0 && w2 >= 0 && (w1 > 0 || w2 > 0),
                "minimize_weighted: weights must be non-negative, not both 0");
  std::vector<unsigned> selection(soc.cores().size(), 0);
  DesignPoint best = evaluate(soc, selection, options);

  while (true) {
    SOCET_COUNT("opt/iterations");
    double best_gain = 0.0;
    DesignPoint best_candidate;
    std::uint32_t moved = 0;
    bool found = false;
    for (std::uint32_t c = 0; c < soc.cores().size(); ++c) {
      const unsigned next = best.selection[c] + 1;
      if (next >= soc.core(c).version_count()) continue;
      SOCET_COUNT("opt/moves_proposed");
      auto trial = best.selection;
      trial[c] = next;
      DesignPoint candidate = evaluate(soc, std::move(trial), options);
      const double gain =
          w1 * (static_cast<double>(best.tat) -
                static_cast<double>(candidate.tat)) -
          w2 * (static_cast<double>(candidate.overhead_cells) -
                static_cast<double>(best.overhead_cells));
      if (gain > best_gain) {
        SOCET_EVENT("opt/propose", {"objective", "weighted"},
                    {"pass", "exact"}, {"core", soc.core(c).name()},
                    {"from", soc.core(c).version(best.selection[c]).name},
                    {"to", soc.core(c).version(next).name},
                    {"to_index", next + 1}, {"gain", gain},
                    {"outcome", "best"});
        best_gain = gain;
        best_candidate = std::move(candidate);
        moved = c;
        found = true;
      } else {
        SOCET_EVENT("opt/propose", {"objective", "weighted"},
                    {"pass", "exact"}, {"core", soc.core(c).name()},
                    {"from", soc.core(c).version(best.selection[c]).name},
                    {"to", soc.core(c).version(next).name},
                    {"to_index", next + 1}, {"gain", gain},
                    {"outcome", "rejected"}, {"reason", "gain_not_better"});
      }
    }
    if (!found) break;
    SOCET_COUNT("opt/moves_accepted");
    if (best_candidate.tat <= best.tat) {
      SOCET_HISTOGRAM("opt/accept_delta_tat", best.tat - best_candidate.tat);
    }
    SOCET_HISTOGRAM("opt/accept_delta_area",
                    best_candidate.overhead_cells - best.overhead_cells);
    SOCET_EVENT(
        "opt/accept", {"objective", "weighted"},
        {"core", soc.core(moved).name()},
        {"from", soc.core(moved).version(best.selection[moved]).name},
        {"to", soc.core(moved).version(best.selection[moved] + 1).name},
        {"delta_tat", static_cast<long long>(best.tat) -
                          static_cast<long long>(best_candidate.tat)},
        {"delta_area", static_cast<long long>(best_candidate.overhead_cells) -
                           static_cast<long long>(best.overhead_cells)},
        {"tat", best_candidate.tat}, {"area", best_candidate.overhead_cells});
    best = std::move(best_candidate);
  }
  SOCET_EVENT("opt/result", {"objective", "weighted"},
              {"selection", selection_str(best.selection)}, {"tat", best.tat},
              {"area", best.overhead_cells});
  return best;
}

std::vector<std::vector<unsigned>> enumerate_selections(const Soc& soc) {
  std::vector<std::vector<unsigned>> selections;
  std::vector<unsigned> selection(soc.cores().size(), 0);
  while (true) {
    selections.push_back(selection);
    // Odometer increment over the version menus.
    std::size_t c = 0;
    while (c < selection.size()) {
      if (++selection[c] < soc.core(static_cast<std::uint32_t>(c))
                               .version_count()) {
        break;
      }
      selection[c] = 0;
      ++c;
    }
    if (c == selection.size()) break;
  }
  return selections;
}

std::vector<DesignPoint> enumerate_design_space(const Soc& soc,
                                                const OptimizeOptions& options) {
  SOCET_SPAN("opt/enumerate_design_space");
  std::vector<DesignPoint> points;
  for (auto& selection : enumerate_selections(soc)) {
    points.push_back(evaluate(soc, std::move(selection), options));
  }
  std::sort(points.begin(), points.end(),
            [](const DesignPoint& a, const DesignPoint& b) {
              if (a.overhead_cells != b.overhead_cells) {
                return a.overhead_cells < b.overhead_cells;
              }
              return a.tat < b.tat;
            });
  return points;
}

std::vector<DesignPoint> pareto_front(std::vector<DesignPoint> points) {
  std::sort(points.begin(), points.end(),
            [](const DesignPoint& a, const DesignPoint& b) {
              if (a.overhead_cells != b.overhead_cells) {
                return a.overhead_cells < b.overhead_cells;
              }
              return a.tat < b.tat;
            });
  std::vector<DesignPoint> front;
  unsigned long long best_tat = std::numeric_limits<unsigned long long>::max();
  for (auto& point : points) {
    if (point.tat < best_tat) {
      best_tat = point.tat;
      front.push_back(std::move(point));
    }
  }
  return front;
}

std::string design_space_csv(std::vector<DesignPoint> points) {
  std::sort(points.begin(), points.end(),
            [](const DesignPoint& a, const DesignPoint& b) {
              if (a.overhead_cells != b.overhead_cells) {
                return a.overhead_cells < b.overhead_cells;
              }
              if (a.tat != b.tat) return a.tat < b.tat;
              return a.selection < b.selection;
            });
  auto front = pareto_front(points);
  std::string csv = "selection,area_cells,tat_cycles,pareto\n";
  for (const auto& point : points) {
    bool pareto = false;
    for (const auto& f : front) pareto |= f.selection == point.selection;
    std::string sel;
    for (unsigned v : point.selection) {
      sel += (sel.empty() ? "" : "/") + std::to_string(v + 1);
    }
    csv += sel + "," + std::to_string(point.overhead_cells) + "," +
           std::to_string(point.tat) + "," + (pareto ? "1" : "0") + "\n";
  }
  return csv;
}

}  // namespace socet::opt
