// Area / test-application-time trade-off exploration — paper Section 5.2.
//
// The iterative-improvement engine walks the version lattice: each move
// either replaces one core with its next more expensive (lower latency)
// version or inserts a system-level test mux on a critical pin.  Moves are
// ranked by the paper's cost function C = w1 * dTAT + w2 * dA, where dTAT
// comes from the edge-usage latency numbers of the current test solution
// (the "3 x 5 + 0 x 2 + 1 x 2 = 17" arithmetic of Section 5.2).
//
// Two objectives are provided, matching the paper's (i) and (ii):
//   * minimize_tat:  w1 = 1, w2 = 0, stop at the area budget;
//   * minimize_area: w1 = 0, w2 = 1, upgrade as cheaply as possible until
//     the TAT budget is met.
//
// enumerate_design_space crosses every version menu (the 18 design points
// of Figure 10) for exhaustive comparison.
#pragma once

#include <vector>

#include "socet/soc/schedule.hpp"

namespace socet::opt {

struct DesignPoint {
  std::vector<unsigned> selection;  ///< version index per core
  unsigned long long tat = 0;
  unsigned overhead_cells = 0;  ///< chip-level DFT (versions + muxes + ctrl)
  bool met_constraint = true;
  soc::ChipTestPlan plan;
};

struct OptimizeOptions {
  soc::PlanOptions plan;
  /// Use the paper's edge-usage heuristic to rank version upgrades; when
  /// false, every candidate is evaluated by exact re-planning (ablation).
  bool heuristic_ranking = true;
};

/// Paper objective (i): minimize global TAT with chip-level DFT overhead
/// capped at `area_budget_cells`.
DesignPoint minimize_tat(const soc::Soc& soc, unsigned area_budget_cells,
                         const OptimizeOptions& options = {});

/// Paper objective (ii): minimize chip-level DFT overhead subject to
/// TAT <= `tat_budget` cycles.  `met_constraint` is false if even the
/// fastest configuration misses the budget.
DesignPoint minimize_area(const soc::Soc& soc, unsigned long long tat_budget,
                          const OptimizeOptions& options = {});

/// Paper objective (iii): "a desired trade-off between the two".  Walks
/// the version lattice greedily, taking the upgrade with the best
/// weighted gain  w1 * dTAT - w2 * dA  while any gain is positive.
/// w1 emphasizes test time, w2 area; (1, 0) degenerates toward
/// minimize_tat and (0, 1) keeps the minimum-area point.
DesignPoint minimize_weighted(const soc::Soc& soc, double w1, double w2,
                              const OptimizeOptions& options = {});

/// Every combination of core versions (Figure 10's scatter).
std::vector<DesignPoint> enumerate_design_space(
    const soc::Soc& soc, const OptimizeOptions& options = {});

/// The `socet explore` CSV: one row per design point (selection spelled
/// 1-based as `1/2/1`), pareto column from pareto_front.  Points are
/// emitted sorted by (area, TAT, selection), whatever order they come
/// in.
std::string design_space_csv(std::vector<DesignPoint> points);

/// Non-dominated subset (lower TAT and lower area are both better),
/// sorted by area.
std::vector<DesignPoint> pareto_front(std::vector<DesignPoint> points);

/// The paper's latency-improvement number for upgrading core `core` from
/// its current version to `next_version`, given the edge usage of the
/// current plan.  Exposed for tests and the ablation bench.
long long latency_improvement(const soc::Soc& soc,
                              const soc::ChipTestPlan& plan,
                              std::uint32_t core, unsigned current_version,
                              unsigned next_version);

}  // namespace socet::opt
