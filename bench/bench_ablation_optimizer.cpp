// Ablation: the paper's edge-usage heuristic (Section 5.2's latency
// numbers) vs exact re-planning for ranking version upgrades, and both vs
// exhaustive enumeration.
//
// The heuristic ranks a candidate upgrade by sum(edge usage x latency
// delta) over the current test solution, avoiding a full reschedule per
// candidate.  This bench checks how much quality that costs on both
// systems and under a sweep of area budgets.
#include <chrono>

#include "common.hpp"

int main() {
  socet::bench::BenchReport bench_report("ablation_optimizer");
  using namespace socet;
  bench::print_header("optimizer ranking ablation", "Section 5.2 mechanism");

  util::Table table({"system", "budget (cells)", "exhaustive best",
                     "greedy+heuristic", "greedy+exact", "heuristic gap"});
  bool ok = true;

  for (auto* make : {&systems::make_barcode_system, &systems::make_system2}) {
    auto system = make();
    auto points = opt::enumerate_design_space(*system.soc);

    for (double budget_scale : {1.5, 2.5, 10.0}) {
      const unsigned budget = static_cast<unsigned>(
          budget_scale * points.front().overhead_cells);
      unsigned long long best = ~0ull;
      for (const auto& p : points) {
        if (p.overhead_cells <= budget) best = std::min(best, p.tat);
      }
      opt::OptimizeOptions heuristic;
      heuristic.heuristic_ranking = true;
      opt::OptimizeOptions exact;
      exact.heuristic_ranking = false;
      auto h = opt::minimize_tat(*system.soc, budget, heuristic);
      auto e = opt::minimize_tat(*system.soc, budget, exact);
      const double gap =
          100.0 * (static_cast<double>(h.tat) - static_cast<double>(best)) /
          static_cast<double>(best);
      table.add_row({system.soc->name(), std::to_string(budget),
                     std::to_string(best), std::to_string(h.tat),
                     std::to_string(e.tat),
                     util::Table::num(gap, 1) + "%"});
      ok = ok && h.tat >= best && e.tat >= best;  // greedy never beats optimum
      ok = ok && h.tat <= 2 * best;               // ...but stays in range
    }
  }
  std::printf("%s\n", table.to_text().c_str());
  std::printf("shape check (greedy within 2x of exhaustive optimum at "
              "every budget): %s\n",
              ok ? "PASS" : "FAIL");
  return bench_report.finish(ok);
}
