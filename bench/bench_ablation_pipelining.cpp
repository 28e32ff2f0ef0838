// Extension study: pipelined transparency.
//
// The paper assumes test data cannot be pipelined through a core (two
// paths sharing logic serialize; a vector fully drains before the next
// enters), so the per-vector period is the full justification latency.
// With pipelining, after the first vector fills the path, a new vector
// can launch every initiation interval (bounded by the busiest shared
// resource):  TAT = fill + (V-1) x II + flush.
//
// This bench quantifies how much the assumption costs on both systems and
// across the version menus — the deeper (cheaper) the versions, the more
// pipelining would recover.
#include "common.hpp"

int main() {
  socet::bench::BenchReport bench_report("ablation_pipelining");
  using namespace socet;
  bench::print_header("pipelined-transparency extension",
                      "Section 3 assumption relaxed");

  util::Table table({"system", "selection", "TAT (paper model)",
                     "TAT (pipelined)", "speedup"});
  bool ok = true;
  for (auto* make : {&systems::make_barcode_system, &systems::make_system2}) {
    auto system = make();
    for (unsigned v = 0; v < 3; ++v) {
      std::vector<unsigned> selection(system.soc->cores().size(), v);
      soc::PlanOptions pipelined;
      pipelined.allow_pipelining = true;
      const auto base = soc::plan_chip_test(*system.soc, selection);
      const auto pipe = soc::plan_chip_test(*system.soc, selection, pipelined);
      const double speedup = static_cast<double>(base.total_tat) /
                             static_cast<double>(pipe.total_tat);
      table.add_row({system.soc->name(), "all V" + std::to_string(v + 1),
                     std::to_string(base.total_tat),
                     std::to_string(pipe.total_tat),
                     util::Table::num(speedup, 2) + "x"});
      ok = ok && pipe.total_tat <= base.total_tat;
      // Overheads are identical: pipelining is a scheduling change only.
      ok = ok &&
           pipe.total_overhead_cells() == base.total_overhead_cells();
    }
  }
  std::printf("%s\n", table.to_text().c_str());
  std::printf("shape check (pipelining never slower, never costs area): %s\n",
              ok ? "PASS" : "FAIL");
  return bench_report.finish(ok);
}
