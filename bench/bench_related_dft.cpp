// Related-work comparison: every chip-level DFT approach the paper's
// introduction discusses, on one axis pair (chip-level area, chip TAT).
//
//   * FSCAN-BSCAN        — full scan + full boundary scan [2];
//   * partial isolation  — rings only on inaccessible ports [3];
//   * test bus           — direct mux access to every internal port;
//   * SOCET              — transparency + version selection (this paper),
//                          at its min-area and min-TAT design points.
//
// The expected ordering (the paper's Section 1 narrative): boundary scan
// is the most expensive; partial rings cheapen it; the test bus is fast
// but still port-proportional in area and cannot test interconnect; SOCET
// undercuts all of them on area while matching or beating the test bus's
// TAT order of magnitude.
#include "common.hpp"

int main() {
  socet::bench::BenchReport bench_report("related_dft");
  using namespace socet;
  bench::print_header("chip-level DFT landscape", "Section 1 related work");

  bool ok = true;
  for (auto* make : {&systems::make_barcode_system, &systems::make_system2}) {
    auto system = make();
    std::printf("--- %s ---\n", system.soc->name().c_str());

    auto bscan = baselines::fscan_bscan(*system.soc);
    auto rings = baselines::partial_isolation_rings(*system.soc);
    auto bus = baselines::test_bus(*system.soc);
    const auto min_area = soc::plan_chip_test(
        *system.soc, std::vector<unsigned>(system.soc->cores().size(), 0));
    auto min_tat = opt::minimize_tat(*system.soc, 1'000'000);

    util::Table table({"method", "chip-level cells", "chip TAT (cycles)"});
    table.add_row({"FSCAN-BSCAN [2]", std::to_string(bscan.chip_level_cells),
                   std::to_string(bscan.total_tat)});
    table.add_row({"partial isolation rings [3]",
                   std::to_string(rings.chip_level_cells),
                   std::to_string(rings.total_tat)});
    table.add_row({"test bus", std::to_string(bus.chip_level_cells),
                   std::to_string(bus.total_tat)});
    table.add_row({"SOCET min. area",
                   std::to_string(min_area.total_overhead_cells()),
                   std::to_string(min_area.total_tat)});
    table.add_row({"SOCET min. TApp.", std::to_string(min_tat.overhead_cells),
                   std::to_string(min_tat.tat)});
    std::printf("%s\n", table.to_text().c_str());

    ok = ok && rings.chip_level_cells < bscan.chip_level_cells;
    ok = ok && rings.total_tat <= bscan.total_tat;
    ok = ok && min_area.total_overhead_cells() < rings.chip_level_cells;
    ok = ok && min_area.total_overhead_cells() < bus.chip_level_cells;
    ok = ok && min_tat.tat < bscan.total_tat;
    ok = ok && min_tat.tat < rings.total_tat;
  }
  std::printf("shape check (rings < BSCAN; SOCET cheapest and fast): %s\n",
              ok ? "PASS" : "FAIL");
  return bench_report.finish(ok);
}
