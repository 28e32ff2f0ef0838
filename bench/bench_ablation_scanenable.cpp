// Ablation: what does chip-level test access buy?
//
// Three whole-chip functional measurements per system:
//   * no DFT at all;
//   * HSCAN chains present but unreachable (no test controller — the
//     paper's "HSCAN only" situation, Table 3);
//   * HSCAN chains plus ONE bonded test pin toggling ScanEnable.
//
// On a pipeline SOC whose end cores touch chip pins, the single pin
// stitches the per-core chains into a chip-spanning shift path and
// coverage jumps — demonstrating from the other direction why the paper's
// chip-level phase (transparency + test controller) is where the value
// is: core-level DFT alone is wasted silicon until something at chip
// level can reach it.
#include "common.hpp"

int main() {
  socet::bench::BenchReport bench_report("ablation_scanenable");
  using namespace socet;
  bench::print_header("scan-access ablation", "Table 3 mechanism");

  util::Table table({"system", "no DFT FC%", "HSCAN unreachable FC%",
                     "HSCAN + SE pin FC%"});
  bool ok = true;
  for (auto* make : {&systems::make_barcode_system, &systems::make_system2}) {
    auto system = make();
    auto none =
        bench::chip_sequential_coverage(system, bench::ChipMode::kNoDft);
    auto unreachable = bench::chip_sequential_coverage(
        system, bench::ChipMode::kHscanUnreachable);
    auto with_pin = bench::chip_sequential_coverage(
        system, bench::ChipMode::kHscanWithTestPin);
    table.add_row({system.soc->name(),
                   bench::fmt_pct(none.fault_coverage()),
                   bench::fmt_pct(unreachable.fault_coverage()),
                   bench::fmt_pct(with_pin.fault_coverage())});
    ok = ok && unreachable.fault_coverage() < 50.0;
    ok = ok && with_pin.fault_coverage() > unreachable.fault_coverage() + 20.0;
  }
  std::printf("%s\n", table.to_text().c_str());
  std::printf("shape check (unreachable chains stay low; one test pin "
              "unlocks >20 points of coverage): %s\n",
              ok ? "PASS" : "FAIL");
  return bench_report.finish(ok);
}
