// Ablation: reservation-aware routing (Section 5.1's edge-reuse shifting)
// vs naive independent shortest paths.
//
// The paper reserves each CCG edge for the cycles it carries data, so a
// second value over the same edge departs later ("the edge (NUM, DB) can
// only be utilized from cycle 6 onwards").  Disabling the reservations
// makes every route optimistically independent: the computed TAT drops
// below what the hardware can actually deliver — i.e., the naive schedule
// is *wrong*, not better.  This bench quantifies how much of the period
// accounting the reservation mechanism is responsible for.
#include "common.hpp"

int main() {
  socet::bench::BenchReport bench_report("ablation_reservation");
  using namespace socet;
  bench::print_header("reservation-aware routing ablation",
                      "Section 5.1 mechanism");

  util::Table table({"system", "selection", "TAT (reserved)",
                     "TAT (naive)", "underestimate"});
  bool any_difference = false;

  for (auto* make : {&systems::make_barcode_system, &systems::make_system2}) {
    auto system = make();
    for (unsigned v = 0; v < 2; ++v) {
      std::vector<unsigned> selection(system.soc->cores().size(), v);
      soc::PlanOptions naive;
      naive.ignore_reservations = true;
      const auto reserved = soc::plan_chip_test(*system.soc, selection);
      const auto independent =
          soc::plan_chip_test(*system.soc, selection, naive);
      const double factor = static_cast<double>(reserved.total_tat) /
                            static_cast<double>(independent.total_tat);
      any_difference =
          any_difference || reserved.total_tat != independent.total_tat;
      table.add_row({system.soc->name(), "all V" + std::to_string(v + 1),
                     std::to_string(reserved.total_tat),
                     std::to_string(independent.total_tat),
                     util::Table::num(factor, 2) + "x"});
    }
  }
  std::printf("%s\n", table.to_text().c_str());

  // The naive schedule can never be slower, and must differ somewhere
  // (shared serial groups exist in every minimum-area configuration).
  bool ok = any_difference;
  std::printf("shape check (naive underestimates somewhere): %s\n",
              ok ? "PASS" : "FAIL");
  return bench_report.finish(ok);
}
