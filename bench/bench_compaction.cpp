// Extension study: static test-set compaction.
//
// The chip TAT is linear in each core's HSCAN vector count, so shrinking
// the precomputed test sets shrinks every row of Tables 1 and 3.  This
// bench compacts each core's ATPG set (reverse-order fault simulation
// with dropping), verifies coverage is preserved exactly, and re-plans
// System 1 with the compacted sets.
#include "common.hpp"

int main() {
  socet::bench::BenchReport bench_report("compaction");
  using namespace socet;
  bench::print_header("test-set compaction extension", "TAT accounting");

  auto system = systems::make_barcode_system();
  util::Table table({"core", "vectors", "compacted", "FC before (%)",
                     "FC after (%)"});
  bool ok = true;
  std::vector<unsigned> compact_sizes;
  for (auto& core : system.cores) {
    auto elab = synth::elaborate(core->netlist());
    auto result = atpg::generate_tests(elab.gates, {.random_patterns = 64});
    auto compact = atpg::compact_patterns(elab.gates, result.patterns);
    const auto before = atpg::grade_patterns(elab.gates, result.patterns);
    const auto after = atpg::grade_patterns(elab.gates, compact);
    table.add_row({core->name(), std::to_string(result.vector_count()),
                   std::to_string(compact.size()),
                   bench::fmt_pct(before.fault_coverage()),
                   bench::fmt_pct(after.fault_coverage())});
    ok = ok && compact.size() <= result.patterns.size();
    ok = ok && after.detected == before.detected;  // coverage preserved
    core->set_scan_vectors(static_cast<unsigned>(result.vector_count()));
    compact_sizes.push_back(static_cast<unsigned>(compact.size()));
  }
  std::printf("%s", table.to_text().c_str());

  const std::vector<unsigned> min_area(system.soc->cores().size(), 0);
  auto plan_full = soc::plan_chip_test(*system.soc, min_area);
  // Re-plan with the compacted set sizes.
  {
    auto fresh = systems::make_barcode_system();
    for (std::size_t c = 0; c < fresh.cores.size(); ++c) {
      fresh.cores[c]->set_scan_vectors(compact_sizes[c]);
    }
    auto plan_compact = soc::plan_chip_test(*fresh.soc, min_area);
    std::printf("\nSystem 1 min-area TAT: %llu -> %llu cycles "
                "(%.1f%% saved, zero coverage lost)\n",
                plan_full.total_tat, plan_compact.total_tat,
                100.0 * (1.0 - static_cast<double>(plan_compact.total_tat) /
                                   static_cast<double>(plan_full.total_tat)));
    ok = ok && plan_compact.total_tat <= plan_full.total_tat;
  }
  std::printf("\nshape check (smaller sets, identical coverage, lower TAT): "
              "%s\n",
              ok ? "PASS" : "FAIL");
  return bench_report.finish(ok);
}
