// Substrate study: the sequential test generator behind Table 3's
// "Orig." row.
//
// The paper obtained the original circuits' (no-DFT) fault coverage from
// an in-house sequential test generation tool.  Ours is time-frame PODEM
// (atpg/sequential.hpp); this bench compares it against pure random
// sequences on the GCD core — the one System 2 core small enough for
// whole-core sequential ATPG — and shows the two claims that justify the
// whole SOCET enterprise:
//   1. deterministic sequential ATPG beats random functional testing, but
//   2. even it stays far below what full-scan + combinational ATPG reach —
//      sequential test generation "can be computationally prohibitive"
//      (paper Section 1), which is why cores get scan + transparency.
#include <chrono>

#include "socet/atpg/sequential.hpp"
#include "common.hpp"

int main() {
  socet::bench::BenchReport bench_report("seq_atpg");
  using namespace socet;
  bench::print_header("sequential ATPG substrate", "Table 3 'Orig.' rows");

  auto gcd = systems::make_gcd_rtl();
  auto elab = synth::elaborate(gcd);
  std::printf("GCD core: %zu cells\n\n", elab.gates.cell_count());

  using clock = std::chrono::steady_clock;
  // Times go on the BENCH_ line only, so stdout is deterministic.
  util::Table table({"method", "FC (%)", "TE (%)"});

  const auto t0 = clock::now();
  auto random_cov = atpg::sequential_coverage(elab.gates, 64, 7);
  const auto t1 = clock::now();
  auto seq = atpg::sequential_atpg(
      elab.gates, {.max_frames = 6, .backtrack_limit = 128,
                   .random_cycles = 64, .seed = 7});
  const auto t2 = clock::now();
  auto scan = atpg::generate_tests(elab.gates, {.random_patterns = 64});
  const auto t3 = clock::now();

  table.add_row({"random sequences (64 cycles)",
                 bench::fmt_pct(random_cov.fault_coverage()),
                 bench::fmt_pct(random_cov.test_efficiency())});
  table.add_row({"sequential ATPG (6 frames)",
                 bench::fmt_pct(seq.coverage().fault_coverage()),
                 bench::fmt_pct(seq.coverage().test_efficiency())});
  table.add_row({"full scan + combinational ATPG",
                 bench::fmt_pct(scan.coverage().fault_coverage()),
                 bench::fmt_pct(scan.coverage().test_efficiency())});
  std::printf("%s\n", table.to_text().c_str());

  const auto ms = [](auto a, auto b) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count();
  };
  const auto seq_ms = ms(t1, t2);
  const auto scan_ms = ms(t2, t3);
  bench_report.metric("random_ms", static_cast<double>(ms(t0, t1)));
  bench_report.metric("seq_atpg_ms", static_cast<double>(seq_ms));
  bench_report.metric("scan_atpg_ms", static_cast<double>(scan_ms));
  const bool ok =
      seq.coverage().fault_coverage() >= random_cov.fault_coverage() &&
      scan.coverage().fault_coverage() >= seq.coverage().fault_coverage() &&
      scan_ms * 5 < seq_ms;
  std::printf("shape check (sequential ATPG >= random; scan ATPG at least "
              "as good and >5x faster — Section 1's argument): %s\n",
              ok ? "PASS" : "FAIL");
  return bench_report.finish(ok);
}
