// Tests for the extension features: pipelined transparency scheduling,
// test-set compaction, and the partial-isolation-ring baseline.
#include <gtest/gtest.h>

#include "socet/atpg/atpg.hpp"
#include "socet/baselines/baselines.hpp"
#include "socet/soc/validate.hpp"
#include "socet/synth/elaborate.hpp"
#include "socet/systems/synthetic.hpp"
#include "socet/systems/systems.hpp"

namespace socet {
namespace {

// ------------------------------------------------------------- pipelining

TEST(Pipelining, NeverSlowerAndValidatorAgrees) {
  auto system = systems::make_barcode_system();
  for (unsigned v = 0; v < 3; ++v) {
    std::vector<unsigned> selection(system.soc->cores().size(), v);
    soc::PlanOptions pipelined;
    pipelined.allow_pipelining = true;
    auto base = soc::plan_chip_test(*system.soc, selection);
    auto pipe = soc::plan_chip_test(*system.soc, selection, pipelined);
    EXPECT_LE(pipe.total_tat, base.total_tat);
    EXPECT_EQ(pipe.total_overhead_cells(), base.total_overhead_cells());
    EXPECT_TRUE(
        soc::validate_plan(*system.soc, selection, pipe, pipelined).empty());
    // Mixing accounting modes must be caught — wherever pipelining made a
    // difference at all.
    if (pipe.total_tat != base.total_tat) {
      EXPECT_FALSE(soc::validate_plan(*system.soc, selection, pipe).empty());
    }
  }
}

TEST(Pipelining, DirectlyAccessibleCoreUnaffected) {
  // A core with period 1 has II = 1: pipelining changes nothing.
  auto system = systems::make_barcode_system();
  const auto pre = system.soc->find_core("PREPROCESSOR");
  const std::vector<unsigned> selection(system.soc->cores().size(), 0);
  soc::PlanOptions pipelined;
  pipelined.allow_pipelining = true;
  auto base = soc::plan_chip_test(*system.soc, selection);
  auto pipe = soc::plan_chip_test(*system.soc, selection, pipelined);
  EXPECT_EQ(base.cores[pre].period, 1u);
  EXPECT_EQ(pipe.cores[pre].tat, base.cores[pre].tat);
}

TEST(Pipelining, SyntheticSweep) {
  for (std::uint64_t seed : {3u, 7u, 11u}) {
    auto system = systems::make_synthetic_system(seed);
    const std::vector<unsigned> selection(system.soc->cores().size(), 0);
    soc::PlanOptions pipelined;
    pipelined.allow_pipelining = true;
    auto base = soc::plan_chip_test(*system.soc, selection);
    auto pipe = soc::plan_chip_test(*system.soc, selection, pipelined);
    EXPECT_LE(pipe.total_tat, base.total_tat) << "seed " << seed;
  }
}

// -------------------------------------------------------------- compaction

TEST(Compaction, PreservesCoverageAndShrinks) {
  auto display = synth::elaborate(systems::make_display_rtl());
  auto result = atpg::generate_tests(display.gates, {.random_patterns = 64});
  auto compact = atpg::compact_patterns(display.gates, result.patterns);
  EXPECT_LT(compact.size(), result.patterns.size());
  const auto before = atpg::grade_patterns(display.gates, result.patterns);
  const auto after = atpg::grade_patterns(display.gates, compact);
  EXPECT_EQ(before.detected, after.detected);
}

TEST(Compaction, IdempotentOnCompactedSet) {
  auto gcd = synth::elaborate(systems::make_gcd_rtl());
  auto result = atpg::generate_tests(gcd.gates, {.random_patterns = 32});
  auto once = atpg::compact_patterns(gcd.gates, result.patterns);
  auto twice = atpg::compact_patterns(gcd.gates, once);
  // A second pass may reorder-drop a little, but never grows.
  EXPECT_LE(twice.size(), once.size());
  EXPECT_EQ(atpg::grade_patterns(gcd.gates, twice).detected,
            atpg::grade_patterns(gcd.gates, once).detected);
}

TEST(Compaction, EmptyInEmptyOut) {
  auto gcd = synth::elaborate(systems::make_gcd_rtl());
  EXPECT_TRUE(atpg::compact_patterns(gcd.gates, {}).empty());
}

// -------------------------------------------------------- isolation rings

TEST(IsolationRings, CheaperThanFullBoundaryScan) {
  for (auto* make : {&systems::make_barcode_system, &systems::make_system2}) {
    auto system = make();
    auto full = baselines::fscan_bscan(*system.soc);
    auto partial = baselines::partial_isolation_rings(*system.soc);
    EXPECT_LT(partial.chip_level_cells, full.chip_level_cells);
    EXPECT_LE(partial.total_tat, full.total_tat);
    EXPECT_EQ(partial.core_level_cells, full.core_level_cells)
        << "both fully scan the cores";
  }
}

TEST(IsolationRings, RingBitsAreTheDanglingPorts) {
  // System 1's dangling ports: CPU AddrLo is wired, but DataOut/Read/Write
  // (8+1+1) and PREPROCESSOR Address (12) feed only the excluded memories.
  auto system = systems::make_barcode_system();
  auto partial = baselines::partial_isolation_rings(*system.soc);
  EXPECT_EQ(partial.ring_bits, 8u + 1 + 1 + 12);
}

TEST(IsolationRings, FullyWiredSocNeedsNoRings) {
  auto system = systems::make_synthetic_system(5);
  // Count dangling ports; rings must equal their width sum exactly.
  unsigned dangling_bits = 0;
  for (std::uint32_t c = 0; c < system.soc->cores().size(); ++c) {
    const auto& netlist = system.soc->core(c).netlist();
    for (std::uint32_t p = 0; p < netlist.ports().size(); ++p) {
      const rtl::PortId port(p);
      bool wired = false;
      for (const auto& link : system.soc->links()) {
        if (const auto* ref = std::get_if<soc::CorePortRef>(&link.from)) {
          wired |= ref->core == c && ref->port == port;
        }
        if (const auto* ref = std::get_if<soc::CorePortRef>(&link.to)) {
          wired |= ref->core == c && ref->port == port;
        }
      }
      if (!wired) dangling_bits += netlist.port(port).width;
    }
  }
  auto partial = baselines::partial_isolation_rings(*system.soc);
  EXPECT_EQ(partial.ring_bits, dangling_bits);
}

}  // namespace
}  // namespace socet
