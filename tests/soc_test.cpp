#include <gtest/gtest.h>

#include "socet/soc/ccg.hpp"
#include "socet/soc/schedule.hpp"
#include "socet/soc/soc.hpp"

namespace socet::soc {
namespace {

using rtl::FuKind;
using rtl::Netlist;

/// A trivially transparent pass-through core: IN -> R -> OUT, latency 1.
rtl::Netlist make_pass_core(const std::string& name, unsigned width) {
  Netlist n(name);
  auto in = n.add_input("IN", width);
  auto out = n.add_output("OUT", width);
  auto r = n.add_register("R", width);
  auto m = n.add_mux("M", width, 2);
  auto k = n.add_constant("K", util::BitVector(width, 0));
  n.connect(n.pin(in), n.mux_in(m, 0));
  n.connect(n.const_out(k), n.mux_in(m, 1));
  n.connect(n.mux_out(m), n.reg_d(r));
  n.connect(n.reg_q(r), n.pin(out));
  return n;
}

/// A slower pass-through: IN -> R1 -> R2 -> R3 -> OUT, latency 3.
rtl::Netlist make_slow_core(const std::string& name, unsigned width) {
  Netlist n(name);
  auto in = n.add_input("IN", width);
  auto out = n.add_output("OUT", width);
  auto r1 = n.add_register("R1", width);
  auto r2 = n.add_register("R2", width);
  auto r3 = n.add_register("R3", width);
  auto m = n.add_mux("M", width, 2);
  auto k = n.add_constant("K", util::BitVector(width, 0));
  n.connect(n.pin(in), n.mux_in(m, 0));
  n.connect(n.const_out(k), n.mux_in(m, 1));
  n.connect(n.mux_out(m), n.reg_d(r1));
  n.connect(n.reg_q(r1), n.reg_d(r2));
  n.connect(n.reg_q(r2), n.reg_d(r3));
  n.connect(n.reg_q(r3), n.pin(out));
  return n;
}

struct TwoCoreChip {
  core::Core a = core::Core::prepare(make_pass_core("A", 8));
  core::Core b = core::Core::prepare(make_pass_core("B", 8));
  Soc soc{"chip"};

  TwoCoreChip() {
    a.set_scan_vectors(10);
    b.set_scan_vectors(20);
    auto ca = soc.add_core(&a);
    auto cb = soc.add_core(&b);
    auto pi = soc.add_pi("PI", 8);
    auto po = soc.add_po("PO", 8);
    soc.connect(pi, ca, "IN");
    soc.connect(ca, "OUT", cb, "IN");
    soc.connect(cb, "OUT", po);
    soc.validate();
  }
};

// -------------------------------------------------------------------- Soc

TEST(Soc, WidthMismatchCaughtAtValidate) {
  core::Core a = core::Core::prepare(make_pass_core("A", 8));
  Soc soc("bad");
  auto ca = soc.add_core(&a);
  auto narrow = soc.add_pi("N", 4);
  soc.connect(narrow, ca, "IN");
  EXPECT_THROW(soc.validate(), util::Error);
}

TEST(Soc, DoubleDriveCaught) {
  core::Core a = core::Core::prepare(make_pass_core("A", 8));
  Soc soc("bad");
  auto ca = soc.add_core(&a);
  auto p1 = soc.add_pi("P1", 8);
  auto p2 = soc.add_pi("P2", 8);
  soc.connect(p1, ca, "IN");
  soc.connect(p2, ca, "IN");
  EXPECT_THROW(soc.validate(), util::Error);
}

TEST(Soc, DirectionChecks) {
  core::Core a = core::Core::prepare(make_pass_core("A", 8));
  Soc soc("bad");
  auto ca = soc.add_core(&a);
  auto pi = soc.add_pi("PI", 8);
  auto po = soc.add_po("PO", 8);
  EXPECT_THROW(soc.connect(pi, ca, "OUT"), util::Error);
  EXPECT_THROW(soc.connect(ca, "IN", po), util::Error);
}

TEST(Soc, Lookups) {
  TwoCoreChip chip;
  EXPECT_EQ(chip.soc.find_core("A"), 0u);
  EXPECT_EQ(chip.soc.find_core("B"), 1u);
  EXPECT_THROW(chip.soc.find_core("C"), util::Error);
  EXPECT_THROW(chip.soc.find_po("nope"), util::Error);
}

// -------------------------------------------------------------------- Ccg

TEST(Ccg, NodeAndEdgeCounts) {
  TwoCoreChip chip;
  Ccg ccg(chip.soc, {0, 0});
  // Nodes: 1 PI + 1 PO + 2 ports per core x 2 cores = 6.
  EXPECT_EQ(ccg.nodes().size(), 6u);
  // Edges: 3 interconnect + >=1 transparency edge per core.
  EXPECT_GE(ccg.edges().size(), 5u);
}

TEST(Ccg, TransparencyEdgeLatencyFollowsVersion) {
  core::Core slow = core::Core::prepare(make_slow_core("S", 8));
  slow.set_scan_vectors(5);
  Soc soc("chip");
  auto cs = soc.add_core(&slow);
  auto pi = soc.add_pi("PI", 8);
  auto po = soc.add_po("PO", 8);
  soc.connect(pi, cs, "IN");
  soc.connect(cs, "OUT", po);

  Ccg ccg(soc, {0});
  unsigned max_latency = 0;
  for (const auto& edge : ccg.edges()) {
    if (edge.core == 0) max_latency = std::max(max_latency, edge.latency);
  }
  EXPECT_EQ(max_latency, 3u) << "version 1 of the 3-register core";
}

TEST(Ccg, ResourceIdsWellFormed) {
  TwoCoreChip chip;
  Ccg ccg(chip.soc, {0, 0});
  // Every edge's resource id is in range; independent edges get distinct
  // ids (resource count can only be <= edge count when groups share).
  for (const auto& edge : ccg.edges()) {
    EXPECT_LT(edge.resource, ccg.resource_count());
  }
  EXPECT_LE(ccg.resource_count(), ccg.edges().size());
}

// ------------------------------------------------------------ Reservations

TEST(Reservations, EarliestFreeSkipsBusyWindows) {
  Reservations r(2);
  r.reserve(0, 0, 5);
  EXPECT_EQ(r.earliest_free(0, 0, 3), 5u);
  EXPECT_EQ(r.earliest_free(0, 7, 3), 7u);
  EXPECT_EQ(r.earliest_free(1, 0, 3), 0u);  // other resource untouched
  r.reserve(0, 8, 2);
  // Window of 3 starting at 5 fits between [0,5) and [8,10).
  EXPECT_EQ(r.earliest_free(0, 0, 3), 5u);
  // Window of 4 does not; it must wait for cycle 10.
  EXPECT_EQ(r.earliest_free(0, 0, 4), 10u);
}

TEST(Reservations, BackToBackWindows) {
  Reservations r(1);
  r.reserve(0, 0, 6);
  r.reserve(0, 6, 2);
  EXPECT_EQ(r.earliest_free(0, 0, 1), 8u);
}

// --------------------------------------------------------------- planning

TEST(Plan, SingleCoreDirectlyAccessible) {
  core::Core a = core::Core::prepare(make_pass_core("A", 8));
  a.set_scan_vectors(10);
  Soc soc("chip");
  auto ca = soc.add_core(&a);
  auto pi = soc.add_pi("PI", 8);
  auto po = soc.add_po("PO", 8);
  soc.connect(pi, ca, "IN");
  soc.connect(ca, "OUT", po);

  auto plan = plan_chip_test(soc, {0});
  ASSERT_EQ(plan.cores.size(), 1u);
  EXPECT_EQ(plan.cores[0].period, 1u);
  EXPECT_EQ(plan.cores[0].system_mux_cells, 0u);
  // depth 1 -> flush = 0 + observe 0.
  EXPECT_EQ(plan.cores[0].flush, 0u);
  EXPECT_EQ(plan.cores[0].tat, a.hscan_vectors() * 1ull);
}

TEST(Plan, EmbeddedCorePaysNeighbourLatency) {
  TwoCoreChip chip;
  auto plan = plan_chip_test(chip.soc, {0, 0});
  // Core B's input is justified through A's 1-cycle transparency:
  // PI -> A.IN, A.IN -> A.OUT, A.OUT -> B.IN.
  const auto& plan_b = plan.cores[1];
  EXPECT_EQ(plan_b.period, 1u);
  EXPECT_EQ(plan_b.system_mux_cells, 0u);
  ASSERT_FALSE(plan_b.input_routes.empty());
  EXPECT_GE(plan_b.input_routes[0].second.steps.size(), 3u);
  // Core A's output is observed through B: nonzero observation flush.
  const auto& plan_a = plan.cores[0];
  EXPECT_GT(plan_a.flush, 0u);
}

TEST(Plan, UnreachablePortGetsSystemMux) {
  // Core whose input is fed by nothing.
  core::Core a = core::Core::prepare(make_pass_core("A", 8));
  a.set_scan_vectors(4);
  Soc soc("chip");
  auto ca = soc.add_core(&a);
  auto po = soc.add_po("PO", 8);
  soc.connect(ca, "OUT", po);  // IN left dangling

  auto plan = plan_chip_test(soc, {0});
  EXPECT_GT(plan.cores[0].system_mux_cells, 0u);
  EXPECT_EQ(plan.cores[0].period, 1u);  // direct mux access
}

TEST(Plan, ForcedMuxSkipsRouting) {
  TwoCoreChip chip;
  PlanOptions options;
  options.forced_input_muxes.push_back(
      CorePortRef{1, chip.b.netlist().find_port("IN")});
  auto plan = plan_chip_test(chip.soc, {0, 0}, options);
  const auto& plan_b = plan.cores[1];
  EXPECT_EQ(plan_b.period, 1u) << "forced mux bypasses core A";
  EXPECT_GT(plan_b.system_mux_cells, 0u);
}

TEST(Plan, MissingTestSetRejected) {
  core::Core a = core::Core::prepare(make_pass_core("A", 8));
  Soc soc("chip");
  auto ca = soc.add_core(&a);
  auto pi = soc.add_pi("PI", 8);
  auto po = soc.add_po("PO", 8);
  soc.connect(pi, ca, "IN");
  soc.connect(ca, "OUT", po);
  EXPECT_THROW(plan_chip_test(soc, {0}), util::Error);
}

TEST(Plan, TotalsAddUp) {
  TwoCoreChip chip;
  auto plan = plan_chip_test(chip.soc, {0, 0});
  unsigned long long tat = 0;
  for (const auto& p : plan.cores) tat += p.tat;
  EXPECT_EQ(plan.total_tat, tat);
  EXPECT_EQ(plan.total_overhead_cells(),
            plan.version_cells + plan.system_mux_cells +
                plan.controller_cells);
}

TEST(Plan, EdgeUseCountsRecorded) {
  TwoCoreChip chip;
  auto plan = plan_chip_test(chip.soc, {0, 0});
  // Core A's IN->OUT transparency is used to justify B's input and to
  // observe nothing (B observes directly), so at least one use.
  bool found = false;
  for (const auto& [key, count] : plan.edge_use) {
    if (std::get<0>(key) == 0) {
      found = true;
      EXPECT_GE(count, 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Plan, EdgeReuseSerializesAcrossVectors) {
  // Three cores in a line; testing the last one routes through both
  // predecessors: reusing the first core's single transparency edge for
  // nothing here, but period must at least cover the serial chain.
  core::Core a = core::Core::prepare(make_slow_core("A", 8));
  core::Core b = core::Core::prepare(make_slow_core("B", 8));
  a.set_scan_vectors(3);
  b.set_scan_vectors(3);
  Soc soc("chip");
  auto ca = soc.add_core(&a);
  auto cb = soc.add_core(&b);
  auto pi = soc.add_pi("PI", 8);
  auto po = soc.add_po("PO", 8);
  soc.connect(pi, ca, "IN");
  soc.connect(ca, "OUT", cb, "IN");
  soc.connect(cb, "OUT", po);

  auto plan = plan_chip_test(soc, {0, 0});
  // B's input arrives through A's 3-cycle transparency.
  EXPECT_GE(plan.cores[1].period, 3u);
}

}  // namespace
}  // namespace socet::soc
