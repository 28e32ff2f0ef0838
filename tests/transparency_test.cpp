#include <gtest/gtest.h>

#include "socet/transparency/rcg.hpp"
#include "socet/transparency/search.hpp"
#include "socet/transparency/versions.hpp"

namespace socet::transparency {
namespace {

using rtl::FuKind;
using rtl::Netlist;
using rtl::NodeKind;
using rtl::PortId;

/// A CPU-like core reproducing the split-node structure of the paper's
/// Figure 7:
///
///   Data -> IR (O-split: high nibble vs low nibble)
///     IR(7-4) -> MARpage -> AHigh            (short branch)
///     IR(7-4) -> SR -> AC(7-4)   \  AC is C-split; branches reconverge
///     IR(3-0) -> AC(3-0)         /  at the O-split IR
///   AC -> PCoff -> MARoff -> ALow             (long branch)
///   Data -> MARoff via mux M                  (non-HSCAN shortcut, V2)
struct MiniCpu {
  Netlist n{"minicpu"};
  PortId data, alow, ahigh;

  MiniCpu() {
    data = n.add_input("Data", 8);
    alow = n.add_output("ALow", 8);
    ahigh = n.add_output("AHigh", 4);
    auto ir = n.add_register("IR", 8);
    auto sr = n.add_register("SR", 4);
    auto ac = n.add_register("AC", 8);
    auto pcoff = n.add_register("PCoff", 8);
    auto maroff = n.add_register("MARoff", 8);
    auto marpage = n.add_register("MARpage", 4);

    auto mux_edge = [&](rtl::PinRef from, unsigned from_lo, rtl::PinRef to,
                        unsigned to_lo, unsigned width, const std::string& nm) {
      auto m = n.add_mux(nm, width, 2);
      auto k = n.add_constant(nm + "k", util::BitVector(width, 0));
      n.connect(from, from_lo, n.mux_in(m, 0), 0, width);
      n.connect(n.const_out(k), n.mux_in(m, 1));
      n.connect(n.mux_out(m), 0, to, to_lo, width);
    };

    mux_edge(n.pin(data), 0, n.reg_d(ir), 0, 8, "m_ir");
    mux_edge(n.reg_q(ir), 4, n.reg_d(marpage), 0, 4, "m_mp");
    mux_edge(n.reg_q(ir), 4, n.reg_d(sr), 0, 4, "m_sr");
    mux_edge(n.reg_q(ir), 0, n.reg_d(ac), 0, 4, "m_acl");
    mux_edge(n.reg_q(sr), 0, n.reg_d(ac), 4, 4, "m_ach");
    mux_edge(n.reg_q(ac), 0, n.reg_d(pcoff), 0, 8, "m_pc");
    // MARoff: mux M with two sources - PCoff (scan path) and Data (the
    // paper's Version-2 shortcut).
    auto m = n.add_mux("M", 8, 2);
    n.connect(n.reg_q(pcoff), n.mux_in(m, 0));
    n.connect(n.pin(data), n.mux_in(m, 1));
    n.connect(n.mux_out(m), n.reg_d(maroff));

    n.connect(n.reg_q(maroff), n.pin(alow));
    n.connect(n.reg_q(marpage), n.pin(ahigh));
    n.validate();
  }

  /// Hand-marked HSCAN configuration: everything except the Data->MARoff
  /// shortcut lies on scan chains.
  hscan::HscanConfig hscan_config() const {
    hscan::HscanConfig config;
    auto reg = [&](const char* name) {
      return rtl::register_node(n.find_register(name));
    };
    auto port = [&](PortId id) { return rtl::port_node(n, id); };
    config.reused_edges = {
        {port(data), reg("IR")},       {reg("IR"), reg("MARpage")},
        {reg("IR"), reg("SR")},        {reg("IR"), reg("AC")},
        {reg("SR"), reg("AC")},        {reg("AC"), reg("PCoff")},
        {reg("PCoff"), reg("MARoff")}, {reg("MARoff"), port(alow)},
        {reg("MARpage"), port(ahigh)},
    };
    config.max_depth = 5;
    return config;
  }
};

// -------------------------------------------------------------------- RCG

TEST(Rcg, NodesCoverPortsAndRegisters) {
  MiniCpu cpu;
  Rcg rcg(cpu.n);
  // 1 input + 2 outputs + 6 registers.
  EXPECT_EQ(rcg.nodes().size(), 9u);
  EXPECT_EQ(rcg.input_nodes().size(), 1u);
  EXPECT_EQ(rcg.output_nodes().size(), 2u);
}

TEST(Rcg, DetectsSplitNodes) {
  MiniCpu cpu;
  Rcg rcg(cpu.n);
  const auto& ir = rcg.node(rcg.index_of(
      rtl::register_node(cpu.n.find_register("IR"))));
  EXPECT_TRUE(ir.o_split) << "IR fans out in disjoint nibbles";
  const auto& ac = rcg.node(rcg.index_of(
      rtl::register_node(cpu.n.find_register("AC"))));
  EXPECT_TRUE(ac.c_split) << "AC nibbles come from different sources";
  EXPECT_FALSE(ac.o_split);
  const auto& sr = rcg.node(rcg.index_of(
      rtl::register_node(cpu.n.find_register("SR"))));
  EXPECT_FALSE(sr.c_split);
}

TEST(Rcg, HscanEdgesMarked) {
  MiniCpu cpu;
  auto hs = cpu.hscan_config();
  Rcg rcg(cpu.n, &hs);
  unsigned hscan_edges = 0;
  unsigned shortcut_edges = 0;
  const auto data_node = rcg.index_of(rtl::port_node(cpu.n, cpu.data));
  const auto maroff_node =
      rcg.index_of(rtl::register_node(cpu.n.find_register("MARoff")));
  for (const auto& edge : rcg.edges()) {
    if (edge.hscan) ++hscan_edges;
    if (edge.src == data_node && edge.dst == maroff_node) {
      ++shortcut_edges;
      EXPECT_FALSE(edge.hscan) << "the mux-M shortcut is not a scan edge";
    }
  }
  EXPECT_EQ(hscan_edges, 9u);
  EXPECT_EQ(shortcut_edges, 1u);
}

// ----------------------------------------------------------------- search

TEST(Search, PropagationBranchesAtOSplit) {
  MiniCpu cpu;
  auto hs = cpu.hscan_config();
  Rcg rcg(cpu.n, &hs);
  auto result = find_propagation(rcg, rcg.index_of(rtl::port_node(cpu.n, cpu.data)),
                                 EdgeClass::kHscanOnly, {});
  ASSERT_TRUE(result.found);
  // Long branch: Data->IR->AC->PCoff->MARoff = 4 loads (the (3-0) slice
  // takes the direct IR->AC edge); short branch Data->IR->MARpage = 2.
  // Latency is the longer one.
  EXPECT_EQ(result.latency, 4u);
  // Both outputs appear among used edges' destinations.
  bool saw_alow = false, saw_ahigh = false;
  for (auto e : result.edges) {
    const auto& dst = rcg.node(rcg.edge(e).dst).ref;
    if (dst.kind == NodeKind::kOutputPort) {
      if (rcg.node_name(rcg.edge(e).dst) == "ALow") saw_alow = true;
      if (rcg.node_name(rcg.edge(e).dst) == "AHigh") saw_ahigh = true;
    }
  }
  EXPECT_TRUE(saw_alow);
  EXPECT_TRUE(saw_ahigh);
  // The shorter parallel branches need balancing freezes.
  EXPECT_GE(result.freeze_points, 1u);
}

TEST(Search, JustificationReconvergesAtOSplit) {
  MiniCpu cpu;
  auto hs = cpu.hscan_config();
  Rcg rcg(cpu.n, &hs);
  auto result = find_justification(
      rcg, rcg.index_of(rtl::port_node(cpu.n, cpu.alow)),
      EdgeClass::kHscanOnly, {});
  ASSERT_TRUE(result.found);
  // MARoff<-PCoff<-AC<-{IR | SR<-IR}<-Data: the SR detour dominates: 5.
  EXPECT_EQ(result.latency, 5u);
  // AC's two fanin branches are unbalanced by one cycle.
  EXPECT_GE(result.freeze_points, 1u);
  // Reconvergence: the Data->IR edge is shared, so it appears once.
  unsigned data_ir = 0;
  const auto data_node = rcg.index_of(rtl::port_node(cpu.n, cpu.data));
  for (auto e : result.edges) {
    if (rcg.edge(e).src == data_node &&
        rcg.node_name(rcg.edge(e).dst) == "IR") {
      ++data_ir;
    }
  }
  EXPECT_EQ(data_ir, 1u);
}

TEST(Search, AllEdgesFindShortcut) {
  MiniCpu cpu;
  auto hs = cpu.hscan_config();
  Rcg rcg(cpu.n, &hs);
  auto result = find_justification(
      rcg, rcg.index_of(rtl::port_node(cpu.n, cpu.alow)),
      EdgeClass::kAllExisting, {});
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.latency, 1u) << "mux-M shortcut gives one-cycle latency";
}

TEST(Search, ExcludedEdgesForceAlternative) {
  MiniCpu cpu;
  auto hs = cpu.hscan_config();
  Rcg rcg(cpu.n, &hs);
  // Exclude the shortcut: all-edges search must fall back to the chain.
  std::set<std::uint32_t> excluded;
  const auto data_node = rcg.index_of(rtl::port_node(cpu.n, cpu.data));
  for (std::uint32_t e = 0; e < rcg.edges().size(); ++e) {
    if (rcg.edge(e).src == data_node &&
        rcg.node_name(rcg.edge(e).dst) == "MARoff") {
      excluded.insert(e);
    }
  }
  auto result = find_justification(
      rcg, rcg.index_of(rtl::port_node(cpu.n, cpu.alow)),
      EdgeClass::kAllExisting, excluded);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.latency, 5u);
}

TEST(Search, FailsWhenNoPathExists) {
  Netlist n("island");
  auto in = n.add_input("I", 4);
  auto out = n.add_output("O", 4);
  auto r = n.add_register("R", 4);
  // R drives the output but nothing drives R from I.
  n.connect(n.reg_q(r), n.pin(out));
  auto add = n.add_fu("A", FuKind::kAdd, 4, 2);
  n.connect(n.pin(in), n.fu_in(add, 0));
  n.connect(n.reg_q(r), n.fu_in(add, 1));
  n.connect(n.fu_out(add), n.reg_d(r));

  Rcg rcg(n);
  auto prop = find_propagation(rcg, rcg.index_of(rtl::port_node(n, in)),
                               EdgeClass::kAllExisting, {});
  EXPECT_FALSE(prop.found);
}

// --------------------------------------------------------------- versions

TEST(Versions, StandardMenuTradesLatencyForArea) {
  MiniCpu cpu;
  auto hs = cpu.hscan_config();
  Rcg rcg(cpu.n, &hs);
  auto versions = standard_versions(rcg);
  ASSERT_EQ(versions.size(), 3u);

  // Areas strictly increase along the menu.
  EXPECT_LT(versions[0].extra_cells, versions[1].extra_cells);
  EXPECT_LT(versions[1].extra_cells, versions[2].extra_cells);

  // V1 (HSCAN only): Data->ALow takes the long chain (propagation finds
  // the 4-cycle route; justification's SR detour costs 5, min wins).
  auto v1 = versions[0].latency(cpu.data, cpu.alow);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(*v1, 4u);

  // V2 recruits the mux-M shortcut: latency 1.
  auto v2 = versions[1].latency(cpu.data, cpu.alow);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(*v2, 1u);

  // V3 forces every pair to 1.
  for (const auto& edge : versions[2].edges) {
    EXPECT_EQ(edge.latency, 1u);
  }
}

TEST(Versions, SerialGroupsSequentializeSharedLogic) {
  MiniCpu cpu;
  auto hs = cpu.hscan_config();
  Rcg rcg(cpu.n, &hs);
  auto v1 = make_version(rcg, VersionPolicy{"V1", true, true, false});
  // Data->ALow (5) and Data->AHigh (2) share the Data->IR edge, so the
  // serialized total is their sum.
  auto lo = v1.latency(cpu.data, cpu.alow);
  auto hi = v1.latency(cpu.data, cpu.ahigh);
  ASSERT_TRUE(lo && hi);
  EXPECT_EQ(v1.total_latency_from(cpu.data), *lo + *hi);
}

TEST(Versions, TransMuxFallbackCoversUnreachableOutput) {
  Netlist n("unreach");
  auto in = n.add_input("I", 8);
  auto out = n.add_output("O", 8);
  auto r = n.add_register("R", 8);
  n.connect(n.pin(in), n.reg_d(r));
  // Output driven only by an adder: no existing transparency path.
  auto add = n.add_fu("A", FuKind::kAdd, 8, 2);
  n.connect(n.reg_q(r), n.fu_in(add, 0));
  n.connect(n.pin(in), n.fu_in(add, 1));
  n.connect(n.fu_out(add), n.pin(out));

  Rcg rcg(n);
  auto version = make_version(rcg, VersionPolicy{"V1", true, true, false});
  auto latency = version.latency(in, out);
  ASSERT_TRUE(latency.has_value()) << "fallback mux must create the pair";
  EXPECT_EQ(*latency, 1u);
  EXPECT_GT(version.extra_cells, 0u);
}

TEST(Versions, ControlBypassIsCheap) {
  Netlist n("ctrl");
  auto in = n.add_input("GO", 1, rtl::PortKind::kControl);
  auto out = n.add_output("DONE", 1, rtl::PortKind::kControl);
  auto r = n.add_register("S", 1);
  n.connect(n.pin(in), n.reg_d(r));
  auto cloud = n.add_random_logic("FSM", 1, 1, 20, 5);
  n.connect(n.reg_q(r), n.fu_in(cloud, 0));
  n.connect(n.fu_out(cloud), n.pin(out));

  Rcg rcg(n);
  auto version = make_version(rcg, VersionPolicy{"V1", true, true, false});
  ASSERT_TRUE(version.latency(in, out).has_value());
  // A one-cell bypass plus its one-cell select driver, at most once per
  // direction; nothing width-proportional.
  EXPECT_LE(version.extra_cells, 4u);
}

TEST(Versions, DeterministicConstruction) {
  MiniCpu cpu;
  auto hs = cpu.hscan_config();
  Rcg rcg(cpu.n, &hs);
  auto a = standard_versions(rcg);
  auto b = standard_versions(rcg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].extra_cells, b[i].extra_cells);
    ASSERT_EQ(a[i].edges.size(), b[i].edges.size());
    for (std::size_t e = 0; e < a[i].edges.size(); ++e) {
      EXPECT_EQ(a[i].edges[e].latency, b[i].edges[e].latency);
    }
  }
}

}  // namespace
}  // namespace socet::transparency
