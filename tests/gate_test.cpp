#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "socet/gate/flat.hpp"
#include "socet/gate/netlist.hpp"
#include "socet/gate/sim.hpp"
#include "socet/util/error.hpp"

namespace socet::gate {
namespace {

using util::Error;

// --------------------------------------------------------------- building

TEST(GateNetlist, ArityChecks) {
  GateNetlist n("t");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  EXPECT_NO_THROW(n.add_gate(GateKind::kAnd, {a, b}));
  EXPECT_NO_THROW(n.add_gate(GateKind::kAnd, {a, b, a}));
  EXPECT_THROW(n.add_gate(GateKind::kAnd, {a}), Error);
  EXPECT_THROW(n.add_gate(GateKind::kNot, {a, b}), Error);
  EXPECT_THROW(n.add_gate(GateKind::kXor, {a, b, a}), Error);
  EXPECT_THROW(n.add_gate(GateKind::kInput, {}), Error);
  EXPECT_THROW(n.add_gate(GateKind::kDff, {a}), Error);
}

TEST(GateNetlist, DanglingFaninRejected) {
  GateNetlist n("t");
  auto a = n.add_input("a");
  EXPECT_THROW(n.add_gate(GateKind::kNot, {GateId(99)}), Error);
  EXPECT_THROW(n.add_dff(GateId(99)), Error);
  EXPECT_NO_THROW(n.add_dff(a));
}

TEST(GateNetlist, CellCountExcludesInputsAndConstants) {
  GateNetlist n("t");
  auto a = n.add_input("a");
  n.add_gate(GateKind::kConst0, {});
  auto g1 = n.add_gate(GateKind::kNot, {a});
  n.add_dff(g1);
  EXPECT_EQ(n.cell_count(), 2u);  // NOT + DFF
}

TEST(GateNetlist, AreaUsesLibraryWeights) {
  GateNetlist n("t");
  auto a = n.add_input("a");
  auto g1 = n.add_gate(GateKind::kNot, {a});
  n.add_dff(g1);
  CellLibrary lib;
  lib.gate_area = 1.0;
  lib.dff_area = 4.0;
  EXPECT_DOUBLE_EQ(n.area(lib), 5.0);
}

TEST(GateNetlist, TopoOrderRespectsDependencies) {
  GateNetlist n("t");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto x = n.add_gate(GateKind::kAnd, {a, b});
  auto y = n.add_gate(GateKind::kOr, {x, a});
  const auto& order = n.topo_order();
  auto pos = [&](GateId id) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == id) return i;
    }
    return order.size();
  };
  EXPECT_LT(pos(a), pos(x));
  EXPECT_LT(pos(b), pos(x));
  EXPECT_LT(pos(x), pos(y));
}

TEST(GateNetlist, DffBreaksCycle) {
  GateNetlist n("t");
  auto dff = n.add_dff_floating("s");
  auto inv = n.add_gate(GateKind::kNot, {dff});
  n.set_dff_input(dff, inv);  // toggle flip-flop
  EXPECT_NO_THROW(n.topo_order());
}

TEST(GateNetlist, CombinationalCycleDetected) {
  GateNetlist n("t");
  auto a = n.add_input("a");
  auto dff = n.add_dff_floating("s");  // placeholder source
  auto g1 = n.add_gate(GateKind::kAnd, {a, dff});
  n.set_dff_input(dff, g1);
  // Now create a true combinational loop via two ORs.
  GateNetlist m("cyc");
  auto i = m.add_input("i");
  auto d = m.add_dff_floating("d");
  auto o1 = m.add_gate(GateKind::kOr, {i, d});
  m.set_dff_input(d, o1);
  EXPECT_NO_THROW(m.topo_order());
}

TEST(GateNetlist, FloatingDffRejectedAtTopo) {
  GateNetlist n("t");
  n.add_input("a");
  n.add_dff_floating("s");
  EXPECT_THROW(n.topo_order(), Error);
}

TEST(GateNetlist, SetDffInputTwiceRejected) {
  GateNetlist n("t");
  auto a = n.add_input("a");
  auto d = n.add_dff_floating("s");
  n.set_dff_input(d, a);
  EXPECT_THROW(n.set_dff_input(d, a), Error);
}

// ------------------------------------------------------------- simulation

TEST(EvalComb, TruthTablesOfAllGates) {
  GateNetlist n("t");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto g_and = n.add_gate(GateKind::kAnd, {a, b});
  auto g_or = n.add_gate(GateKind::kOr, {a, b});
  auto g_nand = n.add_gate(GateKind::kNand, {a, b});
  auto g_nor = n.add_gate(GateKind::kNor, {a, b});
  auto g_xor = n.add_gate(GateKind::kXor, {a, b});
  auto g_xnor = n.add_gate(GateKind::kXnor, {a, b});
  auto g_not = n.add_gate(GateKind::kNot, {a});
  auto g_buf = n.add_gate(GateKind::kBuf, {a});
  auto g_c0 = n.add_gate(GateKind::kConst0, {});
  auto g_c1 = n.add_gate(GateKind::kConst1, {});

  std::vector<std::uint64_t> v(n.gate_count(), 0);
  // Four patterns in bits 0..3: (a,b) = 00, 01, 10, 11.
  v[a.index()] = 0b1100;
  v[b.index()] = 0b1010;
  eval_comb(n, v);
  const std::uint64_t mask = 0xF;
  EXPECT_EQ(v[g_and.index()] & mask, 0b1000u);
  EXPECT_EQ(v[g_or.index()] & mask, 0b1110u);
  EXPECT_EQ(v[g_nand.index()] & mask, 0b0111u);
  EXPECT_EQ(v[g_nor.index()] & mask, 0b0001u);
  EXPECT_EQ(v[g_xor.index()] & mask, 0b0110u);
  EXPECT_EQ(v[g_xnor.index()] & mask, 0b1001u);
  EXPECT_EQ(v[g_not.index()] & mask, 0b0011u);
  EXPECT_EQ(v[g_buf.index()] & mask, 0b1100u);
  EXPECT_EQ(v[g_c0.index()] & mask, 0b0000u);
  EXPECT_EQ(v[g_c1.index()] & mask, 0b1111u);
}

TEST(EvalComb, NaryGates) {
  GateNetlist n("t");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto c = n.add_input("c");
  auto g3 = n.add_gate(GateKind::kAnd, {a, b, c});
  std::vector<std::uint64_t> v(n.gate_count(), 0);
  v[a.index()] = 0b1111'0000;
  v[b.index()] = 0b1100'1100;
  v[c.index()] = 0b1010'1010;
  eval_comb(n, v);
  EXPECT_EQ(v[g3.index()] & 0xFF, 0b1000'0000u);
}

TEST(EvalComb, SizeMismatchThrows) {
  GateNetlist n("t");
  n.add_input("a");
  std::vector<std::uint64_t> v(5, 0);
  EXPECT_THROW(eval_comb(n, v), Error);
}

TEST(SequentialSim, ToggleFlipFlop) {
  GateNetlist n("t");
  auto d = n.add_dff_floating("s");
  auto inv = n.add_gate(GateKind::kNot, {d});
  n.set_dff_input(d, inv);
  n.mark_output(d);

  SequentialSim sim(n);
  sim.reset();
  sim.step({});  // captures NOT(0): post-edge Q = 1
  EXPECT_EQ(sim.value(d), ~0ULL);
  sim.step({});
  EXPECT_EQ(sim.value(d), 0u);
  sim.step({});
  EXPECT_EQ(sim.value(d), ~0ULL);
}

TEST(SequentialSim, TwoBitCounter) {
  GateNetlist n("counter");
  auto b0 = n.add_dff_floating("b0");
  auto b1 = n.add_dff_floating("b1");
  auto n0 = n.add_gate(GateKind::kNot, {b0});
  auto x1 = n.add_gate(GateKind::kXor, {b1, b0});
  n.set_dff_input(b0, n0);
  n.set_dff_input(b1, x1);

  SequentialSim sim(n);
  sim.reset();
  std::uint64_t expected[] = {1, 2, 3, 0, 1, 2};
  for (std::uint64_t e : expected) {
    sim.step({});
    const std::uint64_t got =
        (sim.value(b0) & 1) | ((sim.value(b1) & 1) << 1);
    EXPECT_EQ(got, e);
  }
}

TEST(SequentialSim, ParallelRunsIndependent) {
  GateNetlist n("t");
  auto in = n.add_input("in");
  auto d = n.add_dff_floating("s");
  auto x = n.add_gate(GateKind::kXor, {d, in});
  n.set_dff_input(d, x);

  SequentialSim sim(n);
  sim.reset();
  // Run 0 always feeds 1, run 1 always feeds 0.
  for (int i = 0; i < 3; ++i) sim.step({0b01});
  // After 3 cycles: run0 state toggled 3 times, run1 never.
  sim.step({0});
  EXPECT_EQ(sim.value(d) & 0b11, 0b01u);
}

TEST(SequentialSim, WrongInputCountThrows) {
  GateNetlist n("t");
  n.add_input("a");
  SequentialSim sim(n);
  EXPECT_THROW(sim.step({}), Error);
}

// ------------------------------------------------------------ slot queue

/// Input a, then `length` inverters in a row: slot k is the k-th
/// inverter (slot 0 is a), and each gate's only reader is the next one.
GateNetlist make_chain(int length) {
  GateNetlist n("chain");
  GateId prev = n.add_input("a");
  for (int i = 0; i < length; ++i) {
    prev = n.add_gate(GateKind::kNot, {prev}, "n" + std::to_string(i));
  }
  n.mark_output(prev);
  return n;
}

/// Every slot one drain of `queue` visits, in visit order.
template <typename Visit>
std::vector<std::uint32_t> drained(SlotQueue& queue, Visit visit) {
  std::vector<std::uint32_t> seen;
  queue.drain([&](std::uint32_t slot) {
    seen.push_back(slot);
    return visit(slot);
  });
  return seen;
}

TEST(SlotQueue, DrainsInAscendingOrderAcrossWordsAndAtTheLastSlot) {
  const GateNetlist n = make_chain(199);
  const FlatNetlist flat(n);
  ASSERT_EQ(flat.slot_count(), 200u);
  SlotQueue queue(flat);
  for (const std::uint32_t slot : {199u, 64u, 0u, 63u, 128u, 127u, 64u, 65u}) {
    queue.push(slot);
  }
  const auto all = [](std::uint32_t) { return true; };
  EXPECT_EQ(drained(queue, all),
            (std::vector<std::uint32_t>{0, 63, 64, 65, 127, 128, 199}));
  EXPECT_TRUE(drained(queue, all).empty());
}

TEST(SlotQueue, SlotsPushedDuringADrainAreVisitedInThatDrain) {
  // Waking each visited gate's reader walks the whole chain in one
  // drain, within a word and across both word boundaries.
  const GateNetlist n = make_chain(199);
  const FlatNetlist flat(n);
  SlotQueue queue(flat);
  queue.push_fanouts(0);
  const auto seen = drained(queue, [&](std::uint32_t slot) {
    queue.push_fanouts(slot);
    return true;
  });
  std::vector<std::uint32_t> expected;
  for (std::uint32_t slot = 1; slot < 200; ++slot) expected.push_back(slot);
  EXPECT_EQ(seen, expected);
}

TEST(SlotQueue, AStoppedDrainKeepsOnlyTheSlotsPushedSince) {
  const GateNetlist n = make_chain(199);
  const FlatNetlist flat(n);
  SlotQueue queue(flat);
  for (const std::uint32_t slot : {3u, 10u, 130u}) queue.push(slot);
  EXPECT_EQ(drained(queue, [](std::uint32_t) { return false; }),
            (std::vector<std::uint32_t>{3}));
  // 10 and 130 were dropped with the stopped drain; the next drain's
  // range covers their words but must not find them.
  queue.push(1);
  queue.push(199);
  EXPECT_EQ(drained(queue, [](std::uint32_t) { return true; }),
            (std::vector<std::uint32_t>{1, 199}));
}

}  // namespace
}  // namespace socet::gate
