#include <gtest/gtest.h>

#include "socet/faultsim/faults.hpp"
#include "socet/faultsim/scan_sim.hpp"
#include "socet/faultsim/seq_sim.hpp"
#include "socet/util/rng.hpp"

namespace socet::faultsim {
namespace {

using gate::GateId;
using gate::GateKind;
using gate::GateNetlist;
using util::BitVector;

/// a AND b -> z, all observable.
GateNetlist make_and2() {
  GateNetlist n("and2");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto z = n.add_gate(GateKind::kAnd, {a, b}, "z");
  n.mark_output(z);
  return n;
}

ScanPattern pat2(bool a, bool b) {
  ScanPattern p;
  p.pi = BitVector(2);
  p.pi.set(0, a);
  p.pi.set(1, b);
  p.ppi = BitVector(0);
  return p;
}

// ------------------------------------------------------------- fault lists

TEST(Faults, UncollapsedUniverseCountsAllPins) {
  auto n = make_and2();
  auto faults = enumerate_faults(n, /*collapse=*/false);
  // Stems: a, b, z (2 each) + 2 input pins of z (2 each) = 10.
  EXPECT_EQ(faults.size(), 10u);
}

TEST(Faults, CollapseRemovesControllingInputFaults) {
  auto n = make_and2();
  auto faults = enumerate_faults(n, /*collapse=*/true);
  // Collapsed: stems (6) + input s-a-1 on each AND pin (2) = 8.
  EXPECT_EQ(faults.size(), 8u);
  for (const auto& f : faults) {
    if (f.pin >= 0) {
      EXPECT_TRUE(f.stuck_at) << "AND input s-a-0 must collapse";
    }
  }
}

TEST(Faults, ConstantsCarryNoFaults) {
  GateNetlist n("c");
  auto c0 = n.add_gate(GateKind::kConst0, {});
  auto b = n.add_gate(GateKind::kBuf, {c0}, "z");
  n.mark_output(b);
  auto faults = enumerate_faults(n);
  for (const auto& f : faults) {
    EXPECT_NE(f.gate, c0);
  }
}

TEST(Faults, DescribeFormats) {
  auto n = make_and2();
  EXPECT_EQ(describe_fault(n, Fault{GateId(2), -1, true}), "z s-a-1");
  EXPECT_EQ(describe_fault(n, Fault{GateId(2), 1, false}), "z/in1 s-a-0");
}

TEST(Faults, SummaryMath) {
  std::vector<FaultStatus> s{FaultStatus::kDetected, FaultStatus::kDetected,
                             FaultStatus::kUntestable, FaultStatus::kUndetected,
                             FaultStatus::kAborted};
  auto sum = summarize(s);
  EXPECT_EQ(sum.total, 5u);
  EXPECT_EQ(sum.detected, 2u);
  EXPECT_EQ(sum.untestable, 1u);
  EXPECT_EQ(sum.aborted, 1u);
  EXPECT_DOUBLE_EQ(sum.fault_coverage(), 40.0);
  EXPECT_DOUBLE_EQ(sum.test_efficiency(), 60.0);
}

// --------------------------------------------------------------- scan sim

TEST(ScanSim, ExhaustivePatternsDetectAllAnd2Faults) {
  auto n = make_and2();
  auto faults = enumerate_faults(n);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  std::vector<ScanPattern> patterns{pat2(0, 0), pat2(0, 1), pat2(1, 0),
                                    pat2(1, 1)};
  ScanFaultSim sim(n);
  sim.run(faults, patterns, statuses);
  EXPECT_DOUBLE_EQ(summarize(statuses).fault_coverage(), 100.0);
}

TEST(ScanSim, SinglePatternDetectsOnlyItsFaults) {
  auto n = make_and2();
  auto faults = enumerate_faults(n);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  ScanFaultSim sim(n);
  // Pattern 11 detects z s-a-0, a s-a-0, b s-a-0 (all make output flip).
  sim.run(faults, {pat2(1, 1)}, statuses);
  auto sum = summarize(statuses);
  EXPECT_EQ(sum.detected, 3u);
}

TEST(ScanSim, RespectsExistingStatuses) {
  auto n = make_and2();
  auto faults = enumerate_faults(n);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUntestable);
  ScanFaultSim sim(n);
  sim.run(faults, {pat2(1, 1)}, statuses);
  for (auto s : statuses) EXPECT_EQ(s, FaultStatus::kUntestable);
}

TEST(ScanSim, ObservesFaultsAtFlipFlopDPins) {
  // a -> AND(a, q) -> DFF, no PO at all: detection must come via the PPO.
  GateNetlist n("ff");
  auto a = n.add_input("a");
  auto d = n.add_dff_floating("q");
  auto g = n.add_gate(GateKind::kAnd, {a, d}, "g");
  n.set_dff_input(d, g);

  auto faults = enumerate_faults(n);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  ScanFaultSim sim(n);
  ScanPattern p;
  p.pi = BitVector(1, 1);
  p.ppi = BitVector(1, 1);
  sim.run(faults, {p}, statuses);
  EXPECT_GT(summarize(statuses).detected, 0u);
}

TEST(ScanSim, RedundantFaultNeverDetected) {
  // z = a OR (a AND b): the AND's effect is masked when a=1, so the AND
  // output s-a-0 is undetectable.
  GateNetlist n("red");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto g1 = n.add_gate(GateKind::kAnd, {a, b}, "g1");
  auto z = n.add_gate(GateKind::kOr, {a, g1}, "z");
  n.mark_output(z);

  std::vector<Fault> faults{{g1, -1, false}};
  std::vector<FaultStatus> statuses{FaultStatus::kUndetected};
  std::vector<ScanPattern> patterns;
  for (unsigned v = 0; v < 4; ++v) patterns.push_back(pat2(v & 1, v >> 1));
  ScanFaultSim sim(n);
  sim.run(faults, patterns, statuses);
  EXPECT_EQ(statuses[0], FaultStatus::kUndetected);
}

TEST(ScanSim, ManyPatternsAcrossBlockBoundary) {
  auto n = make_and2();
  auto faults = enumerate_faults(n);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  // 100 useless patterns then the 4 exhaustive ones: forces 2 blocks.
  std::vector<ScanPattern> patterns(100, pat2(0, 0));
  patterns.push_back(pat2(0, 1));
  patterns.push_back(pat2(1, 0));
  patterns.push_back(pat2(1, 1));
  ScanFaultSim sim(n);
  sim.run(faults, patterns, statuses);
  EXPECT_DOUBLE_EQ(summarize(statuses).fault_coverage(), 100.0);
}

// --------------------------------------------------------------- seq sim

TEST(SeqSim, DetectsFaultsInToggleCounter) {
  // DFF toggling via NOT, observed at a PO buffer.
  GateNetlist n("tog");
  auto d = n.add_dff_floating("q");
  auto inv = n.add_gate(GateKind::kNot, {d}, "inv");
  n.set_dff_input(d, inv);
  auto po = n.add_gate(GateKind::kBuf, {d}, "po");
  n.mark_output(po);

  auto faults = enumerate_faults(n);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  SequentialFaultSim sim(n);
  std::vector<BitVector> sequence(4, BitVector(0));
  sim.run(faults, sequence, statuses);
  // Every stem fault in this tiny loop is detectable within 4 cycles.
  EXPECT_DOUBLE_EQ(summarize(statuses).fault_coverage(), 100.0);
}

TEST(SeqSim, UnobservableLogicStaysUndetected) {
  GateNetlist n("dead");
  auto a = n.add_input("a");
  auto dead = n.add_gate(GateKind::kNot, {a}, "dead");  // feeds nothing
  auto live = n.add_gate(GateKind::kBuf, {a}, "live");
  n.mark_output(live);
  (void)dead;

  auto faults = enumerate_faults(n);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  SequentialFaultSim sim(n);
  std::vector<BitVector> sequence{BitVector(1, 0), BitVector(1, 1)};
  sim.run(faults, sequence, statuses);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const bool on_dead = faults[i].gate.value() == 1;
    EXPECT_EQ(statuses[i] == FaultStatus::kDetected, !on_dead)
        << describe_fault(n, faults[i]);
  }
}

TEST(SeqSim, AgreesWithScanSimOnCombinationalCircuit) {
  // For a purely combinational circuit, sequential simulation of the same
  // vectors must detect exactly the same faults as scan simulation.
  GateNetlist n("c17ish");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto c = n.add_input("c");
  auto g1 = n.add_gate(GateKind::kNand, {a, b}, "g1");
  auto g2 = n.add_gate(GateKind::kNand, {b, c}, "g2");
  auto g3 = n.add_gate(GateKind::kNand, {g1, g2}, "g3");
  auto g4 = n.add_gate(GateKind::kXor, {g1, c}, "g4");
  n.mark_output(g3);
  n.mark_output(g4);

  auto faults = enumerate_faults(n);
  std::vector<FaultStatus> scan_status(faults.size(),
                                       FaultStatus::kUndetected);
  std::vector<FaultStatus> seq_status(faults.size(),
                                      FaultStatus::kUndetected);

  std::vector<ScanPattern> patterns;
  std::vector<BitVector> sequence;
  for (unsigned v = 0; v < 8; ++v) {
    ScanPattern p;
    p.pi = BitVector(3, v);
    p.ppi = BitVector(0);
    patterns.push_back(p);
    sequence.push_back(BitVector(3, v));
  }
  ScanFaultSim scan(n);
  scan.run(faults, patterns, scan_status);
  SequentialFaultSim seq(n);
  seq.run(faults, sequence, seq_status);
  EXPECT_EQ(scan_status, seq_status);
}

TEST(SeqSim, LargeFaultCountSpansGroups) {
  // Chain of 70 inverters: > 63 fault sites forces multiple passes.
  GateNetlist n("chain");
  auto a = n.add_input("a");
  GateId prev = a;
  for (int i = 0; i < 70; ++i) {
    prev = n.add_gate(GateKind::kNot, {prev}, "n" + std::to_string(i));
  }
  n.mark_output(prev);

  auto faults = enumerate_faults(n);
  EXPECT_GT(faults.size(), 63u);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  SequentialFaultSim sim(n);
  std::vector<BitVector> sequence{BitVector(1, 0), BitVector(1, 1)};
  sim.run(faults, sequence, statuses);
  EXPECT_DOUBLE_EQ(summarize(statuses).fault_coverage(), 100.0);
}

}  // namespace
}  // namespace socet::faultsim
