#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "socet/atpg/atpg.hpp"
#include "socet/atpg/podem.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/trace.hpp"
#include "socet/rtl/netlist.hpp"
#include "socet/synth/elaborate.hpp"
#include "socet/util/error.hpp"

namespace socet::atpg {
namespace {

using faultsim::Fault;
using faultsim::FaultStatus;
using gate::GateId;
using gate::GateKind;
using gate::GateNetlist;

// ------------------------------------------------------------------ PODEM

TEST(Podem, GeneratesTestForAndOutputFault) {
  GateNetlist n("and2");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto z = n.add_gate(GateKind::kAnd, {a, b}, "z");
  n.mark_output(z);

  Podem podem(n);
  auto r = podem.run(Fault{z, -1, false});
  ASSERT_EQ(r.outcome, PodemResult::Outcome::kFound);
  // s-a-0 at an AND output needs both inputs at 1.
  EXPECT_TRUE(r.pattern.pi.get(0));
  EXPECT_TRUE(r.pattern.pi.get(1));
}

TEST(Podem, GeneratesTestThroughReconvergence) {
  // z = (a AND b) OR (a AND c): test b-path fault with c blocking.
  GateNetlist n("rc");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto c = n.add_input("c");
  auto g1 = n.add_gate(GateKind::kAnd, {a, b}, "g1");
  auto g2 = n.add_gate(GateKind::kAnd, {a, c}, "g2");
  auto z = n.add_gate(GateKind::kOr, {g1, g2}, "z");
  n.mark_output(z);

  Podem podem(n);
  auto r = podem.run(Fault{g1, -1, false});
  ASSERT_EQ(r.outcome, PodemResult::Outcome::kFound);
  // Needs a=b=1 (activate) and c=0 (propagate past g2).
  EXPECT_TRUE(r.pattern.pi.get(0));
  EXPECT_TRUE(r.pattern.pi.get(1));
  EXPECT_FALSE(r.pattern.pi.get(2));
}

TEST(Podem, ProvesRedundantFaultUntestable) {
  // z = a OR (a AND b): AND output s-a-0 is redundant.
  GateNetlist n("red");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto g1 = n.add_gate(GateKind::kAnd, {a, b}, "g1");
  auto z = n.add_gate(GateKind::kOr, {a, g1}, "z");
  n.mark_output(z);

  Podem podem(n);
  auto r = podem.run(Fault{g1, -1, false});
  EXPECT_EQ(r.outcome, PodemResult::Outcome::kUntestable);
}

TEST(Podem, InputPinFault) {
  GateNetlist n("pin");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto z = n.add_gate(GateKind::kXor, {a, b}, "z");
  n.mark_output(z);

  Podem podem(n);
  auto r = podem.run(Fault{z, 0, true});  // pin a of XOR stuck at 1
  ASSERT_EQ(r.outcome, PodemResult::Outcome::kFound);
  EXPECT_FALSE(r.pattern.pi.get(0));  // a must be 0 to excite
}

TEST(Podem, PinFaultOnInputRaises) {
  // Inputs have no pins: PODEM used to read the fault's excitation line
  // past the end of the input's (empty) fanin vector.
  GateNetlist n("inpin");
  auto a = n.add_input("a");
  auto z = n.add_gate(GateKind::kBuf, {a}, "z");
  n.mark_output(z);

  Podem podem(n);
  try {
    podem.run(Fault{a, 0, true});
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("pin fault on gate 'a'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Podem, UsesScanStateAsPseudoInputs) {
  // Output only depends on flip-flop contents: PODEM must assign the PPI.
  GateNetlist n("ff");
  auto d = n.add_dff_floating("q");
  auto a = n.add_input("a");
  auto z = n.add_gate(GateKind::kAnd, {a, d}, "z");
  n.set_dff_input(d, z);
  n.mark_output(z);

  Podem podem(n);
  auto r = podem.run(Fault{z, -1, false});
  ASSERT_EQ(r.outcome, PodemResult::Outcome::kFound);
  EXPECT_TRUE(r.pattern.pi.get(0));
  EXPECT_TRUE(r.pattern.ppi.get(0));
}

TEST(Podem, ObservesAtFlipFlopDPin) {
  // Fault cone ends at a DFF only (no PO): must still be testable.
  GateNetlist n("ppo");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto g = n.add_gate(GateKind::kOr, {a, b}, "g");
  auto d = n.add_dff_floating("q");
  n.set_dff_input(d, g);

  Podem podem(n);
  auto r = podem.run(Fault{g, -1, true});
  ASSERT_EQ(r.outcome, PodemResult::Outcome::kFound);
  EXPECT_FALSE(r.pattern.pi.get(0));
  EXPECT_FALSE(r.pattern.pi.get(1));
}

TEST(Podem, XorChainParityCircuit) {
  GateNetlist n("parity");
  std::vector<GateId> ins;
  for (int i = 0; i < 6; ++i) ins.push_back(n.add_input("i"));
  GateId acc = ins[0];
  for (int i = 1; i < 6; ++i) {
    acc = n.add_gate(GateKind::kXor, {acc, ins[i]}, "x");
  }
  n.mark_output(acc);

  Podem podem(n);
  for (const Fault f : {Fault{acc, -1, false}, Fault{ins[3], -1, true}}) {
    auto r = podem.run(f);
    EXPECT_EQ(r.outcome, PodemResult::Outcome::kFound)
        << describe_fault(n, f);
  }
}

TEST(Podem, ImplicationEvaluatesOnlyTheGatesItsEventsReach) {
  // z = AND(a, b) beside an unrelated 40-gate chain.  The test for z
  // s-a-0 takes three implications (the fault, then a = 1, then b = 1),
  // and each re-evaluates z alone; a full sweep would evaluate all 41
  // gates every time.
  GateNetlist n("apart");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto z = n.add_gate(GateKind::kAnd, {a, b}, "z");
  n.mark_output(z);
  GateId chain = n.add_input("c");
  for (int i = 0; i < 40; ++i) {
    chain = n.add_gate(GateKind::kNot, {chain}, "n" + std::to_string(i));
  }
  n.mark_output(chain);

  Podem podem(n);
  obs::set_metrics_enabled(true);
  const std::uint64_t before = obs::counter("atpg/implied_gates").value();
  const auto r = podem.run(Fault{z, -1, false});
  const std::uint64_t implied =
      obs::counter("atpg/implied_gates").value() - before;
  obs::set_metrics_enabled(false);
  ASSERT_EQ(r.outcome, PodemResult::Outcome::kFound);
  EXPECT_EQ(implied, 3u);
}

// ------------------------------------------------------------- ATPG driver

TEST(Atpg, FullCoverageOnIrredundantCircuit) {
  GateNetlist n("c");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto c = n.add_input("c");
  auto g1 = n.add_gate(GateKind::kNand, {a, b}, "g1");
  auto g2 = n.add_gate(GateKind::kNor, {b, c}, "g2");
  auto z = n.add_gate(GateKind::kXor, {g1, g2}, "z");
  n.mark_output(z);

  auto result = generate_tests(n, {.random_patterns = 8, .seed = 3});
  auto cov = result.coverage();
  EXPECT_DOUBLE_EQ(cov.fault_coverage(), 100.0);
  EXPECT_DOUBLE_EQ(cov.test_efficiency(), 100.0);
  EXPECT_GT(result.vector_count(), 0u);
}

TEST(Atpg, RedundantFaultRaisesEfficiencyNotCoverage) {
  GateNetlist n("red");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto g1 = n.add_gate(GateKind::kAnd, {a, b}, "g1");
  auto z = n.add_gate(GateKind::kOr, {a, g1}, "z");
  n.mark_output(z);

  auto result = generate_tests(n, {.random_patterns = 8, .seed = 3});
  auto cov = result.coverage();
  EXPECT_LT(cov.fault_coverage(), 100.0);
  EXPECT_DOUBLE_EQ(cov.test_efficiency(), 100.0);
  EXPECT_GT(cov.untestable, 0u);
}

TEST(Atpg, GradePatternsMatchesGeneratedCoverage) {
  GateNetlist n("c");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto z = n.add_gate(GateKind::kXor, {a, b}, "z");
  n.mark_output(z);

  auto result = generate_tests(n, {.random_patterns = 4, .seed = 9});
  auto graded = grade_patterns(n, result.patterns);
  EXPECT_EQ(graded.detected, result.coverage().detected);
}

TEST(Atpg, ElaboratedRtlCoreReachesHighCoverage) {
  // A small datapath core: register + adder + mux, full-scan view.
  rtl::Netlist core("mini");
  auto in = core.add_input("IN", 4);
  auto out = core.add_output("OUT", 4);
  auto acc = core.add_register("ACC", 4);
  auto ld = core.add_input("LD", 1, rtl::PortKind::kControl);
  auto add = core.add_fu("ADD", rtl::FuKind::kAdd, 4, 2);
  auto m = core.add_mux("M", 4, 2);
  auto sel = core.add_input("SEL", 1, rtl::PortKind::kControl);
  core.connect(core.pin(in), core.fu_in(add, 0));
  core.connect(core.reg_q(acc), core.fu_in(add, 1));
  core.connect(core.fu_out(add), core.mux_in(m, 0));
  core.connect(core.pin(in), core.mux_in(m, 1));
  core.connect(core.pin(sel), core.mux_select(m));
  core.connect(core.mux_out(m), core.reg_d(acc));
  core.connect(core.pin(ld), core.reg_load(acc));
  core.connect(core.reg_q(acc), core.pin(out));
  core.validate();

  auto elab = synth::elaborate(core);
  auto result = generate_tests(elab.gates, {.random_patterns = 32, .seed = 1});
  auto cov = result.coverage();
  EXPECT_GT(cov.fault_coverage(), 95.0);
  EXPECT_GT(cov.test_efficiency(), 99.0);
}

TEST(Atpg, DeterministicAcrossRuns) {
  GateNetlist n("c");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto z = n.add_gate(GateKind::kNand, {a, b}, "z");
  n.mark_output(z);
  auto r1 = generate_tests(n, {.seed = 5});
  auto r2 = generate_tests(n, {.seed = 5});
  EXPECT_EQ(r1.vector_count(), r2.vector_count());
  for (std::size_t i = 0; i < r1.patterns.size(); ++i) {
    EXPECT_EQ(r1.patterns[i].pi, r2.patterns[i].pi);
  }
}

TEST(Atpg, TracedRunRecordsEachPhaseAsAChildOfGenerateTests) {
  // Spans answer "where did the ATPG time go": each phase is a child of
  // atpg/generate_tests, and the fault simulation it runs nests under
  // the phase, so per-phase self time needs no sampling profiler.
  GateNetlist n("c");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto c = n.add_input("c");
  auto g1 = n.add_gate(GateKind::kNand, {a, b}, "g1");
  auto g2 = n.add_gate(GateKind::kNor, {b, c}, "g2");
  auto z = n.add_gate(GateKind::kXor, {g1, g2}, "z");
  n.mark_output(z);

  obs::reset_trace();
  obs::set_trace_enabled(true);
  generate_tests(n, {.random_patterns = 8, .seed = 3});
  obs::set_trace_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::collect_trace_events();
  obs::reset_trace();

  std::uint64_t root = 0;
  for (const obs::TraceEvent& event : events) {
    if (event.name == "atpg/generate_tests") root = event.id;
  }
  ASSERT_NE(root, 0u);
  std::vector<std::uint64_t> phases;
  for (const char* phase : {"atpg/random_phase", "atpg/podem_fast",
                            "atpg/podem_patient", "atpg/regrade"}) {
    std::size_t seen = 0;
    for (const obs::TraceEvent& event : events) {
      if (event.name != phase) continue;
      ++seen;
      EXPECT_EQ(event.parent, root) << phase;
      phases.push_back(event.id);
    }
    EXPECT_EQ(seen, 1u) << phase;
  }
  std::size_t scan_runs = 0;
  for (const obs::TraceEvent& event : events) {
    if (event.name != "faultsim/scan_run") continue;
    ++scan_runs;
    EXPECT_NE(std::find(phases.begin(), phases.end(), event.parent),
              phases.end());
  }
  EXPECT_GT(scan_runs, 0u);
}

// --------------------------------------------------- sequential baselines

TEST(Atpg, SequentialCoverageIsLowWithoutDft) {
  // Deep counter: random functional vectors reach little of the state
  // space, so coverage stays far below scan-based testing.
  rtl::Netlist core("ctr");
  auto en = core.add_input("EN", 1, rtl::PortKind::kControl);
  auto out = core.add_output("OUT", 1);
  auto cnt = core.add_register("CNT", 12);
  auto inc = core.add_fu("INC", rtl::FuKind::kIncrement, 12, 1);
  auto top = core.add_fu("TOP", rtl::FuKind::kEqual, 12, 2);
  auto k = core.add_constant("KMAX", util::BitVector(12, 0xFFF));
  core.connect(core.reg_q(cnt), core.fu_in(inc, 0));
  core.connect(core.fu_out(inc), core.reg_d(cnt));
  core.connect(core.pin(en), core.reg_load(cnt));
  core.connect(core.reg_q(cnt), core.fu_in(top, 0));
  core.connect(core.const_out(k), core.fu_in(top, 1));
  core.connect(core.fu_out(top), core.pin(out));

  auto elab = synth::elaborate(core);
  auto seq = sequential_coverage(elab.gates, 64, 7);
  auto scan = generate_tests(elab.gates, {.random_patterns = 32}).coverage();
  EXPECT_LT(seq.fault_coverage(), scan.fault_coverage());
  EXPECT_LT(seq.fault_coverage(), 60.0);
}

TEST(Atpg, RandomSequenceShapeAndDeterminism) {
  GateNetlist n("c");
  n.add_input("a");
  n.add_input("b");
  auto s1 = random_sequence(n, 10, 3);
  auto s2 = random_sequence(n, 10, 3);
  ASSERT_EQ(s1.size(), 10u);
  EXPECT_EQ(s1[0].width(), 2u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(s1[i], s2[i]);
}

}  // namespace
}  // namespace socet::atpg
