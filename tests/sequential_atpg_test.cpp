#include <gtest/gtest.h>

#include <set>

#include "socet/atpg/atpg.hpp"
#include "socet/atpg/sequential.hpp"
#include "socet/gate/sim.hpp"
#include "socet/obs/trace.hpp"
#include "socet/rtl/netlist.hpp"
#include "socet/synth/elaborate.hpp"

namespace socet::atpg {
namespace {

using faultsim::Fault;
using faultsim::FaultStatus;
using gate::GateId;
using gate::GateKind;
using gate::GateNetlist;

/// in -> DFF -> DFF -> PO (a 2-deep shift register): detecting faults at
/// the tail needs 3 time frames from reset.
GateNetlist make_shift2() {
  GateNetlist n("shift2");
  auto in = n.add_input("in");
  auto s1 = n.add_dff(in, "s1");
  auto s2 = n.add_dff(s1, "s2");
  auto po = n.add_gate(GateKind::kBuf, {s2}, "po");
  n.mark_output(po);
  return n;
}

// ------------------------------------------------------------------ unroll

TEST(Unroll, StructureAndSizes) {
  auto n = make_shift2();
  auto unrolled = unroll(n, 3);
  // 3 inputs (one per frame), POs marked per frame.
  EXPECT_EQ(unrolled.netlist.inputs().size(), 3u);
  EXPECT_EQ(unrolled.netlist.outputs().size(), 3u);
  EXPECT_EQ(unrolled.frames, 3u);
  EXPECT_NO_THROW(unrolled.netlist.topo_order());
}

TEST(Unroll, FrameSemanticsMatchSequentialSim) {
  // Simulate the unrolled circuit combinationally and the original
  // sequentially on the same 3-cycle stimulus; outputs must agree.
  auto n = make_shift2();
  auto unrolled = unroll(n, 3);

  const bool stimulus[3] = {true, false, true};
  std::vector<std::uint64_t> values(unrolled.netlist.gate_count(), 0);
  for (unsigned f = 0; f < 3; ++f) {
    values[unrolled.pi_map[f][0].index()] = stimulus[f] ? ~0ULL : 0;
  }
  gate::eval_comb(unrolled.netlist, values);

  gate::SequentialSim sim(n);
  sim.reset();
  for (unsigned f = 0; f < 3; ++f) {
    sim.step({stimulus[f] ? ~0ULL : 0});
    // Output of frame f = PO after cycle f... with post-edge semantics the
    // sequential sim's PO reads s2 *after* capture; the unrolled frame's
    // PO reads the pre-capture state.  Compare frame f+1's unrolled PO
    // against cycle f's post-edge value where both exist.
    if (f + 1 < 3) {
      const GateId po_next = unrolled.netlist.outputs()[f + 1];
      EXPECT_EQ(values[po_next.index()] & 1, sim.value(n.outputs()[0]) & 1)
          << "frame " << f;
    }
  }
}

TEST(Unroll, RejectsZeroFrames) {
  auto n = make_shift2();
  EXPECT_THROW(unroll(n, 0), util::Error);
}

TEST(MapFault, OneSitePerFrame) {
  auto n = make_shift2();
  auto unrolled = unroll(n, 4);
  // Stem fault on s2 must appear once per frame, each a distinct gate.
  const Fault fault{n.dffs()[1], -1, true};
  auto sites = map_fault(unrolled, fault);
  EXPECT_EQ(sites.size(), 4u);
  std::set<std::uint32_t> distinct;
  for (const auto& site : sites) distinct.insert(site.gate.value());
  EXPECT_EQ(distinct.size(), 4u);
}

// ---------------------------------------------------------- sequential ATPG

TEST(SequentialAtpg, FullCoverageOnShiftRegister) {
  auto n = make_shift2();
  auto result = sequential_atpg(n, {.max_frames = 4, .random_cycles = 0});
  EXPECT_DOUBLE_EQ(result.coverage().fault_coverage(), 100.0)
      << "every fault in a shift register is sequentially testable";
  EXPECT_FALSE(result.sequences.empty());
  for (const auto& sequence : result.sequences) {
    EXPECT_LE(sequence.size(), 4u);
    for (const auto& vec : sequence) EXPECT_EQ(vec.width(), 1u);
  }
}

TEST(SequentialAtpg, TracedRunRecordsItsSimulationUnderOneSpan) {
  // Sequential ATPG and every sequential fault simulation it runs are
  // spans, so a bench's stage extras account for them.
  auto n = make_shift2();
  obs::reset_trace();
  obs::set_trace_enabled(true);
  const auto result =
      sequential_atpg(n, {.max_frames = 4, .random_cycles = 0});
  obs::set_trace_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::collect_trace_events();
  obs::reset_trace();

  std::uint64_t root = 0;
  std::size_t roots = 0;
  for (const obs::TraceEvent& event : events) {
    if (event.name != "atpg/sequential") continue;
    root = event.id;
    ++roots;
  }
  ASSERT_EQ(roots, 1u);
  std::size_t runs = 0;
  for (const obs::TraceEvent& event : events) {
    if (event.name != "faultsim/seq_run") continue;
    ++runs;
    EXPECT_EQ(event.parent, root);
  }
  // With no random phase, each kept sequence was simulated once.
  EXPECT_EQ(runs, result.sequences.size());
  EXPECT_GT(runs, 0u);
}

TEST(SequentialAtpg, SequencesVerifiedBySimulator) {
  // The driver only keeps simulator-verified sequences; re-verify here.
  auto n = make_shift2();
  auto result = sequential_atpg(n, {.max_frames = 4, .random_cycles = 8});
  auto faults = faultsim::enumerate_faults(n);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  faultsim::SequentialFaultSim sim(n);
  for (const auto& sequence : result.sequences) {
    sim.run(faults, sequence, statuses);
  }
  EXPECT_EQ(faultsim::summarize(statuses).detected,
            result.coverage().detected);
}

TEST(SequentialAtpg, DeepCounterNeedsDeepFrames) {
  // A 3-bit counter with the PO on the top bit: exciting it requires
  // counting up — only reachable with enough frames.
  GateNetlist n("ctr3");
  auto en = n.add_input("en");
  std::vector<GateId> bits;
  GateId carry = en;
  for (int b = 0; b < 3; ++b) {
    auto d = n.add_dff_floating("b" + std::to_string(b));
    bits.push_back(d);
    auto x = n.add_gate(GateKind::kXor, {d, carry}, "x");
    auto c = n.add_gate(GateKind::kAnd, {d, carry}, "c");
    n.set_dff_input(d, x);
    carry = c;
  }
  auto po = n.add_gate(GateKind::kBuf, {bits[2]}, "po");
  n.mark_output(po);

  // The PO stuck-at-0 fault needs bit2 = 1, i.e. at least 4 enabled
  // cycles plus one to observe.
  const Fault target{po, -1, false};
  auto faults = faultsim::enumerate_faults(n);
  std::size_t target_index = faults.size();
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (faults[i] == target) target_index = i;
  }
  ASSERT_LT(target_index, faults.size());

  auto shallow = sequential_atpg(n, {.max_frames = 3, .random_cycles = 0});
  EXPECT_NE(shallow.statuses[target_index], FaultStatus::kDetected)
      << "3 frames cannot reach bit2=1";
  auto deep = sequential_atpg(n, {.max_frames = 8, .random_cycles = 0});
  EXPECT_EQ(deep.statuses[target_index], FaultStatus::kDetected);
}

TEST(SequentialAtpg, BeatsRandomOnStructuredLogic) {
  // A comparator against a specific constant: random vectors rarely hit
  // the magic value, deterministic frames do.
  rtl::Netlist core("magic");
  auto in = core.add_input("IN", 8);
  auto out = core.add_output("HIT", 1);
  auto r = core.add_register("R", 8, /*has_load_enable=*/false);
  auto eq = core.add_fu("EQ", rtl::FuKind::kEqual, 8, 2);
  auto k = core.add_constant("K", util::BitVector(8, 0xA7));
  core.connect(core.pin(in), core.reg_d(r));
  core.connect(core.reg_q(r), core.fu_in(eq, 0));
  core.connect(core.const_out(k), core.fu_in(eq, 1));
  core.connect(core.fu_out(eq), core.pin(out));
  auto elab = synth::elaborate(core);

  auto random_only = sequential_coverage(elab.gates, 16, 3);
  auto with_podem = sequential_atpg(
      elab.gates, {.max_frames = 3, .random_cycles = 16, .seed = 3});
  EXPECT_GT(with_podem.coverage().fault_coverage(),
            random_only.fault_coverage());
  EXPECT_GT(with_podem.coverage().fault_coverage(), 95.0);
}

TEST(SequentialAtpg, NoUntestableClaims) {
  auto n = make_shift2();
  // Add a genuinely redundant observation-free gate.
  auto dead = n.add_gate(GateKind::kNot, {n.inputs()[0]}, "dead");
  (void)dead;
  auto result = sequential_atpg(n, {.max_frames = 2, .random_cycles = 4});
  for (auto status : result.statuses) {
    EXPECT_NE(status, FaultStatus::kUntestable)
        << "bounded unrolling must not claim redundancy";
  }
}

}  // namespace
}  // namespace socet::atpg
