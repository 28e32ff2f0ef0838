// Tests for the scan fault-simulation kernel (scan_sim.hpp) at every
// lane width, its 64-bit scratch stamps, and the sequential simulator's
// lane kernel and pin-fault handling, all against naive one-pattern,
// one-fault oracles that do not share the library's gate evaluator.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "socet/faultsim/faults.hpp"
#include "socet/faultsim/scan_sim.hpp"
#include "socet/faultsim/seq_sim.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/util/error.hpp"
#include "socet/util/rng.hpp"

namespace socet::faultsim {
namespace {

using gate::Gate;
using gate::GateId;
using gate::GateKind;
using gate::GateNetlist;
using util::BitVector;
using util::Rng;

// ------------------------------------------------------------ generators

/// Random layered DAG with `n_gates` logic gates over `n_inputs` PIs and
/// `n_dffs` flops (each flop's D wired to a random node at the end).
GateNetlist make_random_netlist(Rng& rng, std::size_t n_inputs,
                                std::size_t n_dffs, std::size_t n_gates) {
  GateNetlist n("rand");
  std::vector<GateId> nodes;
  for (std::size_t i = 0; i < n_inputs; ++i) {
    nodes.push_back(n.add_input("i" + std::to_string(i)));
  }
  std::vector<GateId> dffs;
  for (std::size_t i = 0; i < n_dffs; ++i) {
    dffs.push_back(n.add_dff_floating("q" + std::to_string(i)));
    nodes.push_back(dffs.back());
  }
  static const GateKind kKinds[] = {GateKind::kAnd,  GateKind::kOr,
                                    GateKind::kNand, GateKind::kNor,
                                    GateKind::kXor,  GateKind::kXnor,
                                    GateKind::kNot,  GateKind::kBuf};
  for (std::size_t i = 0; i < n_gates; ++i) {
    const GateKind kind = kKinds[rng.next_below(8)];
    const bool unary = kind == GateKind::kNot || kind == GateKind::kBuf;
    std::vector<GateId> fanin{nodes[rng.next_below(nodes.size())]};
    if (!unary) {
      fanin.push_back(nodes[rng.next_below(nodes.size())]);
      if (fanin[0] == fanin[1]) fanin[1] = nodes[0];
    }
    nodes.push_back(n.add_gate(kind, fanin, "g" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < n_dffs; ++i) {
    // Wire D to one of the last few gates so state depends on logic.
    n.set_dff_input(dffs[i], nodes[nodes.size() - 1 - rng.next_below(4)]);
  }
  // Observe a handful of nodes spread over the circuit.
  for (std::size_t i = 0; i < 4; ++i) {
    const GateId g = nodes[nodes.size() - 1 - rng.next_below(n_gates / 2)];
    if (n.gate(g).kind != GateKind::kDff) n.mark_output(g);
  }
  n.mark_output(nodes.back());
  return n;
}

std::vector<ScanPattern> make_random_patterns(const GateNetlist& n,
                                              std::size_t count, Rng& rng) {
  std::vector<ScanPattern> patterns(count);
  for (auto& p : patterns) {
    p.pi = BitVector::random(n.inputs().size(), rng);
    p.ppi = BitVector::random(n.dffs().size(), rng);
  }
  return patterns;
}

// ------------------------------------------------------- reference oracle

/// One-pattern scalar evaluation with optional fault injection — the
/// slow, obviously-correct oracle the lane kernels are diffed against.
std::vector<bool> reference_values(const GateNetlist& n,
                                   const ScanPattern& pattern,
                                   const Fault* fault) {
  std::vector<bool> values(n.gate_count(), false);
  auto faulty = [&](GateId id, bool v) -> bool {
    if (fault != nullptr && id == fault->gate && fault->pin < 0) {
      return fault->stuck_at;
    }
    return v;
  };
  for (std::size_t i = 0; i < n.inputs().size(); ++i) {
    values[n.inputs()[i].index()] =
        faulty(n.inputs()[i], pattern.pi.get(i));
  }
  for (std::size_t i = 0; i < n.dffs().size(); ++i) {
    values[n.dffs()[i].index()] = faulty(n.dffs()[i], pattern.ppi.get(i));
  }
  for (GateId id : n.topo_order()) {
    const Gate& g = n.gate(id);
    if (g.kind == GateKind::kInput || g.kind == GateKind::kDff) continue;
    auto in = [&](std::size_t p) -> bool {
      if (fault != nullptr && id == fault->gate &&
          static_cast<std::int32_t>(p) == fault->pin) {
        return fault->stuck_at;
      }
      return values[g.fanin[p].index()];
    };
    bool v = false;
    switch (g.kind) {
      case GateKind::kConst0: v = false; break;
      case GateKind::kConst1: v = true; break;
      case GateKind::kBuf: v = in(0); break;
      case GateKind::kNot: v = !in(0); break;
      case GateKind::kAnd:
      case GateKind::kNand:
        v = true;
        for (std::size_t p = 0; p < g.fanin.size(); ++p) v = v && in(p);
        if (g.kind == GateKind::kNand) v = !v;
        break;
      case GateKind::kOr:
      case GateKind::kNor:
        v = false;
        for (std::size_t p = 0; p < g.fanin.size(); ++p) v = v || in(p);
        if (g.kind == GateKind::kNor) v = !v;
        break;
      case GateKind::kXor: v = in(0) != in(1); break;
      case GateKind::kXnor: v = in(0) == in(1); break;
      default: break;
    }
    values[id.index()] = faulty(id, v);
  }
  return values;
}

std::vector<FaultStatus> reference_statuses(
    const GateNetlist& n, const std::vector<Fault>& faults,
    const std::vector<ScanPattern>& patterns) {
  std::vector<GateId> observe = n.outputs();
  for (GateId dff : n.dffs()) observe.push_back(n.gate(dff).fanin[0]);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    for (const ScanPattern& p : patterns) {
      const auto good = reference_values(n, p, nullptr);
      const auto bad = reference_values(n, p, &faults[fi]);
      for (GateId obs : observe) {
        if (good[obs.index()] != bad[obs.index()]) {
          statuses[fi] = FaultStatus::kDetected;
          break;
        }
      }
      if (statuses[fi] == FaultStatus::kDetected) break;
    }
  }
  return statuses;
}

// ------------------------------------------------------------------ tests

/// Pattern counts that reach every lane width through the auto policy:
/// one partial 64-pattern block, one 256-pattern block, one 512-pattern
/// block, and a full 512-pattern block plus a partial second one.
constexpr std::pair<std::size_t, unsigned> kWidthCases[] = {
    {40, 1}, {150, 4}, {300, 8}, {700, 8}};

TEST(KernelOracle, AllWidthsAndModesMatchNaiveReference) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Rng rng(seed);
    const auto n = make_random_netlist(rng, 6, 3, 60);
    const auto faults = enumerate_faults(n);
    for (const auto& [count, width] : kWidthCases) {
      ASSERT_EQ(ScanFaultSim::auto_lane_words(count), width);
      const auto patterns = make_random_patterns(n, count, rng);
      ScanFaultSim sim(n);
      std::vector<FaultStatus> statuses(faults.size(),
                                        FaultStatus::kUndetected);
      sim.run(faults, patterns, statuses);
      EXPECT_EQ(statuses, reference_statuses(n, faults, patterns))
          << "seed=" << seed << " patterns=" << count << " W=" << width;
    }
  }
}

TEST(KernelOracle, SmallBatchesReuseTheGoodMachineAcrossRuns) {
  // ATPG feeds one simulator 16 patterns at a time: every run after the
  // first settles the good machine incrementally from the previous
  // run's values, and must still give the oracle's verdicts.
  Rng rng(5);
  const auto n = make_random_netlist(rng, 8, 4, 120);
  const auto faults = enumerate_faults(n);
  const auto patterns = make_random_patterns(n, 160, rng);

  ScanFaultSim sim(n);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  for (std::size_t first = 0; first < patterns.size(); first += 16) {
    const std::vector<ScanPattern> batch(patterns.begin() + first,
                                         patterns.begin() + first + 16);
    sim.run(faults, batch, statuses);
  }
  EXPECT_EQ(statuses, reference_statuses(n, faults, patterns));
}

TEST(KernelOracle, ResponsesIdenticalAcrossEnginesAndThreads) {
  Rng rng(11);
  const auto n = make_random_netlist(rng, 6, 2, 50);
  const auto faults = enumerate_faults(n);
  const auto patterns = make_random_patterns(n, 20, rng);

  // The oracle's values at the POs, then at each DFF's D fanin.
  auto expected = [&](const ScanPattern& p, const Fault* fault) {
    const auto values = reference_values(n, p, fault);
    BitVector bits(n.outputs().size() + n.dffs().size());
    std::size_t i = 0;
    for (GateId po : n.outputs()) bits.set(i++, values[po.index()]);
    for (GateId dff : n.dffs()) {
      bits.set(i++, values[n.gate(dff).fanin[0].index()]);
    }
    return bits.to_string();
  };

  ScanFaultSim sim(n);
  for (const ScanPattern& p : patterns) {
    EXPECT_EQ(sim.good_response(p).to_string(), expected(p, nullptr));
    for (std::size_t fi = 0; fi < faults.size(); fi += 7) {
      EXPECT_EQ(sim.faulty_response(faults[fi], p).to_string(),
                expected(p, &faults[fi]))
          << describe_fault(n, faults[fi]);
    }
  }
}

// The seed simulator kept its scratch-epoch counter in a uint32_t.  Once
// the counter wraps to 0 it collides with the never-touched entries of
// the stamp array (all zero-initialized), so lookups return stale
// scratch values instead of good-machine values.  The engines now use
// 64-bit stamps; `initial_stamp` places the counter just below the old
// wrap point to prove the boundary is survived.
TEST(StampWrap, SurvivesThirtyTwoBitBoundary) {
  GateNetlist n("wrap");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto z = n.add_gate(GateKind::kOr, {a, b}, "z");
  n.mark_output(z);

  // a s-a-0 under a=1,b=1 is masked (z stays 1): must stay undetected.
  // A wrapped stamp makes lookup(b) return scratch(0), so the faulty z
  // would read 0 != good 1 — a spurious detection.
  const std::vector<Fault> faults{Fault{a, -1, false}};
  ScanPattern pattern;
  pattern.pi = BitVector(2);
  pattern.pi.set(0, true);
  pattern.pi.set(1, true);
  pattern.ppi = BitVector(0);

  for (const auto& [count, width] : kWidthCases) {
    ScanSimOptions o;
    o.initial_stamp = 0xFFFF'FFFFULL;  // next ++ crosses 2^32
    ScanFaultSim sim(n, o);
    std::vector<FaultStatus> statuses{FaultStatus::kUndetected};
    sim.run(faults, std::vector<ScanPattern>(count, pattern), statuses);
    EXPECT_EQ(statuses[0], FaultStatus::kUndetected) << "W=" << width;
  }
}

TEST(StampWrap, ManyReplaysAcrossBoundaryStayCorrect) {
  Rng rng(17);
  const auto n = make_random_netlist(rng, 6, 0, 40);
  const auto faults = enumerate_faults(n);
  for (const auto& [count, width] : kWidthCases) {
    const auto patterns = make_random_patterns(n, count, rng);
    ScanSimOptions o;
    // Every fault replay increments the epoch; starting a few below the
    // boundary guarantees the run crosses it mid-flight.
    o.initial_stamp = 0xFFFF'FFFFULL - 5;
    ScanFaultSim sim(n, o);
    std::vector<FaultStatus> statuses(faults.size(),
                                      FaultStatus::kUndetected);
    sim.run(faults, patterns, statuses);
    EXPECT_EQ(statuses, reference_statuses(n, faults, patterns))
        << "W=" << width;
  }
}

// ------------------------------------------------ sequential lane kernel

/// Primary-output trace (every PO, every cycle) of one machine driven by
/// `sequence` from reset — one fault at a time, one bool per net.
std::vector<bool> reference_seq_outputs(const GateNetlist& n,
                                        const std::vector<BitVector>& sequence,
                                        const Fault* fault) {
  const auto& dffs = n.dffs();
  std::vector<bool> state(dffs.size(), false);
  std::vector<bool> trace;
  for (const BitVector& vector : sequence) {
    ScanPattern p;
    p.pi = vector;
    p.ppi = BitVector(dffs.size());
    for (std::size_t i = 0; i < dffs.size(); ++i) p.ppi.set(i, state[i]);
    const auto values = reference_values(n, p, fault);
    for (GateId po : n.outputs()) trace.push_back(values[po.index()]);
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      // A D-pin fault changes what the flop captures, not its Q.
      const bool d_pin_fault =
          fault != nullptr && fault->gate == dffs[i] && fault->pin == 0;
      state[i] = d_pin_fault ? fault->stuck_at
                             : values[n.gate(dffs[i]).fanin[0].index()];
    }
  }
  return trace;
}

std::vector<FaultStatus> reference_seq_statuses(
    const GateNetlist& n, const std::vector<Fault>& faults,
    const std::vector<BitVector>& sequence) {
  const auto good = reference_seq_outputs(n, sequence, nullptr);
  std::vector<FaultStatus> statuses;
  for (const Fault& f : faults) {
    statuses.push_back(reference_seq_outputs(n, sequence, &f) != good
                           ? FaultStatus::kDetected
                           : FaultStatus::kUndetected);
  }
  return statuses;
}

std::vector<BitVector> make_random_sequence(const GateNetlist& n,
                                            std::size_t cycles, Rng& rng) {
  std::vector<BitVector> sequence;
  for (std::size_t c = 0; c < cycles; ++c) {
    sequence.push_back(BitVector::random(n.inputs().size(), rng));
  }
  return sequence;
}

/// The first `count` entries of `base` repeated cyclically: a list of any
/// length whose verdicts the per-fault reference already knows.
template <typename T>
std::vector<T> cycled(const std::vector<T>& base, std::size_t count) {
  std::vector<T> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(base[i % base.size()]);
  return out;
}

/// Delta of a library counter across `body` (collection on meanwhile).
template <typename Body>
std::uint64_t counted(const char* name, Body body) {
  obs::set_metrics_enabled(true);
  const std::uint64_t before = obs::counter(name).value();
  body();
  obs::set_metrics_enabled(false);
  return obs::counter(name).value() - before;
}

TEST(SeqKernelOracle, MatchesNaiveReferenceAcrossWidthsAndPasses) {
  // Uncollapsed, so the list carries DFF D-pin and input-pin faults.
  Rng rng(23);
  const auto n = make_random_netlist(rng, 8, 6, 200);
  const auto base = enumerate_faults(n, /*collapse=*/false);
  const auto sequence = make_random_sequence(n, 12, rng);
  const auto base_expected = reference_seq_statuses(n, base, sequence);
  ASSERT_GT(base.size(), 1022u + 63u);  // full list: two 511s, then W>1
  ASSERT_LE(base.size(), 3u * 511u);

  // Live counts on each side of the 63/255 width switches and of the
  // 511-machine pass; the expected pass counts pin the width choice.
  const std::pair<std::size_t, std::uint64_t> kCases[] = {
      {40, 1},  {63, 1},  {64, 1},  {255, 1},
      {256, 1}, {511, 1}, {512, 2}, {base.size(), 3}};
  for (const auto& [count, expected_passes] : kCases) {
    const auto faults = cycled(base, count);
    std::vector<FaultStatus> statuses(count, FaultStatus::kUndetected);
    SequentialFaultSim sim(n);
    const std::uint64_t passes = counted(
        "faultsim/seq_passes", [&] { sim.run(faults, sequence, statuses); });
    EXPECT_EQ(statuses, cycled(base_expected, count)) << "faults=" << count;
    EXPECT_EQ(passes, expected_passes) << "faults=" << count;
  }
}

TEST(SeqKernelOracle, RepeatedFaultsShareAPassConsistently) {
  // Each fault four times over: machines of one site and one pin land in
  // the same pass, and every copy must get its fault's verdict.
  Rng rng(29);
  const auto n = make_random_netlist(rng, 6, 4, 80);
  const auto base = enumerate_faults(n, /*collapse=*/false);
  const auto sequence = make_random_sequence(n, 10, rng);
  const auto base_expected = reference_seq_statuses(n, base, sequence);

  std::vector<Fault> faults;
  std::vector<FaultStatus> expected;
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (int copy = 0; copy < 4; ++copy) {
      faults.push_back(base[i]);
      expected.push_back(base_expected[i]);
    }
  }
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  SequentialFaultSim(n).run(faults, sequence, statuses);
  EXPECT_EQ(statuses, expected);
}

TEST(SeqKernelOracle, PresetStatusesStayUntouched) {
  Rng rng(31);
  const auto n = make_random_netlist(rng, 8, 6, 200);
  const auto faults = enumerate_faults(n, /*collapse=*/false);
  const auto sequence = make_random_sequence(n, 12, rng);
  auto expected = reference_seq_statuses(n, faults, sequence);

  // Pre-set verdicts are the caller's and must survive; only the rest
  // (several hundred live faults, so more than one pass) is simulated.
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (i % 3 == 0) statuses[i] = expected[i] = FaultStatus::kDetected;
    if (i % 5 == 0) statuses[i] = expected[i] = FaultStatus::kAborted;
  }
  SequentialFaultSim(n).run(faults, sequence, statuses);
  EXPECT_EQ(statuses, expected);
}

TEST(SeqKernelOracle, PassEndsOnceEveryMachineIsDetected) {
  // a -> BUF z, a = 1 every cycle: z s-a-0 and a s-a-0 show at z on the
  // first cycle, so each pass stops after one of its five cycles.
  GateNetlist n("early");
  auto a = n.add_input("a");
  auto z = n.add_gate(GateKind::kBuf, {a}, "z");
  n.mark_output(z);
  BitVector one(1);
  one.set(0, true);
  const std::vector<BitVector> sequence(5, one);

  // 600 live faults: a 511-machine pass, then an 89-machine one.
  const auto faults = cycled(std::vector<Fault>{Fault{z, -1, false},
                                                Fault{a, -1, false}},
                             600);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  SequentialFaultSim sim(n);
  const std::uint64_t evals = counted("faultsim/seq_gate_evals", [&] {
    sim.run(faults, sequence, statuses);
  });
  EXPECT_EQ(statuses, std::vector<FaultStatus>(600, FaultStatus::kDetected));
  EXPECT_EQ(evals, 2u);  // two passes x one cycle x one logic gate
}

// ------------------------------------------------- sequential pin faults

TEST(SeqSimPinFaults, DffDPinFaultUsesCaptureSemantics) {
  // a -> q (DFF) -> z.  With a held at 0, a D-pin s-a-1 loads the flop
  // with 1 from the second cycle on, which z exposes.  The seed silently
  // forced the faulty machine's Q to 0 every cycle (its scalar pin-fault
  // evaluator returned 0 for flops), masking the fault.
  GateNetlist n("dffpin");
  auto a = n.add_input("a");
  auto q = n.add_dff(a, "q");
  auto z = n.add_gate(GateKind::kBuf, {q}, "z");
  n.mark_output(z);

  const std::vector<Fault> faults{Fault{q, 0, true}};
  std::vector<util::BitVector> sequence(3, BitVector(1));  // a = 0 always
  std::vector<FaultStatus> statuses{FaultStatus::kUndetected};
  SequentialFaultSim sim(n);
  sim.run(faults, sequence, statuses);
  EXPECT_EQ(statuses[0], FaultStatus::kDetected);
}

TEST(SeqSimPinFaults, PinFaultOnInputRaises) {
  GateNetlist n("inpin");
  auto a = n.add_input("a");
  auto z = n.add_gate(GateKind::kBuf, {a}, "z");
  n.mark_output(z);

  // Inputs have no input pins; a pin fault there is a malformed list.
  // The fault table rejects it by name before simulating, instead of
  // silently forcing the machine to 0.
  const std::vector<Fault> faults{Fault{a, 0, true}};
  std::vector<util::BitVector> sequence(2, BitVector(1));
  std::vector<FaultStatus> statuses{FaultStatus::kUndetected};
  SequentialFaultSim sim(n);
  EXPECT_THROW(sim.run(faults, sequence, statuses), util::Error);
  try {
    sim.run(faults, sequence, statuses);
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("pin fault on gate 'a'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScanSimPinFaults, PinFaultOnInputRaises) {
  GateNetlist n("inpin");
  auto a = n.add_input("a");
  auto z = n.add_gate(GateKind::kBuf, {a}, "z");
  n.mark_output(z);

  // The kernel used to treat this like a fault on the input's value
  // and leave it silently undetected.
  const std::vector<Fault> faults{Fault{a, 0, true}};
  std::vector<ScanPattern> patterns(1);
  patterns[0].pi = BitVector(1);
  patterns[0].ppi = BitVector(0);
  std::vector<FaultStatus> statuses{FaultStatus::kUndetected};
  ScanFaultSim sim(n);
  try {
    sim.run(faults, patterns, statuses);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("pin fault on gate 'a'"),
              std::string::npos)
        << e.what();
  }
}

TEST(SeqSimPinFaults, UncollapsedListAgreesWithScanSimOnCombinational) {
  Rng rng(19);
  const auto n = make_random_netlist(rng, 6, 0, 40);
  const auto faults = enumerate_faults(n, /*collapse=*/false);
  const auto patterns = make_random_patterns(n, 60, rng);
  const auto expected = reference_statuses(n, faults, patterns);

  ScanFaultSim sim(n);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  sim.run(faults, patterns, statuses);
  EXPECT_EQ(statuses, expected);
}

}  // namespace
}  // namespace socet::faultsim
