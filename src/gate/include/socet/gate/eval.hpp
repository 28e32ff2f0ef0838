// The gate truth table, written once for every simulator in the library.
//
// eval_gate<V> computes a logic gate's output from its fanin values for
// any value type V that provides V{} (logic 0 everywhere) and the bitwise
// operators ~ & | ^:
//
//   * std::uint64_t   — 64 patterns per word (gate::eval_comb);
//   * faultsim::Lane  — 64·W patterns or machines per lane (the scan
//                       fault-sim kernel and SequentialFaultSim);
//   * atpg::V3        — PODEM's three-valued implication.
//
// `in(p)` returns the value of fanin pin p; a caller injects a pin fault
// by returning the stuck value for that pin.  Value sources (inputs and
// flip-flops) are loaded by the caller and never evaluated here.
#pragma once

#include <cstddef>

#include "socet/gate/netlist.hpp"

// Force-inlined so that `in` and the gate-kind switch fold into each
// caller's loop; an out-of-line evaluator costs a call per gate.
#if defined(__GNUC__) || defined(__clang__)
#define SOCET_FORCE_INLINE __attribute__((always_inline)) inline
#else
#define SOCET_FORCE_INLINE inline
#endif

namespace socet::gate {

/// Throws util::Error for an attempt to evaluate an input or a flip-flop.
/// Kept out of line: a throw inside the force-inlined evaluator bloats
/// every caller's hot loop.
[[noreturn]] void raise_value_source(GateKind kind);

template <typename V, typename In>
SOCET_FORCE_INLINE V eval_gate(GateKind kind, std::size_t fanin_count,
                               In&& in) {
  switch (kind) {
    case GateKind::kConst0:
      return V{};
    case GateKind::kConst1:
      return ~V{};
    case GateKind::kBuf:
      return in(0);
    case GateKind::kNot:
      return ~in(0);
    case GateKind::kAnd:
    case GateKind::kNand: {
      // add_gate guarantees at least two fanins for the n-ary kinds.
      V v = in(0);
      for (std::size_t p = 1; p < fanin_count; ++p) v = v & in(p);
      return kind == GateKind::kNand ? ~v : v;
    }
    case GateKind::kOr:
    case GateKind::kNor: {
      V v = in(0);
      for (std::size_t p = 1; p < fanin_count; ++p) v = v | in(p);
      return kind == GateKind::kNor ? ~v : v;
    }
    case GateKind::kXor:
      return in(0) ^ in(1);
    case GateKind::kXnor:
      return ~(in(0) ^ in(1));
    case GateKind::kInput:
    case GateKind::kDff:
      break;
  }
  raise_value_source(kind);
}

}  // namespace socet::gate
