// Random combinational gate netlists, shared by the ATPG property suite
// and the PODEM differential tests.
#pragma once

#include <cstdint>
#include <vector>

#include "socet/gate/netlist.hpp"
#include "socet/util/rng.hpp"

namespace socet {

/// Random combinational gate circuit.
inline gate::GateNetlist make_random_gates(std::uint64_t seed,
                                           unsigned inputs, unsigned gates) {
  util::Rng rng(seed);
  gate::GateNetlist n("rand");
  std::vector<gate::GateId> pool;
  for (unsigned i = 0; i < inputs; ++i) pool.push_back(n.add_input("i"));
  static constexpr gate::GateKind kinds[] = {
      gate::GateKind::kAnd, gate::GateKind::kOr, gate::GateKind::kNand,
      gate::GateKind::kNor, gate::GateKind::kXor, gate::GateKind::kNot};
  for (unsigned g = 0; g < gates; ++g) {
    const auto kind = kinds[rng.next_below(6)];
    const auto a = pool[rng.next_below(pool.size())];
    if (kind == gate::GateKind::kNot) {
      pool.push_back(n.add_gate(kind, {a}));
    } else {
      auto b = pool[rng.next_below(pool.size())];
      if (a == b) {
        pool.push_back(n.add_gate(gate::GateKind::kNot, {a}));
      } else {
        pool.push_back(n.add_gate(kind, {a, b}));
      }
    }
  }
  // Observe the last few gates.
  for (unsigned o = 0; o < 4 && o < pool.size(); ++o) {
    n.mark_output(pool[pool.size() - 1 - o]);
  }
  return n;
}

}  // namespace socet
