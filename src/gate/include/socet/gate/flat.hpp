// A gate netlist flattened into level-ordered slots.
//
// Every gate gets a slot: primary inputs first (in inputs() order), then
// DFFs (in dffs() order), then logic gates level by level.  Within a level
// the gates are grouped by kind so the evaluator's switch predicts well;
// any order inside a level is topological.  Fanins and fanouts are slot
// numbers in shared CSR arrays, so a sweep reads no per-gate heap vectors.
//
// Every fanout sits at a higher slot than its driver, so a set of pending
// slots drained lowest first is a valid event queue: the sequential fault
// simulator sweeps every slot in order, and PODEM's implication visits
// only the slots its events reach.
#pragma once

#include <cstdint>
#include <vector>

#include "socet/gate/netlist.hpp"

namespace socet::gate {

struct FlatNetlist {
  struct Node {
    GateKind kind;
    std::uint32_t fanin_begin;  ///< range in `fanins`
    std::uint32_t fanin_end;
  };

  explicit FlatNetlist(const GateNetlist& netlist);

  [[nodiscard]] std::uint32_t slot_count() const {
    return first_logic + static_cast<std::uint32_t>(logic.size());
  }
  /// The node of logic slot `slot` (slot >= first_logic).
  [[nodiscard]] const Node& node(std::uint32_t slot) const {
    return logic[slot - first_logic];
  }

  std::vector<std::uint32_t> slot_of;  ///< gate index -> slot
  std::uint32_t first_logic = 0;       ///< slot of logic[0]
  std::vector<Node> logic;
  std::vector<std::uint32_t> fanins;
  /// The logic gates reading slot s are
  /// fanouts[fanout_begin[s] .. fanout_begin[s + 1]), in ascending slot
  /// order, each listed once even when it reads s on two pins.  DFFs are
  /// not listed: they are value sources, and read their D only at the
  /// clock edge (`dff_d`).
  std::vector<std::uint32_t> fanout_begin;
  std::vector<std::uint32_t> fanouts;
  std::vector<std::uint32_t> outputs;  ///< PO slots
  std::vector<std::uint32_t> dff_d;    ///< D-driver slot of each DFF
};

}  // namespace socet::gate
