// A gate netlist flattened into level-ordered slots, and the event queue
// every gate engine drains over it.
//
// Every gate gets a slot: primary inputs first (in inputs() order), then
// DFFs (in dffs() order), then logic gates level by level.  Within a level
// the gates are grouped by kind so the evaluator's switch predicts well;
// any order inside a level is topological.  Fanins and fanouts are slot
// numbers in shared CSR arrays, so a sweep reads no per-gate heap vectors.
//
// Every fanout sits at a higher slot than its driver, so a set of pending
// slots drained lowest first (SlotQueue) is a valid event queue: the
// sequential fault simulator sweeps every slot in order, while PODEM's
// implication and the scan fault simulator's good-machine settle and
// fault replay visit only the slots their events reach.
#pragma once

#include <algorithm>
#include <bit>
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

/// The pending slots of one FlatNetlist: a bitset over the slots plus the
/// range of words that may hold a set bit.  drain() visits them lowest
/// first, which is level order, so a visited gate's fanins are final.
class SlotQueue {
 public:
  /// `flat` must outlive the queue.
  explicit SlotQueue(const FlatNetlist& flat)
      : flat_(flat),
        words_(flat.slot_count() / 64 + 1, 0),
        first_(static_cast<std::uint32_t>(words_.size())) {}

  void push(std::uint32_t slot) {
    const std::uint32_t word = slot >> 6;
    words_[word] |= std::uint64_t{1} << (slot & 63);
    first_ = std::min(first_, word);
    last_ = std::max(last_, word);
  }

  /// Queue every logic gate that reads `slot`.
  void push_fanouts(std::uint32_t slot) {
    for (std::uint32_t i = flat_.fanout_begin[slot];
         i < flat_.fanout_begin[slot + 1]; ++i) {
      push(flat_.fanouts[i]);
    }
  }

  /// Visit and remove the pending slots in ascending order.  A visit may
  /// push slots above its own (a gate's fanouts), which this drain then
  /// visits too.  When `visit` returns false the rest are dropped and the
  /// queue is empty.
  template <typename Visit>
  void drain(Visit&& visit) {
    for (std::uint32_t w = first_; w <= last_; ++w) {
      while (words_[w] != 0) {
        const auto bit =
            static_cast<std::uint32_t>(std::countr_zero(words_[w]));
        words_[w] &= words_[w] - 1;
        if (visit(w * 64 + bit)) continue;
        std::fill(words_.begin() + w, words_.begin() + last_ + 1, 0);
        last_ = w;  // ends the scan
        break;
      }
    }
    first_ = static_cast<std::uint32_t>(words_.size());
    last_ = 0;
  }

 private:
  const FlatNetlist& flat_;
  std::vector<std::uint64_t> words_;
  std::uint32_t first_;  ///< word range that may hold a pending slot
  std::uint32_t last_ = 0;
};

}  // namespace socet::gate
