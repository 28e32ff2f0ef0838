// Gate-level netlist.
//
// The synthesis module elaborates RTL cores into this representation; the
// fault simulator and the PODEM test generator operate on it.  Only
// primitive cells appear (simple gates plus D flip-flops) — multiplexers
// and functional units are decomposed during elaboration.
//
// Full-scan view: when a circuit is tested with HSCAN or FSCAN, every
// flip-flop is controllable and observable through scan.  Algorithms that
// need the combinational view treat each DFF's Q as a pseudo primary input
// (PPI) and each DFF's D as a pseudo primary output (PPO).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "socet/util/error.hpp"
#include "socet/util/ids.hpp"

namespace socet::gate {

struct GateTag {};
using GateId = util::Id<GateTag>;

enum class GateKind : std::uint8_t {
  kInput,  ///< primary input (no fanin)
  kConst0,
  kConst1,
  kBuf,
  kNot,
  kAnd,   ///< n-ary
  kOr,    ///< n-ary
  kNand,  ///< n-ary
  kNor,   ///< n-ary
  kXor,   ///< 2-input
  kXnor,  ///< 2-input
  kDff,   ///< single fanin (D); Q is this gate's output value
};

struct Gate {
  GateKind kind = GateKind::kBuf;
  std::vector<GateId> fanin;
  std::string name;  ///< optional; useful for diagnostics
};

/// Area in "cells" (gate-equivalents) per primitive, used for all the
/// paper's area-overhead accounting.  One combinational cell = 1; a flip
/// flop is several gate-equivalents.
struct CellLibrary {
  double gate_area = 1.0;
  double dff_area = 4.0;

  [[nodiscard]] double area_of(GateKind kind) const {
    switch (kind) {
      case GateKind::kInput:
      case GateKind::kConst0:
      case GateKind::kConst1:
        return 0.0;
      case GateKind::kDff:
        return dff_area;
      default:
        return gate_area;
    }
  }
};

class GateNetlist {
 public:
  explicit GateNetlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  GateId add_input(const std::string& name);
  GateId add_gate(GateKind kind, std::vector<GateId> fanin,
                  const std::string& name = {});
  GateId add_dff(GateId d, const std::string& name = {});

  /// Create a DFF whose D input is wired up later with set_dff_input —
  /// needed when flip-flop outputs feed logic that eventually computes
  /// their own next-state (the usual case).
  GateId add_dff_floating(const std::string& name = {});
  void set_dff_input(GateId dff, GateId d);

  /// Mark a gate's output as a primary output of the circuit.
  void mark_output(GateId gate);

  const std::vector<Gate>& gates() const { return gates_; }
  const Gate& gate(GateId id) const { return gates_.at(id.index()); }
  const std::vector<GateId>& inputs() const { return inputs_; }
  const std::vector<GateId>& outputs() const { return outputs_; }
  const std::vector<GateId>& dffs() const { return dffs_; }

  std::size_t gate_count() const { return gates_.size(); }
  /// Count of combinational cells + flip-flops (excludes inputs/constants).
  std::size_t cell_count() const;
  double area(const CellLibrary& lib = {}) const;

  /// Gates in combinational topological order: inputs, constants and DFFs
  /// first (as value sources), then every combinational gate after its
  /// fanins.  Throws util::Error on a combinational cycle.
  const std::vector<GateId>& topo_order() const;

 private:
  void build_order() const;

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<GateId> dffs_;

  mutable std::vector<GateId> topo_;  // cached
  mutable bool order_valid_ = false;
};

}  // namespace socet::gate
