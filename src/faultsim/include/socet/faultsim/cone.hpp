// Fanout-cone cache for fault simulation.
//
// Every fault replay walks the topologically-sorted fanout cone of its
// site.  Cones depend only on the netlist, so one cache serves every lane
// width of a ScanFaultSim.  A cone is built on its first lookup with a
// stamped BFS scratch that is allocated once, not per cone.
#pragma once

#include <cstdint>
#include <vector>

#include "socet/gate/netlist.hpp"

namespace socet::faultsim {

class ConeCache {
 public:
  explicit ConeCache(const gate::GateNetlist& netlist);

  ConeCache(const ConeCache&) = delete;
  ConeCache& operator=(const ConeCache&) = delete;

  /// The fanout cone of `id` in topological order, `id` first.  DFFs
  /// terminate propagation (their D pin is the observation point within
  /// one scan pattern).
  const std::vector<gate::GateId>& of(gate::GateId id);

  [[nodiscard]] const gate::GateNetlist& netlist() const { return netlist_; }

 private:
  void build(gate::GateId id);

  const gate::GateNetlist& netlist_;
  /// Empty until built: a built cone always holds at least its root.
  std::vector<std::vector<gate::GateId>> cones_;
  std::vector<std::uint32_t> topo_pos_;
  /// seen_stamp_[g] == bfs_stamp_ marks g visited in the current build,
  /// so no gate_count-sized vector is allocated or cleared per cone.
  std::vector<std::uint64_t> seen_stamp_;
  std::uint64_t bfs_stamp_ = 0;
};

}  // namespace socet::faultsim
