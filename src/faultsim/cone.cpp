#include "socet/faultsim/cone.hpp"

namespace socet::faultsim {

using gate::GateId;
using gate::GateKind;

ConeCache::ConeCache(const gate::GateNetlist& netlist)
    : netlist_(netlist),
      cones_(netlist.gate_count()),
      topo_pos_(netlist.gate_count(), 0),
      seen_stamp_(netlist.gate_count(), 0) {
  const auto& order = netlist.topo_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    topo_pos_[order[i].index()] = static_cast<std::uint32_t>(i);
  }
}

const std::vector<GateId>& ConeCache::of(GateId id) {
  if (cones_[id.index()].empty()) build(id);
  return cones_[id.index()];
}

void ConeCache::build(GateId id) {
  // Forward BFS through fanouts marks the cone; DFFs terminate
  // propagation within one scan pattern (their D value is the observation
  // point).
  ++bfs_stamp_;
  queue_.assign(1, id);
  seen_stamp_[id.index()] = bfs_stamp_;
  const auto& fanouts = netlist_.fanouts();
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    if (netlist_.gate(queue_[head]).kind == GateKind::kDff && head != 0) {
      continue;
    }
    for (GateId next : fanouts[queue_[head].index()]) {
      if (seen_stamp_[next.index()] == bfs_stamp_) continue;
      if (netlist_.gate(next).kind == GateKind::kDff) continue;
      seen_stamp_[next.index()] = bfs_stamp_;
      queue_.push_back(next);
    }
  }
  // Every marked gate sits at or after the root in topological order, so
  // one forward scan from the root collects the cone already sorted.
  const auto& order = netlist_.topo_order();
  std::vector<GateId> cone;
  cone.reserve(queue_.size());
  for (std::size_t pos = topo_pos_[id.index()]; cone.size() < queue_.size();
       ++pos) {
    if (seen_stamp_[order[pos].index()] == bfs_stamp_) {
      cone.push_back(order[pos]);
    }
  }
  cones_[id.index()] = std::move(cone);
}

}  // namespace socet::faultsim
