#include "socet/faultsim/cone.hpp"

#include <algorithm>

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
  // Forward BFS through fanouts; DFFs terminate propagation within one
  // scan pattern (their D value is the observation point).
  ++bfs_stamp_;
  std::vector<GateId> cone{id};
  seen_stamp_[id.index()] = bfs_stamp_;
  const auto& fanouts = netlist_.fanouts();
  for (std::size_t head = 0; head < cone.size(); ++head) {
    if (netlist_.gate(cone[head]).kind == GateKind::kDff && head != 0) {
      continue;
    }
    for (GateId next : fanouts[cone[head].index()]) {
      if (seen_stamp_[next.index()] == bfs_stamp_) continue;
      if (netlist_.gate(next).kind == GateKind::kDff) continue;
      seen_stamp_[next.index()] = bfs_stamp_;
      cone.push_back(next);
    }
  }
  std::sort(cone.begin(), cone.end(), [this](GateId a, GateId b) {
    return topo_pos_[a.index()] < topo_pos_[b.index()];
  });
  cones_[id.index()] = std::move(cone);
}

}  // namespace socet::faultsim
