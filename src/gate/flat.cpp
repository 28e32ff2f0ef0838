#include "socet/gate/flat.hpp"

#include <algorithm>
#include <tuple>

namespace socet::gate {

FlatNetlist::FlatNetlist(const GateNetlist& netlist) {
  const auto& inputs = netlist.inputs();
  const auto& dffs = netlist.dffs();
  slot_of.assign(netlist.gate_count(), 0);
  std::uint32_t slot = 0;
  for (GateId id : inputs) slot_of[id.index()] = slot++;
  for (GateId id : dffs) slot_of[id.index()] = slot++;
  first_logic = slot;

  std::vector<std::uint32_t> level(netlist.gate_count(), 0);
  std::vector<GateId> order;
  std::size_t fanin_count = 0;
  for (GateId id : netlist.topo_order()) {
    const Gate& g = netlist.gate(id);
    if (g.kind == GateKind::kInput || g.kind == GateKind::kDff) continue;
    for (GateId f : g.fanin) {
      level[id.index()] = std::max(level[id.index()], level[f.index()] + 1);
    }
    fanin_count += g.fanin.size();
    order.push_back(id);
  }
  std::stable_sort(order.begin(), order.end(), [&](GateId a, GateId b) {
    return std::tuple(level[a.index()], netlist.gate(a).kind) <
           std::tuple(level[b.index()], netlist.gate(b).kind);
  });
  for (GateId id : order) slot_of[id.index()] = slot++;

  logic.reserve(order.size());
  fanins.reserve(fanin_count);
  for (GateId id : order) {
    const Gate& g = netlist.gate(id);
    Node n{g.kind, static_cast<std::uint32_t>(fanins.size()), 0};
    for (GateId f : g.fanin) fanins.push_back(slot_of[f.index()]);
    n.fanin_end = static_cast<std::uint32_t>(fanins.size());
    logic.push_back(n);
  }
  for (GateId po : netlist.outputs()) outputs.push_back(slot_of[po.index()]);
  for (GateId dff : dffs) {
    dff_d.push_back(slot_of[netlist.gate(dff).fanin[0].index()]);
  }

  // Fanout CSR: each reader once per driver, in reader (ascending slot)
  // order.
  const auto for_each_driver = [&](const Node& g, auto&& visit) {
    const std::uint32_t* begin = fanins.data() + g.fanin_begin;
    const std::uint32_t* end = fanins.data() + g.fanin_end;
    for (const std::uint32_t* f = begin; f != end; ++f) {
      if (std::find(begin, f, *f) == f) visit(*f);  // skip a repeat
    }
  };
  fanout_begin.assign(slot_count() + 1, 0);
  for (const Node& g : logic) {
    for_each_driver(g, [&](std::uint32_t d) { ++fanout_begin[d + 1]; });
  }
  for (std::uint32_t s = 0; s < slot_count(); ++s) {
    fanout_begin[s + 1] += fanout_begin[s];
  }
  fanouts.resize(fanout_begin.back());
  std::vector<std::uint32_t> next(fanout_begin.begin(), fanout_begin.end() - 1);
  for (std::uint32_t s = first_logic; s < slot_count(); ++s) {
    for_each_driver(node(s), [&](std::uint32_t d) { fanouts[next[d]++] = s; });
  }
}

}  // namespace socet::gate
