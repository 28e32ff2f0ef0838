#include "socet/gate/sim.hpp"

#include "socet/gate/eval.hpp"

namespace socet::gate {

void raise_value_source(GateKind kind) {
  util::raise(std::string("eval_gate: cannot evaluate a value source (") +
              (kind == GateKind::kDff ? "flip-flop" : "input") + ")");
}

void eval_comb(const GateNetlist& netlist, std::vector<std::uint64_t>& values) {
  util::require(values.size() == netlist.gate_count(),
                "eval_comb: value vector size mismatch");
  const auto& gates = netlist.gates();
  for (GateId id : netlist.topo_order()) {
    const Gate& g = gates[id.index()];
    if (g.kind == GateKind::kInput || g.kind == GateKind::kDff) {
      continue;  // preset by caller
    }
    values[id.index()] = eval_gate<std::uint64_t>(
        g.kind, g.fanin.size(),
        [&](std::size_t p) { return values[g.fanin[p].index()]; });
  }
}

SequentialSim::SequentialSim(const GateNetlist& netlist)
    : netlist_(netlist),
      values_(netlist.gate_count(), 0),
      state_(netlist.dffs().size(), 0) {}

void SequentialSim::reset() {
  state_.assign(state_.size(), 0);
  values_.assign(values_.size(), 0);
}

void SequentialSim::step(const std::vector<std::uint64_t>& pi_values) {
  const auto& inputs = netlist_.inputs();
  util::require(pi_values.size() == inputs.size(),
                "SequentialSim::step: wrong number of input words");
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    values_[inputs[i].index()] = pi_values[i];
  }
  const auto& dffs = netlist_.dffs();
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    values_[dffs[i].index()] = state_[i];
  }
  eval_comb(netlist_, values_);
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    state_[i] = values_[netlist_.gate(dffs[i]).fanin[0].index()];
  }
  // Re-settle with the captured state so values() presents the post-edge
  // view: Q pins show the newly loaded data under the same held inputs.
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    values_[dffs[i].index()] = state_[i];
  }
  eval_comb(netlist_, values_);
}

}  // namespace socet::gate
