#include "socet/faultsim/faults.hpp"

#include "socet/util/error.hpp"

namespace socet::faultsim {

namespace {

using gate::Gate;
using gate::GateKind;

/// Is the fault "input `pin` of `g` stuck at `value`" equivalent to an
/// output-stem fault of the same gate (and therefore collapsible)?
bool input_fault_collapses(const Gate& g, bool value) {
  switch (g.kind) {
    case GateKind::kAnd:
    case GateKind::kNand:
      // A controlling 0 on any input fixes the output.
      return value == false;
    case GateKind::kOr:
    case GateKind::kNor:
      return value == true;
    case GateKind::kBuf:
    case GateKind::kNot:
    case GateKind::kDff:
      // Single-input: both input faults are equivalent to faults on the
      // driving stem / this gate's own output.
      return true;
    default:
      return false;  // XOR/XNOR inputs are not collapsible
  }
}

bool is_fault_site(const Gate& g) {
  // Constants have no meaningful stuck-at faults on their stems (they are
  // stuck by definition); everything else does.
  return g.kind != GateKind::kConst0 && g.kind != GateKind::kConst1;
}

std::string site_name(const Gate& g, const Fault& fault) {
  return g.name.empty() ? "g" + std::to_string(fault.gate.value()) : g.name;
}

}  // namespace

void raise_missing_pin(const Gate& g, const Fault& fault) {
  util::raise("pin fault on gate '" + site_name(g, fault) +
              "', which has no pin " + std::to_string(fault.pin));
}

std::vector<Fault> enumerate_faults(const gate::GateNetlist& netlist,
                                    bool collapse) {
  std::vector<Fault> faults;
  const auto& gates = netlist.gates();
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    const gate::GateId id(static_cast<std::uint32_t>(i));
    if (is_fault_site(g)) {
      faults.push_back(Fault{id, -1, false});
      faults.push_back(Fault{id, -1, true});
    }
    // Input-pin faults matter on fanout branches; single-input gates'
    // input faults always collapse onto stems.
    if (g.fanin.size() < 2 && collapse) continue;
    if (g.kind == GateKind::kInput) continue;
    for (std::size_t p = 0; p < g.fanin.size(); ++p) {
      const GateKind driver = gates[g.fanin[p].index()].kind;
      for (bool value : {false, true}) {
        if (collapse && input_fault_collapses(g, value)) continue;
        // A pin tied to a constant stuck at that same constant is
        // functionally invisible; strip it like commercial fault lists do.
        if (collapse && ((driver == GateKind::kConst0 && !value) ||
                         (driver == GateKind::kConst1 && value))) {
          continue;
        }
        faults.push_back(
            Fault{id, static_cast<std::int32_t>(p), value});
      }
    }
  }
  return faults;
}

std::string describe_fault(const gate::GateNetlist& netlist,
                           const Fault& fault) {
  std::string site = site_name(netlist.gate(fault.gate), fault);
  if (fault.pin >= 0) site += "/in" + std::to_string(fault.pin);
  return site + " s-a-" + (fault.stuck_at ? "1" : "0");
}

CoverageSummary summarize(const std::vector<FaultStatus>& statuses) {
  CoverageSummary s;
  s.total = statuses.size();
  for (FaultStatus status : statuses) {
    switch (status) {
      case FaultStatus::kDetected:
        ++s.detected;
        break;
      case FaultStatus::kUntestable:
        ++s.untestable;
        break;
      case FaultStatus::kAborted:
        ++s.aborted;
        break;
      case FaultStatus::kUndetected:
        break;
    }
  }
  return s;
}

}  // namespace socet::faultsim
