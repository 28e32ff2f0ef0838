#include "socet/atpg/podem.hpp"

#include <algorithm>

#include "socet/gate/eval.hpp"

namespace socet::atpg {

// V3's logic operators, in V3's own namespace so that gate::eval_gate
// finds them by argument-dependent lookup.  V3{} is k0.
static V3 operator~(V3 a) {
  if (a == V3::kX) return V3::kX;
  return a == V3::k0 ? V3::k1 : V3::k0;
}

static V3 operator&(V3 a, V3 b) {
  if (a == V3::k0 || b == V3::k0) return V3::k0;
  if (a == V3::k1 && b == V3::k1) return V3::k1;
  return V3::kX;
}

static V3 operator|(V3 a, V3 b) {
  if (a == V3::k1 || b == V3::k1) return V3::k1;
  if (a == V3::k0 && b == V3::k0) return V3::k0;
  return V3::kX;
}

static V3 operator^(V3 a, V3 b) {
  if (a == V3::kX || b == V3::kX) return V3::kX;
  return a == b ? V3::k0 : V3::k1;
}

namespace {

using faultsim::Fault;
using gate::Gate;
using gate::GateId;
using gate::GateKind;

class Podem {
 public:
  Podem(const gate::GateNetlist& netlist, std::vector<Fault> faults,
        const PodemOptions& options)
      : netlist_(netlist), faults_(std::move(faults)), options_(options) {
    util::require(!faults_.empty(), "podem: need at least one fault site");
    // Per-gate fault lookup (at most one site per gate).
    site_pin_.assign(netlist.gate_count(), kNoFault);
    site_value_.assign(netlist.gate_count(), 0);
    for (const Fault& f : faults_) {
      faultsim::check_fault_site(netlist.gate(f.gate), f);
      util::require(site_pin_[f.gate.index()] == kNoFault,
                    "podem: two fault sites on one gate");
      site_pin_[f.gate.index()] = f.pin;
      site_value_[f.gate.index()] = f.stuck_at ? 1 : 0;
    }
    // Decision variables: PIs then PPIs.
    for (GateId id : netlist.inputs()) lines_.push_back(id);
    for (GateId id : netlist.dffs()) lines_.push_back(id);
    line_pos_.assign(netlist.gate_count(), -1);
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      line_pos_[lines_[i].index()] = static_cast<std::int32_t>(i);
    }
    assign_.assign(lines_.size(), V3::kX);
    good_.assign(netlist.gate_count(), V3::kX);
    faulty_.assign(netlist.gate_count(), V3::kX);

    observe_ = netlist.outputs();
    for (GateId dff : netlist.dffs()) {
      observe_.push_back(netlist.gate(dff).fanin[0]);
    }
    std::sort(observe_.begin(), observe_.end());
    observe_.erase(std::unique(observe_.begin(), observe_.end()),
                   observe_.end());

    // Static guidance: distance-to-observation for D-frontier selection
    // and logic depth for backtrace input choice (a SCOAP-lite).
    obs_dist_.assign(netlist.gate_count(), kFarAway);
    for (GateId id : observe_) obs_dist_[id.index()] = 0;
    const auto& order = netlist.topo_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const unsigned here = obs_dist_[it->index()];
      if (here == kFarAway) continue;
      for (GateId f : netlist.gate(*it).fanin) {
        obs_dist_[f.index()] = std::min(obs_dist_[f.index()], here + 1);
      }
    }
    depth_.assign(netlist.gate_count(), 0);
    for (GateId id : order) {
      unsigned d = 0;
      for (GateId f : netlist.gate(id).fanin) {
        d = std::max(d, depth_[f.index()] + 1);
      }
      const auto kind = netlist.gate(id).kind;
      depth_[id.index()] =
          (kind == GateKind::kInput || kind == GateKind::kDff) ? 0 : d;
    }
  }

  static constexpr unsigned kFarAway = 1u << 30;

  PodemResult run() {
    PodemResult result;
    struct Decision {
      std::size_t pos;
      bool flipped;
    };
    std::vector<Decision> stack;

    imply();
    while (true) {
      if (!conflict() && detected()) {
        result.outcome = PodemResult::Outcome::kFound;
        fill_pattern(result);
        result.backtracks = backtracks_;
        return result;
      }

      std::int32_t obj_pos = -1;
      bool obj_value = false;
      const bool progress =
          !conflict() && x_path_exists() && next_objective(obj_pos, obj_value);

      if (progress) {
        stack.push_back(Decision{static_cast<std::size_t>(obj_pos), false});
        assign_[obj_pos] = obj_value ? V3::k1 : V3::k0;
        imply();
        continue;
      }

      // Backtrack.
      ++backtracks_;
      if (backtracks_ > options_.backtrack_limit) {
        result.outcome = PodemResult::Outcome::kAborted;
        result.backtracks = backtracks_;
        return result;
      }
      bool resumed = false;
      while (!stack.empty()) {
        Decision& top = stack.back();
        if (!top.flipped) {
          top.flipped = true;
          assign_[top.pos] = ~assign_[top.pos];
          imply();
          resumed = true;
          break;
        }
        assign_[top.pos] = V3::kX;
        stack.pop_back();
      }
      if (!resumed) {
        imply();
        result.outcome = PodemResult::Outcome::kUntestable;
        result.backtracks = backtracks_;
        return result;
      }
    }
  }

 private:
  /// Full-circuit composite implication from the current assignments.
  void imply() {
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      good_[lines_[i].index()] = assign_[i];
      faulty_[lines_[i].index()] = assign_[i];
    }
    // Stem faults on input lines force the faulty side immediately.
    for (GateId id : netlist_.topo_order()) {
      const Gate& g = netlist_.gate(id);
      if (g.kind == GateKind::kInput || g.kind == GateKind::kDff) {
        apply_fault_at(id);
        continue;
      }
      good_[id.index()] = gate::eval_gate<V3>(
          g.kind, g.fanin.size(),
          [&](std::size_t p) { return good_[g.fanin[p].index()]; });
      // A pin fault holds its pin at the stuck value on the faulty side.
      const std::int32_t pin = site_pin_[id.index()];
      const V3 stuck = site_value_[id.index()] ? V3::k1 : V3::k0;
      faulty_[id.index()] = gate::eval_gate<V3>(
          g.kind, g.fanin.size(), [&](std::size_t p) {
            return static_cast<std::int32_t>(p) == pin
                       ? stuck
                       : faulty_[g.fanin[p].index()];
          });
      apply_fault_at(id);
    }
  }

  void apply_fault_at(GateId id) {
    if (site_pin_[id.index()] == -1) {  // stem fault
      faulty_[id.index()] = site_value_[id.index()] ? V3::k1 : V3::k0;
    }
  }

  /// The good-side value a site's line must take to excite that site.
  static V3 required_site_value(const Fault& f) {
    return f.stuck_at ? V3::k0 : V3::k1;
  }

  /// The good-circuit line whose value excites a site: the gate itself
  /// for stem faults, the driving gate for pin faults.
  GateId excitation_line(const Fault& f) const {
    if (f.pin < 0) return f.gate;
    return netlist_.gate(f.gate).fanin[f.pin];
  }

  /// Some site is excited (the fault effect originates somewhere).
  bool excited() const {
    for (const Fault& f : faults_) {
      if (good_[excitation_line(f).index()] == required_site_value(f)) {
        return true;
      }
    }
    return false;
  }

  /// Every site's excitation line settled to the stuck value: no test
  /// exists down this branch.
  bool conflict() const {
    for (const Fault& f : faults_) {
      if (good_[excitation_line(f).index()] != ~required_site_value(f)) {
        return false;
      }
    }
    return true;
  }

  bool is_d(GateId id) const {
    const V3 g = good_[id.index()];
    const V3 f = faulty_[id.index()];
    return g != V3::kX && f != V3::kX && g != f;
  }

  /// A line is still assignable/propagatable when either side is unknown.
  /// (Inside the fault cone the two sides diverge: a line can be known
  /// good but X faulty — e.g. AND(fault-site, unassigned) — and the
  /// objective machinery must still drive the unassigned support.)
  bool is_x(GateId id) const {
    return good_[id.index()] == V3::kX || faulty_[id.index()] == V3::kX;
  }

  bool detected() const {
    return std::any_of(observe_.begin(), observe_.end(),
                       [this](GateId id) { return is_d(id); });
  }

  /// An excited input-pin fault puts the D on the pin itself rather than on
  /// any circuit line, so the fault gate must join the D-frontier directly.
  void pending_pin_sites(std::vector<GateId>& out) const {
    for (const Fault& f : faults_) {
      if (f.pin < 0) continue;
      if (good_[excitation_line(f).index()] != required_site_value(f)) {
        continue;
      }
      if (good_[f.gate.index()] == V3::kX ||
          faulty_[f.gate.index()] == V3::kX) {
        out.push_back(f.gate);
      }
    }
  }

  /// D-frontier: gates whose output is X on either side but with a D on
  /// some input (plus fault gates with excited pin faults).
  std::vector<GateId> d_frontier() const {
    std::vector<GateId> frontier;
    pending_pin_sites(frontier);
    for (GateId id : netlist_.topo_order()) {
      const Gate& g = netlist_.gate(id);
      if (g.kind == GateKind::kInput || g.kind == GateKind::kDff) continue;
      if (good_[id.index()] != V3::kX && faulty_[id.index()] != V3::kX) {
        continue;
      }
      for (GateId f : g.fanin) {
        if (is_d(f)) {
          frontier.push_back(id);
          break;
        }
      }
    }
    return frontier;
  }

  /// Does any D still have a potential sensitized path to an observe point
  /// through X gates?
  bool x_path_exists() const {
    if (!excited()) return true;  // excitation itself is still pending
    if (detected()) return true;
    std::vector<char> seen(netlist_.gate_count(), 0);
    std::vector<GateId> queue;
    {
      std::vector<GateId> pending;
      pending_pin_sites(pending);
      for (GateId id : pending) {
        if (!seen[id.index()]) {
          queue.push_back(id);
          seen[id.index()] = 1;
        }
      }
    }
    for (GateId id : netlist_.topo_order()) {
      if (is_d(id)) {
        queue.push_back(id);
        seen[id.index()] = 1;
      }
    }
    const auto& fanouts = netlist_.fanouts();
    std::vector<char> observable(netlist_.gate_count(), 0);
    for (GateId id : observe_) observable[id.index()] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const GateId id = queue[head];
      if (observable[id.index()]) return true;
      for (GateId next : fanouts[id.index()]) {
        if (seen[next.index()]) continue;
        const Gate& g = netlist_.gate(next);
        if (g.kind == GateKind::kDff) continue;
        // A gate can still pass the effect only if its output is X on some
        // side (otherwise it is already decided).
        if (good_[next.index()] != V3::kX &&
            faulty_[next.index()] != V3::kX) {
          continue;
        }
        seen[next.index()] = 1;
        queue.push_back(next);
      }
    }
    return false;
  }

  /// Pick the next objective (line, value).  Returns false when stuck.
  bool next_objective(std::int32_t& out_pos, bool& out_value) {
    GateId line;
    bool value = false;
    if (!excited()) {
      bool found = false;
      for (const Fault& f : faults_) {
        const GateId candidate = excitation_line(f);
        if (good_[candidate.index()] == V3::kX) {
          line = candidate;
          value = required_site_value(f) == V3::k1;
          found = true;
          break;
        }
      }
      if (!found) return false;
    } else {
      auto frontier = d_frontier();
      if (frontier.empty()) return false;
      GateId chosen = frontier.front();
      for (GateId cand : frontier) {
        if (obs_dist_[cand.index()] < obs_dist_[chosen.index()]) {
          chosen = cand;
        }
      }
      const Gate& g = netlist_.gate(chosen);
      std::int32_t x_pin = -1;
      for (std::size_t p = 0; p < g.fanin.size(); ++p) {
        if (is_x(g.fanin[p])) {
          x_pin = static_cast<std::int32_t>(p);
          break;
        }
      }
      if (x_pin < 0) return false;
      line = g.fanin[x_pin];
      switch (g.kind) {
        case GateKind::kAnd:
        case GateKind::kNand:
          value = true;  // non-controlling
          break;
        case GateKind::kOr:
        case GateKind::kNor:
          value = false;
          break;
        default:
          value = false;  // XOR/XNOR propagate either way
          break;
      }
    }
    return backtrace(line, value, out_pos, out_value);
  }

  /// Walk the objective back to an unassigned input line.
  bool backtrace(GateId line, bool value, std::int32_t& out_pos,
                 bool& out_value) const {
    for (unsigned guard = 0; guard < netlist_.gate_count() + 1; ++guard) {
      const std::int32_t pos = line_pos_[line.index()];
      if (pos >= 0) {
        if (assign_[pos] != V3::kX) return false;  // already decided
        out_pos = pos;
        out_value = value;
        return true;
      }
      const Gate& g = netlist_.gate(line);
      std::int32_t x_pin = -1;
      for (std::size_t p = 0; p < g.fanin.size(); ++p) {
        if (!is_x(g.fanin[p])) continue;
        if (x_pin < 0 ||
            depth_[g.fanin[p].index()] < depth_[g.fanin[x_pin].index()]) {
          x_pin = static_cast<std::int32_t>(p);
        }
      }
      if (x_pin < 0) return false;
      switch (g.kind) {
        case GateKind::kNot:
        case GateKind::kNand:
        case GateKind::kNor:
        case GateKind::kXnor:
          value = !value;
          break;
        default:
          break;  // AND/OR/BUF/XOR keep parity
      }
      line = g.fanin[x_pin];
    }
    return false;
  }

  void fill_pattern(PodemResult& result) const {
    const std::size_t n_pi = netlist_.inputs().size();
    const std::size_t n_ppi = netlist_.dffs().size();
    result.pattern.pi = util::BitVector(n_pi);
    result.pattern.ppi = util::BitVector(n_ppi);
    result.pi_dont_care.assign(n_pi, false);
    result.ppi_dont_care.assign(n_ppi, false);
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const bool is_pi = i < n_pi;
      const std::size_t k = is_pi ? i : i - n_pi;
      if (assign_[i] == V3::kX) {
        (is_pi ? result.pi_dont_care : result.ppi_dont_care)[k] = true;
      } else if (assign_[i] == V3::k1) {
        (is_pi ? result.pattern.pi : result.pattern.ppi).set(k, true);
      }
    }
  }

  static constexpr std::int32_t kNoFault = -2;

  const gate::GateNetlist& netlist_;
  const std::vector<Fault> faults_;
  const PodemOptions options_;
  std::vector<std::int32_t> site_pin_;   ///< kNoFault / -1 stem / pin index
  std::vector<std::uint8_t> site_value_;

  std::vector<GateId> lines_;
  std::vector<std::int32_t> line_pos_;
  std::vector<V3> assign_;
  std::vector<V3> good_;
  std::vector<V3> faulty_;
  std::vector<GateId> observe_;
  std::vector<unsigned> obs_dist_;
  std::vector<unsigned> depth_;
  unsigned backtracks_ = 0;
};

}  // namespace

PodemResult podem(const gate::GateNetlist& netlist, const faultsim::Fault& fault,
                  const PodemOptions& options) {
  return Podem(netlist, {fault}, options).run();
}

PodemResult podem_multi(const gate::GateNetlist& netlist,
                        const std::vector<faultsim::Fault>& sites,
                        const PodemOptions& options) {
  return Podem(netlist, sites, options).run();
}

}  // namespace socet::atpg
