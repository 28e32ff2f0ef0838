// Differential tests for PODEM.
//
// The library's PODEM implies event by event over the fault's cone.  The
// reference below is the full-sweep implementation it replaced: every
// implication re-evaluates the good and the faulty circuit over every
// gate in topological order, and the D-frontier and X-path checks scan
// the whole netlist.  The search itself is the same, so for every fault
// both must report the same outcome, backtrack count, pattern bits and
// don't-care masks.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "socet/atpg/podem.hpp"
#include "socet/atpg/sequential.hpp"
#include "socet/gate/eval.hpp"
#include "socet/rtl/netlist.hpp"
#include "socet/synth/elaborate.hpp"
#include "socet/systems/systems.hpp"
#include "socet/util/error.hpp"

#include "random_gates.hpp"

namespace socet::atpg {

// V3's operators for gate::eval_gate, found by argument-dependent lookup.
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
using gate::GateNetlist;

// ------------------------------------------------------ naive reference

/// Full-sweep PODEM, one object per query.
class ReferencePodem {
 public:
  ReferencePodem(const GateNetlist& netlist, std::vector<Fault> faults,
                 const PodemOptions& options)
      : netlist_(netlist), faults_(std::move(faults)), options_(options) {
    site_pin_.assign(netlist.gate_count(), kNoFault);
    site_value_.assign(netlist.gate_count(), 0);
    for (const Fault& f : faults_) {
      faultsim::check_fault_site(netlist.gate(f.gate), f);
      util::require(site_pin_[f.gate.index()] == kNoFault,
                    "podem: two fault sites on one gate");
      site_pin_[f.gate.index()] = f.pin;
      site_value_[f.gate.index()] = f.stuck_at ? 1 : 0;
    }
    for (GateId id : netlist.inputs()) lines_.push_back(id);
    for (GateId id : netlist.dffs()) lines_.push_back(id);
    line_pos_.assign(netlist.gate_count(), -1);
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      line_pos_[lines_[i].index()] = static_cast<std::int32_t>(i);
    }
    assign_.assign(lines_.size(), V3::kX);
    good_.assign(netlist.gate_count(), V3::kX);
    faulty_.assign(netlist.gate_count(), V3::kX);
    const auto& gates = netlist.gates();
    fanouts_.resize(gates.size());
    for (std::size_t i = 0; i < gates.size(); ++i) {
      for (GateId f : gates[i].fanin) {
        fanouts_[f.index()].push_back(GateId(static_cast<std::uint32_t>(i)));
      }
    }

    observe_ = netlist.outputs();
    for (GateId dff : netlist.dffs()) {
      observe_.push_back(netlist.gate(dff).fanin[0]);
    }
    std::sort(observe_.begin(), observe_.end());
    observe_.erase(std::unique(observe_.begin(), observe_.end()),
                   observe_.end());

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
      const bool progress = !conflict() && x_path_exists() &&
                            next_objective(obj_pos, obj_value);
      if (progress) {
        stack.push_back(Decision{static_cast<std::size_t>(obj_pos), false});
        assign_[obj_pos] = obj_value ? V3::k1 : V3::k0;
        imply();
        continue;
      }
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
        result.outcome = PodemResult::Outcome::kUntestable;
        result.backtracks = backtracks_;
        return result;
      }
    }
  }

 private:
  static constexpr unsigned kFarAway = 1u << 30;
  static constexpr std::int32_t kNoFault = -2;

  /// Composite implication over the whole circuit.
  void imply() {
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      good_[lines_[i].index()] = assign_[i];
      faulty_[lines_[i].index()] = assign_[i];
    }
    for (GateId id : netlist_.topo_order()) {
      const Gate& g = netlist_.gate(id);
      if (g.kind == GateKind::kInput || g.kind == GateKind::kDff) {
        apply_stem_fault(id);
        continue;
      }
      good_[id.index()] = gate::eval_gate<V3>(
          g.kind, g.fanin.size(),
          [&](std::size_t p) { return good_[g.fanin[p].index()]; });
      const std::int32_t pin = site_pin_[id.index()];
      const V3 stuck = site_value_[id.index()] ? V3::k1 : V3::k0;
      faulty_[id.index()] = gate::eval_gate<V3>(
          g.kind, g.fanin.size(), [&](std::size_t p) {
            return static_cast<std::int32_t>(p) == pin
                       ? stuck
                       : faulty_[g.fanin[p].index()];
          });
      apply_stem_fault(id);
    }
  }

  void apply_stem_fault(GateId id) {
    if (site_pin_[id.index()] == -1) {
      faulty_[id.index()] = site_value_[id.index()] ? V3::k1 : V3::k0;
    }
  }

  static V3 required_site_value(const Fault& f) {
    return f.stuck_at ? V3::k0 : V3::k1;
  }

  GateId excitation_line(const Fault& f) const {
    if (f.pin < 0) return f.gate;
    return netlist_.gate(f.gate).fanin[f.pin];
  }

  bool excited() const {
    for (const Fault& f : faults_) {
      if (good_[excitation_line(f).index()] == required_site_value(f)) {
        return true;
      }
    }
    return false;
  }

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

  bool is_x(GateId id) const {
    return good_[id.index()] == V3::kX || faulty_[id.index()] == V3::kX;
  }

  bool detected() const {
    return std::any_of(observe_.begin(), observe_.end(),
                       [this](GateId id) { return is_d(id); });
  }

  void pending_pin_sites(std::vector<GateId>& out) const {
    for (const Fault& f : faults_) {
      if (f.pin < 0) continue;
      if (good_[excitation_line(f).index()] != required_site_value(f)) {
        continue;
      }
      if (is_x(f.gate)) out.push_back(f.gate);
    }
  }

  std::vector<GateId> d_frontier() const {
    std::vector<GateId> frontier;
    pending_pin_sites(frontier);
    for (GateId id : netlist_.topo_order()) {
      const Gate& g = netlist_.gate(id);
      if (g.kind == GateKind::kInput || g.kind == GateKind::kDff) continue;
      if (!is_x(id)) continue;
      for (GateId f : g.fanin) {
        if (is_d(f)) {
          frontier.push_back(id);
          break;
        }
      }
    }
    return frontier;
  }

  bool x_path_exists() const {
    if (!excited()) return true;
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
    std::vector<char> observable(netlist_.gate_count(), 0);
    for (GateId id : observe_) observable[id.index()] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const GateId id = queue[head];
      if (observable[id.index()]) return true;
      for (GateId next : fanouts_[id.index()]) {
        if (seen[next.index()]) continue;
        if (netlist_.gate(next).kind == GateKind::kDff) continue;
        if (!is_x(next)) continue;
        seen[next.index()] = 1;
        queue.push_back(next);
      }
    }
    return false;
  }

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

  bool backtrace(GateId line, bool value, std::int32_t& out_pos,
                 bool& out_value) const {
    for (unsigned guard = 0; guard < netlist_.gate_count() + 1; ++guard) {
      const std::int32_t pos = line_pos_[line.index()];
      if (pos >= 0) {
        if (assign_[pos] != V3::kX) return false;
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
          break;
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

  const GateNetlist& netlist_;
  const std::vector<Fault> faults_;
  const PodemOptions options_;
  std::vector<std::int32_t> site_pin_;
  std::vector<std::uint8_t> site_value_;
  std::vector<GateId> lines_;
  std::vector<std::int32_t> line_pos_;
  std::vector<V3> assign_;
  std::vector<V3> good_;
  std::vector<V3> faulty_;
  std::vector<std::vector<GateId>> fanouts_;
  std::vector<GateId> observe_;
  std::vector<unsigned> obs_dist_;
  std::vector<unsigned> depth_;
  unsigned backtracks_ = 0;
};

PodemResult reference_podem(const GateNetlist& netlist,
                            std::vector<Fault> sites,
                            const PodemOptions& options) {
  return ReferencePodem(netlist, std::move(sites), options).run();
}

// --------------------------------------------------------------- helpers

const char* outcome_name(PodemResult::Outcome outcome) {
  switch (outcome) {
    case PodemResult::Outcome::kFound:
      return "found";
    case PodemResult::Outcome::kUntestable:
      return "untestable";
    case PodemResult::Outcome::kAborted:
      return "aborted";
  }
  return "?";
}

/// "" when the two results agree, else what differs.
std::string difference(const PodemResult& want, const PodemResult& got) {
  if (got.outcome != want.outcome) {
    return std::string("outcome ") + outcome_name(got.outcome) + ", want " +
           outcome_name(want.outcome);
  }
  if (got.backtracks != want.backtracks) {
    return "backtracks " + std::to_string(got.backtracks) + ", want " +
           std::to_string(want.backtracks);
  }
  if (!(got.pattern.pi == want.pattern.pi)) return "pi bits differ";
  if (!(got.pattern.ppi == want.pattern.ppi)) return "ppi bits differ";
  if (got.pi_dont_care != want.pi_dont_care) return "pi don't-cares differ";
  if (got.ppi_dont_care != want.ppi_dont_care) {
    return "ppi don't-cares differ";
  }
  return "";
}

/// Tallies disagreements, keeping the first few for the failure message,
/// and the reference's outcomes, so a test can show it reached each one.
struct Mismatches {
  std::size_t count = 0;
  std::size_t compared = 0;
  std::size_t multi_site_found = 0;
  std::size_t outcomes[3] = {0, 0, 0};  ///< by PodemResult::Outcome
  std::string first;

  [[nodiscard]] std::size_t with(PodemResult::Outcome outcome) const {
    return outcomes[static_cast<int>(outcome)];
  }

  void check(const GateNetlist& netlist, const std::vector<Fault>& sites,
             const PodemResult& want, const PodemResult& got) {
    ++compared;
    ++outcomes[static_cast<int>(want.outcome)];
    if (sites.size() > 1 && want.outcome == PodemResult::Outcome::kFound) {
      ++multi_site_found;
    }
    const std::string diff = difference(want, got);
    if (diff.empty()) return;
    if (++count <= 3) {
      first += "\n  " + faultsim::describe_fault(netlist, sites.front()) +
               (sites.size() > 1
                    ? " (+" + std::to_string(sites.size() - 1) + " sites)"
                    : "") +
               ": " + diff;
    }
  }
};

/// Run every fault of `faults` through one reused context and through the
/// reference; return the disagreements.
Mismatches compare_single_sites(const GateNetlist& netlist,
                                const std::vector<Fault>& faults,
                                const PodemOptions& options) {
  Podem podem(netlist);
  Mismatches mismatches;
  for (const Fault& fault : faults) {
    mismatches.check(netlist, {fault}, reference_podem(netlist, {fault}, options),
                     podem.run(fault, options));
  }
  return mismatches;
}

GateNetlist gcd_gates() {
  auto system = systems::make_system2();
  return synth::elaborate(system.core_named("GCD").netlist()).gates;
}

/// A small sequential datapath: an accumulator register loaded with
/// IN + ACC or IN through a mux, so its state feeds back through logic.
GateNetlist accumulator_gates() {
  rtl::Netlist core("acc");
  auto in = core.add_input("IN", 4);
  auto out = core.add_output("OUT", 4);
  auto acc = core.add_register("ACC", 4, /*has_load_enable=*/false);
  auto add = core.add_fu("ADD", rtl::FuKind::kAdd, 4, 2);
  auto sel = core.add_input("SEL", 1, rtl::PortKind::kControl);
  auto mux = core.add_mux("M", 4, 2);
  core.connect(core.pin(in), core.fu_in(add, 0));
  core.connect(core.reg_q(acc), core.fu_in(add, 1));
  core.connect(core.fu_out(add), core.mux_in(mux, 0));
  core.connect(core.pin(in), core.mux_in(mux, 1));
  core.connect(core.pin(sel), core.mux_select(mux));
  core.connect(core.mux_out(mux), core.reg_d(acc));
  core.connect(core.reg_q(acc), core.pin(out));
  return synth::elaborate(core).gates;
}

// ----------------------------------------------------------------- tests

TEST(PodemOracle, EveryCollapsedGcdFaultMatchesAtBothLimits) {
  const GateNetlist gates = gcd_gates();
  const auto faults = faultsim::enumerate_faults(gates);
  ASSERT_GT(faults.size(), 1000u);
  for (const unsigned limit : {24u, 512u}) {
    const Mismatches m =
        compare_single_sites(gates, faults, {.backtrack_limit = limit});
    EXPECT_EQ(m.compared, faults.size());
    EXPECT_EQ(m.count, 0u) << "limit " << limit << m.first;
    EXPECT_GT(m.with(PodemResult::Outcome::kFound), 0u);
    EXPECT_GT(m.with(PodemResult::Outcome::kUntestable), 0u);
    EXPECT_GT(m.with(PodemResult::Outcome::kAborted), 0u);
  }
}

TEST(PodemOracle, UncollapsedRandomNetlistsMatch) {
  std::size_t aborted = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    const GateNetlist gates = make_random_gates(seed, 8, 60);
    const auto faults = faultsim::enumerate_faults(gates, /*collapse=*/false);
    for (const unsigned limit : {2u, 64u}) {
      const Mismatches m =
          compare_single_sites(gates, faults, {.backtrack_limit = limit});
      EXPECT_EQ(m.count, 0u) << "seed " << seed << " limit " << limit
                             << m.first;
      EXPECT_GT(m.with(PodemResult::Outcome::kFound), 0u);
      aborted += m.with(PodemResult::Outcome::kAborted);
    }
  }
  EXPECT_GT(aborted, 0u);
}

TEST(PodemOracle, UncollapsedFullScanSequentialCoreMatches) {
  // Flip-flops are decision variables (PPIs) and their D drivers observe
  // points (PPOs); the uncollapsed list adds D-pin faults on them.
  const GateNetlist gates = accumulator_gates();
  ASSERT_FALSE(gates.dffs().empty());
  const auto faults = faultsim::enumerate_faults(gates, /*collapse=*/false);
  const bool has_dff_pin_fault =
      std::any_of(faults.begin(), faults.end(), [&](const Fault& f) {
        return f.pin >= 0 && gates.gate(f.gate).kind == GateKind::kDff;
      });
  ASSERT_TRUE(has_dff_pin_fault);
  const Mismatches m = compare_single_sites(gates, faults, {});
  EXPECT_EQ(m.count, 0u) << m.first;
}

TEST(PodemOracle, MultiSiteQueriesOnUnrolledFramesMatch) {
  const GateNetlist sequential = accumulator_gates();
  const auto faults =
      faultsim::enumerate_faults(sequential, /*collapse=*/false);
  for (const unsigned frames : {1u, 2u, 4u}) {
    const UnrolledCircuit unrolled = unroll(sequential, frames);
    Podem podem(unrolled.netlist);
    Mismatches m;
    for (const Fault& fault : faults) {
      const auto sites = map_fault(unrolled, fault);
      if (sites.empty()) continue;
      const PodemOptions options{.backtrack_limit = 256};
      m.check(unrolled.netlist, sites,
              reference_podem(unrolled.netlist, sites, options),
              podem.run(sites, options));
    }
    EXPECT_GT(m.compared, faults.size() / 2) << frames << " frames";
    EXPECT_EQ(m.count, 0u) << frames << " frames" << m.first;
    if (frames > 1) {
      EXPECT_GT(m.multi_site_found, 0u) << frames << " frames";
    }
  }
}

TEST(PodemOracle, ReusedContextMatchesFreshContexts) {
  // One context runs the list forward, backward, and again after queries
  // that throw part-way through installing their sites; every answer must
  // equal a fresh context's.
  const GateNetlist gates = accumulator_gates();
  const auto faults = faultsim::enumerate_faults(gates, /*collapse=*/false);
  std::vector<PodemResult> fresh;
  for (const Fault& fault : faults) fresh.push_back(Podem(gates).run(fault));

  Podem reused(gates);
  const auto expect_all_match = [&](const char* when, bool backward) {
    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < faults.size(); ++k) {
      const std::size_t i = backward ? faults.size() - 1 - k : k;
      const std::string diff = difference(fresh[i], reused.run(faults[i]));
      if (!diff.empty() && ++mismatches == 1) {
        ADD_FAILURE() << when << ": "
                      << faultsim::describe_fault(gates, faults[i]) << ": "
                      << diff;
      }
    }
    EXPECT_EQ(mismatches, 0u) << when;
  };
  expect_all_match("forward", false);
  expect_all_match("backward", true);

  const Fault stem = faults.front();
  const Fault on_input_pin{gates.inputs().front(), 0, true};
  const std::vector<Fault> bad_pin = {stem, on_input_pin};
  EXPECT_THROW(reused.run(bad_pin), util::Error);
  const std::vector<Fault> same_gate = {stem, Fault{stem.gate, -1, !stem.stuck_at}};
  EXPECT_THROW(reused.run(same_gate), util::Error);
  EXPECT_THROW(reused.run(on_input_pin), util::Error);
  expect_all_match("after a throw", false);
}

}  // namespace
}  // namespace socet::atpg
