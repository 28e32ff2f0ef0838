#include "socet/atpg/podem.hpp"

#include <algorithm>

#include "socet/gate/eval.hpp"
#include "socet/gate/flat.hpp"
#include "socet/obs/metrics.hpp"

namespace socet::atpg {

// V3's logic operators, in V3's own namespace so that gate::eval_gate
// finds them by argument-dependent lookup.  V3{} is k0.  Truth tables
// indexed by the operands (k0, k1, kX) keep implication's inner loop
// free of data-dependent branches.
namespace {
constexpr V3 k0 = V3::k0, k1 = V3::k1, kX = V3::kX;
constexpr V3 kNot[3] = {k1, k0, kX};
constexpr V3 kAnd[3][3] = {{k0, k0, k0}, {k0, k1, kX}, {k0, kX, kX}};
constexpr V3 kOr[3][3] = {{k0, k1, kX}, {k1, k1, k1}, {kX, k1, kX}};
constexpr V3 kXor[3][3] = {{k0, k1, kX}, {k1, k0, kX}, {kX, kX, kX}};
}  // namespace

static V3 operator~(V3 a) { return kNot[static_cast<int>(a)]; }

static V3 operator&(V3 a, V3 b) {
  return kAnd[static_cast<int>(a)][static_cast<int>(b)];
}

static V3 operator|(V3 a, V3 b) {
  return kOr[static_cast<int>(a)][static_cast<int>(b)];
}

static V3 operator^(V3 a, V3 b) {
  return kXor[static_cast<int>(a)][static_cast<int>(b)];
}

namespace {

using faultsim::Fault;
using gate::FlatNetlist;
using gate::GateKind;

constexpr std::int32_t kNoFault = -2;  ///< site_pin_: no site on the slot
constexpr std::int32_t kStem = -1;     ///< site_pin_: output-stem fault
constexpr unsigned kFarAway = 1u << 30;

/// Start a new epoch of `marks`: entries equal to the returned value are
/// marked, every other entry is not.  On wrap-around the marks are
/// cleared so that no stale entry matches the new epoch.
std::uint32_t next_epoch(std::uint32_t& epoch,
                         std::vector<std::uint32_t>& marks) {
  if (++epoch == 0) {
    std::fill(marks.begin(), marks.end(), 0);
    epoch = 1;
  }
  return epoch;
}

}  // namespace

class Podem::Engine {
 public:
  explicit Engine(const gate::GateNetlist& netlist);

  PodemResult run(std::span<const Fault> faults, const PodemOptions& options);

 private:
  struct Site {
    std::uint32_t slot;    ///< the fault's gate
    /// The good-circuit line whose value excites the site: the gate
    /// itself for a stem fault, the driving gate for a pin fault.
    std::uint32_t excite;
    V3 required;  ///< the value of `excite` that excites the site
    bool pin;     ///< an input-pin fault
  };

  void load_sites(std::span<const Fault> faults);
  void mark_cone();
  PodemResult search(const PodemOptions& options);

  // ---------------------------------------------------------- implication

  void assign(std::uint32_t pos, V3 value) {
    assign_[pos] = value;
    dirty_.push_back(pos);
  }

  /// Bring every value up to date with the assignments: seed from each
  /// decision variable whose assignment moved since the last implication,
  /// then drain the pending slots lowest first, which is level order.
  void imply() {
    for (const std::uint32_t pos : dirty_) {
      const V3 good = assign_[pos];
      const V3 faulty = site_pin_[pos] == kStem ? site_stuck_[pos] : good;
      if (good == good_[pos] && faulty == faulty_[pos]) continue;
      good_[pos] = good;
      faulty_[pos] = faulty;
      events_.push_fanouts(pos);
    }
    dirty_.clear();
    events_.drain([this](std::uint32_t slot) {
      evaluate(slot);
      return true;
    });
  }

  /// Re-evaluate logic slot `slot`; wake its fanouts if either value moved.
  void evaluate(std::uint32_t slot) {
    const FlatNetlist::Node& g = flat_.node(slot);
    const std::uint32_t* fanin = flat_.fanins.data() + g.fanin_begin;
    const std::size_t n = g.fanin_end - g.fanin_begin;
    const V3 good = gate::eval_gate<V3>(
        g.kind, n, [&](std::size_t p) { return good_[fanin[p]]; });
    V3 faulty = good;  // outside the cone faulty equals good
    if (in_cone_[slot] == cone_epoch_) {
      const std::int32_t pin = site_pin_[slot];
      if (pin == kStem) {
        faulty = site_stuck_[slot];
      } else {
        // A pin fault holds its pin at the stuck value on the faulty side.
        faulty = gate::eval_gate<V3>(g.kind, n, [&](std::size_t p) {
          return static_cast<std::int32_t>(p) == pin ? site_stuck_[slot]
                                                     : faulty_[fanin[p]];
        });
      }
    }
    ++implied_;
    if (good == good_[slot] && faulty == faulty_[slot]) return;
    good_[slot] = good;
    faulty_[slot] = faulty;
    events_.push_fanouts(slot);
  }

  // --------------------------------------------------------------- queries

  bool is_d(std::uint32_t slot) const {
    const V3 g = good_[slot];
    const V3 f = faulty_[slot];
    return g != V3::kX && f != V3::kX && g != f;
  }

  /// A line is still assignable/propagatable when either side is unknown.
  /// (Inside the fault cone the two sides diverge: a line can be known
  /// good but X faulty — e.g. AND(fault-site, unassigned) — and the
  /// objective machinery must still drive the unassigned support.)
  bool is_x(std::uint32_t slot) const {
    return good_[slot] == V3::kX || faulty_[slot] == V3::kX;
  }

  /// The lines a slot reads: a logic gate's fanins, or a DFF's D driver
  /// (reached only through a D-pin fault site).
  std::span<const std::uint32_t> fanins_of(std::uint32_t slot) const {
    if (slot >= first_logic_) {
      const FlatNetlist::Node& g = flat_.node(slot);
      return {flat_.fanins.data() + g.fanin_begin,
              flat_.fanins.data() + g.fanin_end};
    }
    if (slot >= n_pi_) return {&flat_.dff_d[slot - n_pi_], 1};
    return {};
  }

  /// Some site is excited (the fault effect originates somewhere).
  bool excited() const {
    return std::any_of(sites_.begin(), sites_.end(), [this](const Site& s) {
      return good_[s.excite] == s.required;
    });
  }

  /// Every site's excitation line settled to the stuck value: no test
  /// exists down this branch.
  bool conflict() const {
    return std::all_of(sites_.begin(), sites_.end(), [this](const Site& s) {
      return good_[s.excite] == ~s.required;
    });
  }

  bool detected() const {
    return std::any_of(cone_observe_.begin(), cone_observe_.end(),
                       [this](std::uint32_t slot) { return is_d(slot); });
  }

  /// An excited input-pin fault puts the D on the pin itself rather than
  /// on any circuit line, so its gate joins the D-frontier directly while
  /// that gate's output is undecided.
  bool pin_site_pending(const Site& s) const {
    return s.pin && good_[s.excite] == s.required && is_x(s.slot);
  }

  bool has_d_fanin(std::uint32_t slot) const {
    for (const std::uint32_t f : fanins_of(slot)) {
      if (is_d(f)) return true;
    }
    return false;
  }

  /// The D-frontier gate to advance: the lowest distance to observation.
  /// Ties go to pending pin sites first, in site order, then to the gate
  /// earliest in GateNetlist::topo_order().
  bool pick_frontier(std::uint32_t& out) const {
    bool found = false;
    bool pending_site = false;
    for (const Site& s : sites_) {
      if (!pin_site_pending(s)) continue;
      if (!found || obs_dist_[s.slot] < obs_dist_[out]) {
        out = s.slot;
        found = true;
        pending_site = true;
      }
    }
    // Every gate with a D on a fanin lies in the cone.
    for (const std::uint32_t slot : cone_) {
      if (slot < first_logic_ || !is_x(slot) || !has_d_fanin(slot)) continue;
      const bool better =
          !found || obs_dist_[slot] < obs_dist_[out] ||
          (obs_dist_[slot] == obs_dist_[out] && !pending_site &&
           topo_pos_[slot] < topo_pos_[out]);
      if (!better) continue;
      out = slot;
      found = true;
      pending_site = false;
    }
    return found;
  }

  /// Does any D still have a potential sensitized path to an observe
  /// point through X gates?
  bool x_path_exists() {
    if (!excited()) return true;  // excitation itself is still pending
    if (detected()) return true;
    const std::uint32_t epoch = next_epoch(seen_epoch_, seen_);
    queue_.clear();
    for (const Site& s : sites_) {
      if (pin_site_pending(s) && seen_[s.slot] != epoch) {
        seen_[s.slot] = epoch;
        queue_.push_back(s.slot);
      }
    }
    for (const std::uint32_t slot : cone_) {
      if (is_d(slot)) {
        seen_[slot] = epoch;
        queue_.push_back(slot);
      }
    }
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const std::uint32_t slot = queue_[head];
      if (observable_[slot]) return true;
      for (std::uint32_t i = flat_.fanout_begin[slot];
           i < flat_.fanout_begin[slot + 1]; ++i) {
        const std::uint32_t next = flat_.fanouts[i];
        // A gate can still pass the effect only if its output is X on
        // some side (otherwise it is already decided).
        if (seen_[next] == epoch || !is_x(next)) continue;
        seen_[next] = epoch;
        queue_.push_back(next);
      }
    }
    return false;
  }

  /// Pick the next objective as a decision (position, value).  Returns
  /// false when stuck.
  bool next_objective(std::uint32_t& out_pos, bool& out_value) const {
    std::uint32_t line = 0;
    bool value = false;
    if (!excited()) {
      const auto target =
          std::find_if(sites_.begin(), sites_.end(), [this](const Site& s) {
            return good_[s.excite] == V3::kX;
          });
      if (target == sites_.end()) return false;
      line = target->excite;
      value = target->required == V3::k1;
    } else {
      std::uint32_t chosen = 0;
      if (!pick_frontier(chosen)) return false;
      const auto fanin = fanins_of(chosen);
      const auto x_pin = std::find_if(
          fanin.begin(), fanin.end(), [this](std::uint32_t f) { return is_x(f); });
      if (x_pin == fanin.end()) return false;
      line = *x_pin;
      // A pending D-pin site on a DFF (a source slot) takes the default.
      switch (chosen >= first_logic_ ? flat_.node(chosen).kind
                                     : GateKind::kDff) {
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

  /// Walk the objective back to an unassigned decision variable,
  /// descending the shallowest X fanin.
  bool backtrace(std::uint32_t line, bool value, std::uint32_t& out_pos,
                 bool& out_value) const {
    for (std::uint32_t guard = 0; guard <= flat_.slot_count(); ++guard) {
      if (line < first_logic_) {
        if (assign_[line] != V3::kX) return false;  // already decided
        out_pos = line;
        out_value = value;
        return true;
      }
      const FlatNetlist::Node& g = flat_.node(line);
      const std::uint32_t* fanin = flat_.fanins.data() + g.fanin_begin;
      std::int32_t x_pin = -1;
      for (std::uint32_t p = 0; p < g.fanin_end - g.fanin_begin; ++p) {
        if (!is_x(fanin[p])) continue;
        if (x_pin < 0 || depth_[fanin[p]] < depth_[fanin[x_pin]]) {
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
      line = fanin[x_pin];
    }
    return false;
  }

  void fill_pattern(PodemResult& result) const {
    const std::size_t n_ppi = first_logic_ - n_pi_;
    result.pattern.pi = util::BitVector(n_pi_);
    result.pattern.ppi = util::BitVector(n_ppi);
    result.pi_dont_care.assign(n_pi_, false);
    result.ppi_dont_care.assign(n_ppi, false);
    for (std::uint32_t i = 0; i < first_logic_; ++i) {
      const bool is_pi = i < n_pi_;
      const std::size_t k = is_pi ? i : i - n_pi_;
      if (assign_[i] == V3::kX) {
        (is_pi ? result.pi_dont_care : result.ppi_dont_care)[k] = true;
      } else if (assign_[i] == V3::k1) {
        (is_pi ? result.pattern.pi : result.pattern.ppi).set(k, true);
      }
    }
  }

  // Built once per netlist.  Slots follow gate::FlatNetlist; the decision
  // variables are the source slots, PIs then PPIs, so a variable's
  // position is its slot.
  const gate::GateNetlist& netlist_;
  const FlatNetlist flat_;
  const std::uint32_t first_logic_;
  const std::uint32_t n_pi_;
  std::vector<std::uint8_t> observable_;  ///< PO or DFF D driver
  /// Static guidance: distance to observation for D-frontier selection,
  /// logic depth for the backtrace's fanin choice (a SCOAP-lite), and the
  /// topo_order() position that breaks D-frontier ties.
  std::vector<unsigned> obs_dist_;
  std::vector<unsigned> depth_;
  std::vector<std::uint32_t> topo_pos_;
  std::vector<V3> base_;  ///< every value with every source X, fault-free

  // Scratch reused by every run().
  std::vector<std::int32_t> site_pin_;  ///< kNoFault, kStem or a pin index
  std::vector<V3> site_stuck_;
  std::vector<Site> sites_;
  std::vector<V3> assign_;
  std::vector<std::uint32_t> dirty_;  ///< positions assigned since imply()
  std::vector<V3> good_;
  std::vector<V3> faulty_;
  gate::SlotQueue events_;  ///< slots awaiting evaluation
  /// The current run's fanout cone: in_cone_[s] == cone_epoch_.
  std::vector<std::uint32_t> in_cone_;
  std::uint32_t cone_epoch_ = 0;
  std::vector<std::uint32_t> cone_;
  std::vector<std::uint32_t> cone_observe_;
  std::vector<std::uint32_t> seen_;  ///< X-path search marks
  std::uint32_t seen_epoch_ = 0;
  std::vector<std::uint32_t> queue_;
  std::uint64_t implied_ = 0;
};

Podem::Engine::Engine(const gate::GateNetlist& netlist)
    : netlist_(netlist),
      flat_(netlist),
      first_logic_(flat_.first_logic),
      n_pi_(static_cast<std::uint32_t>(netlist.inputs().size())),
      events_(flat_) {
  const std::uint32_t slots = flat_.slot_count();
  observable_.assign(slots, 0);
  for (const std::uint32_t slot : flat_.outputs) observable_[slot] = 1;
  for (const std::uint32_t slot : flat_.dff_d) observable_[slot] = 1;

  obs_dist_.assign(slots, kFarAway);
  for (std::uint32_t slot = 0; slot < slots; ++slot) {
    if (observable_[slot]) obs_dist_[slot] = 0;
  }
  for (std::uint32_t slot = slots; slot-- > first_logic_;) {
    const unsigned here = obs_dist_[slot];
    if (here == kFarAway) continue;
    for (const std::uint32_t f : fanins_of(slot)) {
      obs_dist_[f] = std::min(obs_dist_[f], here + 1);
    }
  }
  depth_.assign(slots, 0);
  for (std::uint32_t slot = first_logic_; slot < slots; ++slot) {
    unsigned d = 0;
    for (const std::uint32_t f : fanins_of(slot)) {
      d = std::max(d, depth_[f] + 1);
    }
    depth_[slot] = d;
  }
  topo_pos_.assign(slots, 0);
  const auto& order = netlist.topo_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    topo_pos_[flat_.slot_of[order[i].index()]] =
        static_cast<std::uint32_t>(i);
  }
  base_.assign(slots, V3::kX);
  for (std::uint32_t slot = first_logic_; slot < slots; ++slot) {
    const FlatNetlist::Node& g = flat_.node(slot);
    const std::uint32_t* fanin = flat_.fanins.data() + g.fanin_begin;
    base_[slot] = gate::eval_gate<V3>(
        g.kind, g.fanin_end - g.fanin_begin,
        [&](std::size_t p) { return base_[fanin[p]]; });
  }

  site_pin_.assign(slots, kNoFault);
  site_stuck_.assign(slots, V3::k0);
  assign_.assign(first_logic_, V3::kX);
  good_ = base_;
  faulty_ = base_;
  in_cone_.assign(slots, 0);
  seen_.assign(slots, 0);
}

/// Install the sites of one run, replacing the previous run's.  A site
/// that fails its checks throws before it is installed, and the sites
/// installed before it are cleared by the next run.
void Podem::Engine::load_sites(std::span<const Fault> faults) {
  util::require(!faults.empty(), "podem: need at least one fault site");
  for (const Site& s : sites_) site_pin_[s.slot] = kNoFault;
  sites_.clear();
  for (const Fault& f : faults) {
    const gate::Gate& g = netlist_.gate(f.gate);
    faultsim::check_fault_site(g, f);
    const std::uint32_t slot = flat_.slot_of[f.gate.index()];
    util::require(site_pin_[slot] == kNoFault,
                  "podem: two fault sites on one gate");
    const std::uint32_t excite =
        f.pin < 0 ? slot : flat_.slot_of[g.fanin[f.pin].index()];
    sites_.push_back(
        Site{slot, excite, f.stuck_at ? V3::k0 : V3::k1, f.pin >= 0});
    site_pin_[slot] = f.pin;
    site_stuck_[slot] = f.stuck_at ? V3::k1 : V3::k0;
  }
}

/// Mark the sites' fanout cone, the only place the faulty circuit can
/// differ from the good one, and collect the observe points inside it.
void Podem::Engine::mark_cone() {
  const std::uint32_t epoch = next_epoch(cone_epoch_, in_cone_);
  cone_.clear();
  cone_observe_.clear();
  for (const Site& s : sites_) {
    if (in_cone_[s.slot] == epoch) continue;
    in_cone_[s.slot] = epoch;
    cone_.push_back(s.slot);
  }
  for (std::size_t head = 0; head < cone_.size(); ++head) {
    const std::uint32_t slot = cone_[head];
    if (observable_[slot]) cone_observe_.push_back(slot);
    for (std::uint32_t i = flat_.fanout_begin[slot];
         i < flat_.fanout_begin[slot + 1]; ++i) {
      const std::uint32_t next = flat_.fanouts[i];
      if (in_cone_[next] == epoch) continue;
      in_cone_[next] = epoch;
      cone_.push_back(next);
    }
  }
}

PodemResult Podem::Engine::run(std::span<const Fault> faults,
                               const PodemOptions& options) {
  load_sites(faults);
  mark_cone();
  std::copy(base_.begin(), base_.end(), good_.begin());
  std::copy(base_.begin(), base_.end(), faulty_.begin());
  std::fill(assign_.begin(), assign_.end(), V3::kX);
  dirty_.clear();
  implied_ = 0;
  // The sites are the only lines that differ from the fault-free,
  // all-X baseline.
  for (const Site& s : sites_) {
    if (s.slot < first_logic_) {
      dirty_.push_back(s.slot);
    } else {
      events_.push(s.slot);
    }
  }
  PodemResult result = search(options);
  SOCET_COUNT_N("atpg/implied_gates", implied_);
  return result;
}

PodemResult Podem::Engine::search(const PodemOptions& options) {
  PodemResult result;
  struct Decision {
    std::uint32_t pos;
    bool flipped;
  };
  std::vector<Decision> stack;

  imply();
  while (true) {
    if (!conflict() && detected()) {
      result.outcome = PodemResult::Outcome::kFound;
      fill_pattern(result);
      return result;
    }

    std::uint32_t obj_pos = 0;
    bool obj_value = false;
    const bool progress =
        !conflict() && x_path_exists() && next_objective(obj_pos, obj_value);

    if (progress) {
      stack.push_back(Decision{obj_pos, false});
      assign(obj_pos, obj_value ? V3::k1 : V3::k0);
      imply();
      continue;
    }

    // Backtrack.  Popped decisions return to X without an implication of
    // their own: the next imply() seeds from every moved assignment.
    ++result.backtracks;
    if (result.backtracks > options.backtrack_limit) {
      result.outcome = PodemResult::Outcome::kAborted;
      return result;
    }
    bool resumed = false;
    while (!stack.empty()) {
      Decision& top = stack.back();
      if (!top.flipped) {
        top.flipped = true;
        assign(top.pos, ~assign_[top.pos]);
        imply();
        resumed = true;
        break;
      }
      assign(top.pos, V3::kX);
      stack.pop_back();
    }
    if (!resumed) {
      result.outcome = PodemResult::Outcome::kUntestable;
      return result;
    }
  }
}

Podem::Podem(const gate::GateNetlist& netlist)
    : engine_(std::make_unique<Engine>(netlist)) {}

Podem::~Podem() = default;

PodemResult Podem::run(const faultsim::Fault& fault,
                       const PodemOptions& options) {
  return engine_->run({&fault, 1}, options);
}

PodemResult Podem::run(std::span<const faultsim::Fault> sites,
                       const PodemOptions& options) {
  return engine_->run(sites, options);
}

}  // namespace socet::atpg
