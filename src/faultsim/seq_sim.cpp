#include "socet/faultsim/seq_sim.hpp"

#include <algorithm>
#include <cstdint>
#include <tuple>

#include "socet/faultsim/lane.hpp"
#include "socet/faultsim/scan_sim.hpp"
#include "socet/gate/eval.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/util/error.hpp"

namespace socet::faultsim {

namespace {

using gate::Gate;
using gate::GateId;
using gate::GateKind;
using gate::GateNetlist;

/// Lane width for `live_faults` faulty machines plus the good machine:
/// the policy ScanFaultSim applies to the same number of patterns.
unsigned lane_words_for(std::size_t live_faults) {
  return ScanFaultSim::auto_lane_words(live_faults + 1);
}

/// The netlist flattened for the per-cycle sweep.  Every gate gets a
/// slot: primary inputs first (in inputs() order), then DFFs (in dffs()
/// order), then logic gates level by level.  Within a level the gates are
/// grouped by kind so the evaluator's switch predicts well; any order
/// inside a level is topological.  Fanins are slot numbers in one shared
/// array, so the sweep reads no per-gate heap vectors.
struct FlatNetlist {
  struct Node {
    GateKind kind;
    std::uint32_t fanin_begin;  ///< range in `fanins`
    std::uint32_t fanin_end;
  };

  explicit FlatNetlist(const GateNetlist& netlist) {
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
      Node node{g.kind, static_cast<std::uint32_t>(fanins.size()), 0};
      for (GateId f : g.fanin) fanins.push_back(slot_of[f.index()]);
      node.fanin_end = static_cast<std::uint32_t>(fanins.size());
      logic.push_back(node);
    }
    for (GateId po : netlist.outputs()) outputs.push_back(slot_of[po.index()]);
    for (GateId dff : dffs) {
      dff_d.push_back(slot_of[netlist.gate(dff).fanin[0].index()]);
    }
  }

  std::vector<std::uint32_t> slot_of;  ///< gate index -> slot
  std::uint32_t first_logic = 0;       ///< slot of logic[0]
  std::vector<Node> logic;
  std::vector<std::uint32_t> fanins;
  std::vector<std::uint32_t> outputs;  ///< PO slots
  std::vector<std::uint32_t> dff_d;    ///< D-driver slot of each DFF
};

/// Value of logic node `g` in every machine of a pass.  Fanin
/// `forced_pin` (-1 for none) reads `forced` instead of its net: the
/// sweep passes -1, and an input-pin fault re-evaluates its gate with the
/// pin held at the stuck value.
template <unsigned W>
Lane<W> eval_node(const FlatNetlist& flat, const FlatNetlist::Node& g,
                  const std::vector<Lane<W>>& values, std::int32_t forced_pin,
                  const Lane<W>& forced) {
  const std::uint32_t* fanin = flat.fanins.data() + g.fanin_begin;
  return gate::eval_gate<Lane<W>>(
      g.kind, g.fanin_end - g.fanin_begin,
      [&](std::size_t p) -> const Lane<W>& {
        return static_cast<std::int32_t>(p) == forced_pin ? forced
                                                          : values[fanin[p]];
      });
}

/// Faults injected in one pass.  Only faulted gates get an entry, found
/// through `site_of` (by slot; -1: fault-free), so the table holds a few
/// hundred lanes however large the netlist is.
template <unsigned W>
class SiteTable {
 public:
  using L = Lane<W>;

  explicit SiteTable(std::size_t slots) : site_of_(slots, -1) {}

  /// Load the faults of `group` (machine m + 1 carries fault group[m]).
  void build(const GateNetlist& netlist, const FlatNetlist& flat,
             const std::vector<Fault>& faults,
             const std::vector<std::size_t>& group) {
    for (const Site& s : sites_) site_of_[s.slot] = -1;
    sites_.clear();
    pins_.clear();
    for (std::size_t m = 0; m < group.size(); ++m) {
      const Fault& f = faults[group[m]];
      check_fault_site(netlist.gate(f.gate), f);
      const auto machine = static_cast<unsigned>(m + 1);
      const std::uint32_t slot = flat.slot_of[f.gate.index()];
      std::int32_t& s = site_of_[slot];
      if (s < 0) {
        s = static_cast<std::int32_t>(sites_.size());
        sites_.push_back(Site{slot});
      }
      Site& site = sites_[s];
      if (f.pin < 0) {
        site.stem_mask.set_bit(machine);
        if (f.stuck_at) site.stem_value.set_bit(machine);
        continue;
      }
      PinFault pf{f.pin, f.stuck_at, L::zero(), site.first_pin};
      pf.machine.set_bit(machine);
      site.first_pin = static_cast<std::int32_t>(pins_.size());
      pins_.push_back(pf);
    }
  }

  /// Site index of `slot` in this pass, or -1.
  [[nodiscard]] std::int32_t site_of(std::uint32_t slot) const {
    return site_of_[slot];
  }

  /// Force the stem-faulted machines of site `s` onto their stuck values.
  [[nodiscard]] L inject_stem(std::int32_t s, const L& v) const {
    const Site& site = sites_[s];
    return (v & ~site.stem_mask) | site.stem_value;
  }

  /// Faulty value of logic node `g` (site `s`): each pin fault
  /// re-evaluates the gate with its pin forced, then stem faults override
  /// the output.
  [[nodiscard]] L inject(const FlatNetlist& flat, const FlatNetlist::Node& g,
                         std::int32_t s, L v,
                         const std::vector<L>& values) const {
    for (std::int32_t k = sites_[s].first_pin; k >= 0; k = pins_[k].next) {
      const PinFault& pf = pins_[k];
      const L faulty =
          eval_node(flat, g, values, pf.pin, L::fill(pf.stuck_at));
      v = (v & ~pf.machine) | (faulty & pf.machine);
    }
    return inject_stem(s, v);
  }

  /// Value DFF site `s` captures: a D-pin fault (uncollapsed lists only)
  /// forces the captured bit, leaving this cycle's Q untouched.
  [[nodiscard]] L capture(std::int32_t s, L d) const {
    for (std::int32_t k = sites_[s].first_pin; k >= 0; k = pins_[k].next) {
      const PinFault& pf = pins_[k];
      d = (d & ~pf.machine) | (L::fill(pf.stuck_at) & pf.machine);
    }
    return d;
  }

 private:
  struct Site {
    std::uint32_t slot;
    L stem_mask = L::zero();   ///< machines with an output-stem fault
    L stem_value = L::zero();  ///< their stuck values (within stem_mask)
    std::int32_t first_pin = -1;  ///< head of this site's list in pins_
  };
  /// One machine whose fault holds an input pin at a stuck value.
  struct PinFault {
    std::int32_t pin;
    bool stuck_at;
    L machine;          ///< the machine's bit
    std::int32_t next;  ///< next pin fault on the same site, or -1
  };

  std::vector<std::int32_t> site_of_;
  std::vector<Site> sites_;
  std::vector<PinFault> pins_;
};

/// One SequentialFaultSim::run call: the fault cursor shared by the
/// passes of every lane width, plus the counters they feed.
struct SeqRun {
  const GateNetlist& netlist;
  const FlatNetlist& flat;
  const std::vector<Fault>& faults;
  const std::vector<util::BitVector>& sequence;
  std::vector<FaultStatus>& statuses;
  std::size_t next_fault = 0;  ///< first fault no pass has taken yet
  std::size_t live = 0;        ///< undetected faults from next_fault on
  std::uint64_t passes = 0;
  std::uint64_t gate_evals = 0;

  /// Run passes of 64·W − 1 faulty machines while W is still the right
  /// width for the live fault count.
  template <unsigned W>
  void run_passes() {
    using L = Lane<W>;
    const std::size_t n_inputs = netlist.inputs().size();
    const std::size_t n_dffs = netlist.dffs().size();
    std::vector<L> values(netlist.gate_count(), L::zero());
    std::vector<L> state(n_dffs, L::zero());
    SiteTable<W> table(netlist.gate_count());
    std::vector<std::size_t> group;

    while (live > 0 && lane_words_for(live) == W) {
      // Bit 0 is the good machine; bits 1..group.size() the faulty ones.
      group.clear();
      while (group.size() < L::kPatterns - 1 && next_fault < faults.size()) {
        if (statuses[next_fault] == FaultStatus::kUndetected) {
          group.push_back(next_fault);
        }
        ++next_fault;
      }
      live -= group.size();
      table.build(netlist, flat, faults, group);
      L machines = L::zero();
      for (std::size_t m = 1; m <= group.size(); ++m) {
        machines.set_bit(static_cast<unsigned>(m));
      }
      ++passes;

      std::fill(state.begin(), state.end(), L::zero());
      L detected = L::zero();
      for (const auto& vector : sequence) {
        // Drive PIs (same pattern for all machines) and DFF state; their
        // slots are 0..n_inputs-1 and the n_dffs after.
        for (std::uint32_t i = 0; i < n_inputs + n_dffs; ++i) {
          L v = i < n_inputs ? L::fill(vector.get(i)) : state[i - n_inputs];
          const std::int32_t s = table.site_of(i);
          if (s >= 0) v = table.inject_stem(s, v);
          values[i] = v;
        }

        // Full topological sweep with in-line fault injection.
        std::uint32_t slot = flat.first_logic;
        for (const FlatNetlist::Node& g : flat.logic) {
          L v = eval_node(flat, g, values, -1, L::zero());
          const std::int32_t s = table.site_of(slot);
          if (s >= 0) v = table.inject(flat, g, s, v, values);
          values[slot++] = v;
        }
        gate_evals += flat.logic.size();

        // Observe primary outputs; stop once every machine is caught.
        for (std::uint32_t po : flat.outputs) {
          const L& word = values[po];
          detected |= word ^ L::fill(word.bit(0));
        }
        if (!(~detected).any(machines)) break;

        // Capture next state.
        for (std::size_t i = 0; i < n_dffs; ++i) {
          L d = values[flat.dff_d[i]];
          const std::int32_t s = table.site_of(
              static_cast<std::uint32_t>(n_inputs + i));
          if (s >= 0) d = table.capture(s, d);
          state[i] = d;
        }
      }

      for (std::size_t m = 0; m < group.size(); ++m) {
        if (detected.bit(static_cast<unsigned>(m + 1))) {
          statuses[group[m]] = FaultStatus::kDetected;
        }
      }
    }
  }
};

}  // namespace

SequentialFaultSim::SequentialFaultSim(const gate::GateNetlist& netlist)
    : netlist_(netlist) {}

void SequentialFaultSim::run(const std::vector<Fault>& faults,
                             const std::vector<util::BitVector>& sequence,
                             std::vector<FaultStatus>& statuses) {
  util::require(statuses.size() == faults.size(),
                "SequentialFaultSim::run: status vector size mismatch");
  const auto live = static_cast<std::size_t>(
      std::count(statuses.begin(), statuses.end(), FaultStatus::kUndetected));
  if (live == 0) return;
  const FlatNetlist flat(netlist_);
  SeqRun r{netlist_, flat, faults, sequence, statuses};
  r.live = live;

  // Widths only shrink as the live count falls: many 511-machine passes,
  // then at most one narrower pass for the remainder.
  while (r.live > 0) {
    switch (lane_words_for(r.live)) {
      case 1:
        r.run_passes<1>();
        break;
      case 4:
        r.run_passes<4>();
        break;
      default:
        r.run_passes<8>();
        break;
    }
  }

  SOCET_COUNT_N("faultsim/seq_passes", r.passes);
  SOCET_COUNT_N("faultsim/seq_gate_evals", r.gate_evals);
}

}  // namespace socet::faultsim
