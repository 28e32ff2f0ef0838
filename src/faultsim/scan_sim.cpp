#include "socet/faultsim/scan_sim.hpp"

#include <algorithm>
#include <cstddef>

#include "socet/faultsim/lane.hpp"
#include "socet/gate/eval.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/trace.hpp"
#include "socet/util/error.hpp"

namespace socet::faultsim {
namespace detail {

/// Counters one run() accumulates (published as faultsim/* metrics).
struct EngineStats {
  std::uint64_t blocks = 0;
  std::uint64_t gates_evaluated = 0;  ///< good-machine gate evaluations
  std::uint64_t cone_replays = 0;     ///< excited faults replayed
  std::uint64_t faults_dropped = 0;   ///< newly detected (and dropped)
};

/// The fault-simulation kernel at one lane width: 64·W patterns per
/// block.  The good machine settles once per block; then each excited
/// fault is replayed event by event from its site through the slot
/// queue, and the replay ends at the first observation point that
/// diverges.  `faulty_` equals `good_` between replays: a replay records
/// every slot it diverges in `undo_` and restores them when it ends.
template <unsigned W>
class BlockEngine {
 public:
  using L = Lane<W>;

  BlockEngine(const gate::GateNetlist& netlist, const gate::FlatNetlist& flat)
      : netlist_(netlist),
        flat_(flat),
        good_(flat.slot_count(), L::zero()),
        faulty_(flat.slot_count(), L::zero()),
        observable_(flat.slot_count(), 0),
        events_(flat) {
    // Observation points: POs plus every DFF's D driver (PPOs).
    for (const std::uint32_t slot : flat.outputs) observable_[slot] = 1;
    for (const std::uint32_t slot : flat.dff_d) observable_[slot] = 1;
  }

  EngineStats run(const std::vector<Fault>& faults,
                  const std::vector<ScanPattern>& patterns,
                  std::vector<FaultStatus>& statuses) {
    EngineStats stats;
    for (std::size_t block = 0; block < patterns.size();
         block += L::kPatterns) {
      const unsigned count = static_cast<unsigned>(std::min<std::size_t>(
          L::kPatterns, patterns.size() - block));
      const L mask = block_mask(count);
      load_sources(&patterns[block], count);
      settle(stats);
      ++stats.blocks;

      for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (statuses[fi] != FaultStatus::kUndetected) continue;
        if (!detects(faults[fi], mask, stats)) continue;
        statuses[fi] = FaultStatus::kDetected;
        ++stats.faults_dropped;
      }
    }
    return stats;
  }

 private:
  /// Mask with one bit per live pattern in a partial final block.
  static L block_mask(unsigned count) {
    if (count == L::kPatterns) return L::ones();
    L mask = L::zero();
    for (unsigned i = 0; i < W; ++i) {
      if (count >= 64 * (i + 1)) {
        mask.w[i] = ~0ULL;
      } else if (count > 64 * i) {
        mask.w[i] = (1ULL << (count - 64 * i)) - 1;
      }
    }
    return mask;
  }

  /// Value of logic slot `slot` read from `values`.
  L eval(const std::vector<L>& values, std::uint32_t slot) const {
    const gate::FlatNetlist::Node& g = flat_.node(slot);
    const std::uint32_t* fanin = flat_.fanins.data() + g.fanin_begin;
    return gate::eval_gate<L>(
        g.kind, g.fanin_end - g.fanin_begin,
        [&](std::size_t p) -> const L& { return values[fanin[p]]; });
  }

  /// Faulty value of the fault site itself, the only gate where a stem
  /// or a pin can be forced; every other gate of a replay goes through
  /// eval(), free of per-fanin fault checks.
  L site_word(const Fault& f, std::uint32_t site) const {
    const L stuck = L::fill(f.stuck_at);
    if (f.pin < 0) return stuck;
    const gate::FlatNetlist::Node& g = flat_.node(site);
    const std::uint32_t* fanin = flat_.fanins.data() + g.fanin_begin;
    return gate::eval_gate<L>(
        g.kind, g.fanin_end - g.fanin_begin, [&](std::size_t p) -> const L& {
          return static_cast<std::int32_t>(p) == f.pin ? stuck
                                                       : good_[fanin[p]];
        });
  }

  /// Replay `f` against the settled block: true when a live pattern
  /// carries its effect to an observation point.  Only readers of a
  /// diverged line are evaluated, and a gate that settles back to its
  /// good value under every live pattern wakes no reader.
  bool detects(const Fault& f, const L& mask, EngineStats& stats) {
    const gate::Gate& g = netlist_.gate(f.gate);
    check_fault_site(g, f);
    // A flip-flop's D-pin fault changes what it captures, which one scan
    // pattern never observes.
    if (f.pin >= 0 && g.kind == gate::GateKind::kDff) return false;
    const std::uint32_t site = flat_.slot_of[f.gate.index()];
    const L word = site_word(f, site);
    if (!((word ^ good_[site]).any(mask))) return false;  // not excited
    ++stats.cone_replays;
    if (observable_[site]) return true;

    diverge(site, word);
    bool detected = false;
    events_.drain([&](std::uint32_t slot) {
      const L v = eval(faulty_, slot);
      if (!((v ^ good_[slot]).any(mask))) return true;  // masked here
      if (observable_[slot]) {
        detected = true;
        return false;
      }
      diverge(slot, v);
      return true;
    });
    for (const std::uint32_t slot : undo_) faulty_[slot] = good_[slot];
    undo_.clear();
    return detected;
  }

  void diverge(std::uint32_t slot, const L& v) {
    faulty_[slot] = v;
    undo_.push_back(slot);
    events_.push_fanouts(slot);
  }

  /// Load the PI/PPI lanes; queue the readers of every source whose lane
  /// changed (the good machine's event seeds).
  void load_sources(const ScanPattern* patterns, unsigned count) {
    const auto drive = [&](std::uint32_t slot, const L& lane) {
      if (lane == good_[slot]) return;
      good_[slot] = faulty_[slot] = lane;
      events_.push_fanouts(slot);
    };
    const auto n_pi = static_cast<std::uint32_t>(netlist_.inputs().size());
    for (std::uint32_t i = 0; i < n_pi; ++i) {
      L lane = L::zero();
      for (unsigned k = 0; k < count; ++k) {
        if (patterns[k].pi.get(i)) lane.set_bit(k);
      }
      drive(i, lane);
    }
    for (std::uint32_t i = 0; n_pi + i < flat_.first_logic; ++i) {
      L lane = L::zero();
      for (unsigned k = 0; k < count; ++k) {
        if (patterns[k].ppi.get(i)) lane.set_bit(k);
      }
      drive(n_pi + i, lane);
    }
  }

  /// Settle the good machine.  The first block sweeps every logic slot;
  /// afterwards only the readers of a changed line are re-evaluated, and
  /// a gate that keeps its value stops the wave.
  void settle(EngineStats& stats) {
    if (!swept_) {
      for (std::uint32_t slot = flat_.first_logic; slot < flat_.slot_count();
           ++slot) {
        events_.push(slot);
      }
      swept_ = true;
    }
    events_.drain([&](std::uint32_t slot) {
      const L v = eval(good_, slot);
      ++stats.gates_evaluated;
      if (v == good_[slot]) return true;
      good_[slot] = faulty_[slot] = v;
      events_.push_fanouts(slot);
      return true;
    });
  }

  const gate::GateNetlist& netlist_;
  const gate::FlatNetlist& flat_;
  std::vector<L> good_;
  std::vector<L> faulty_;
  std::vector<unsigned char> observable_;
  gate::SlotQueue events_;
  std::vector<std::uint32_t> undo_;  ///< slots the current replay diverged
  bool swept_ = false;  ///< the first block's full sweep is done
};

}  // namespace detail

namespace {

template <unsigned W>
detail::BlockEngine<W>& engine(std::unique_ptr<detail::BlockEngine<W>>& slot,
                               const gate::GateNetlist& netlist,
                               const gate::FlatNetlist& flat) {
  if (!slot) slot = std::make_unique<detail::BlockEngine<W>>(netlist, flat);
  return *slot;
}

}  // namespace

ScanFaultSim::ScanFaultSim(const gate::GateNetlist& netlist)
    : netlist_(netlist), flat_(netlist) {}

ScanFaultSim::~ScanFaultSim() = default;

unsigned ScanFaultSim::auto_lane_words(std::size_t pattern_count) {
  // A run that fits one 64-pattern block gains nothing from wider lanes
  // (the extra words would simulate only padding); scale up with the
  // pattern count so big regrades amortize fault replays across 512
  // patterns per pass.
  if (pattern_count <= 64) return 1;
  if (pattern_count <= 256) return 4;
  return 8;
}

void ScanFaultSim::run(const std::vector<Fault>& faults,
                       const std::vector<ScanPattern>& patterns,
                       std::vector<FaultStatus>& statuses) {
  util::require(statuses.size() == faults.size(),
                "ScanFaultSim::run: status vector size mismatch");
  SOCET_SPAN("faultsim/scan_run");

  detail::EngineStats stats;
  switch (auto_lane_words(patterns.size())) {
    case 1:
      stats = engine(engine1_, netlist_, flat_).run(faults, patterns, statuses);
      break;
    case 4:
      stats = engine(engine4_, netlist_, flat_).run(faults, patterns, statuses);
      break;
    default:
      stats = engine(engine8_, netlist_, flat_).run(faults, patterns, statuses);
      break;
  }

  SOCET_COUNT_N("faultsim/pattern_blocks", stats.blocks);
  SOCET_COUNT_N("faultsim/good_gate_evals", stats.gates_evaluated);
  SOCET_COUNT_N("faultsim/cone_replays", stats.cone_replays);
  SOCET_COUNT_N("faultsim/faults_dropped", stats.faults_dropped);
}

}  // namespace socet::faultsim
