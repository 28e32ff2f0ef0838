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
  std::uint64_t cone_replays = 0;     ///< faults replayed through a cone
  std::uint64_t faults_dropped = 0;   ///< newly detected (and dropped)
};

/// The fault-simulation kernel at one lane width: 64·W patterns per
/// block, the good machine settled once per block, then each undetected
/// fault replayed through its fanout cone.  The scratch stamps are
/// 64-bit: a 32-bit stamp wraps after 2^32 fault replays and silently
/// aliases stale scratch values into a fresh epoch (see
/// tests/faultsim_kernel_test.cpp).
template <unsigned W>
class BlockEngine {
 public:
  using L = Lane<W>;

  BlockEngine(ConeCache& cones, std::uint64_t initial_stamp)
      : netlist_(cones.netlist()),
        cones_(cones),
        current_stamp_(initial_stamp),
        good_(netlist_.gate_count(), L::zero()),
        scratch_(netlist_.gate_count(), L::zero()),
        stamp_(netlist_.gate_count(), 0),
        touched_(netlist_.gate_count(), 0),
        is_observe_(netlist_.gate_count(), 0) {
    // Observation points: POs plus every DFF's D fanin (PPOs).
    for (gate::GateId po : netlist_.outputs()) is_observe_[po.index()] = 1;
    for (gate::GateId dff : netlist_.dffs()) {
      is_observe_[netlist_.gate(dff).fanin[0].index()] = 1;
    }
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
      load_block(&patterns[block], count, stats);
      ++stats.blocks;

      for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (statuses[fi] != FaultStatus::kUndetected) continue;
        const Fault& f = faults[fi];
        ++current_stamp_;

        const L site = faulty_word(f);
        if (!((site ^ good_[f.gate.index()]).any(mask))) continue;  // inactive
        scratch_[f.gate.index()] = site;
        stamp_[f.gate.index()] = current_stamp_;
        ++stats.cone_replays;

        // Only gates downstream of an actual divergence can diverge: a
        // gate none of whose fanins carry the current stamp reads good
        // values only, so its faulty value IS its good value — skip the
        // evaluation and leave it unmarked.  Likewise a gate that settles
        // back to its good value (masked) stays unmarked, killing the
        // wave early.
        //
        // Detection folds into the same walk: a fault is detected exactly
        // when some observation point diverges, divergent gates are all
        // evaluated here, and observation points outside the cone cannot
        // move — so the first divergent observable gate ends the replay.
        bool detected = is_observe_[f.gate.index()] != 0;
        const auto& cone = cones_.of(f.gate);
        for (std::size_t c = 1; c < cone.size() && !detected; ++c) {
          const gate::GateId id = cone[c];
          const gate::Gate& g = netlist_.gate(id);
          bool touched = false;
          for (gate::GateId fin : g.fanin) {
            if (stamp_[fin.index()] == current_stamp_) {
              touched = true;
              break;
            }
          }
          if (!touched) continue;
          const L v = cone_word(g);
          if (!((v ^ good_[id.index()]).any(mask))) continue;
          if (is_observe_[id.index()]) {
            detected = true;
            break;
          }
          scratch_[id.index()] = v;
          stamp_[id.index()] = current_stamp_;
        }
        if (detected) {
          statuses[fi] = FaultStatus::kDetected;
          ++stats.faults_dropped;
        }
      }
    }
    return stats;
  }

  util::BitVector good_response(const ScanPattern& pattern) {
    EngineStats unused;
    load_block(&pattern, 1, unused);
    return response([this](gate::GateId id) { return good_[id.index()]; });
  }

  util::BitVector faulty_response(const Fault& fault,
                                  const ScanPattern& pattern) {
    EngineStats unused;
    load_block(&pattern, 1, unused);
    ++current_stamp_;
    scratch_[fault.gate.index()] = faulty_word(fault);
    stamp_[fault.gate.index()] = current_stamp_;
    const auto& cone = cones_.of(fault.gate);
    for (std::size_t c = 1; c < cone.size(); ++c) {
      scratch_[cone[c].index()] = cone_word(netlist_.gate(cone[c]));
      stamp_[cone[c].index()] = current_stamp_;
    }
    return response([this](gate::GateId id) { return lookup(id); });
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

  /// Faulty-machine value of `id` in the current replay.
  const L& lookup(gate::GateId id) const {
    return stamp_[id.index()] == current_stamp_ ? scratch_[id.index()]
                                                : good_[id.index()];
  }

  /// Good-machine value of `g` from the current good_ array.
  L good_word(const gate::Gate& g) const {
    return gate::eval_gate<L>(
        g.kind, g.fanin.size(),
        [&](std::size_t p) -> const L& { return good_[g.fanin[p].index()]; });
  }

  /// Faulty-machine lane of the fault site itself (the only gate where
  /// a stem or pin value can be forced).
  L faulty_word(const Fault& f) const {
    const gate::Gate& g = netlist_.gate(f.gate);
    check_fault_site(g, f);
    if (f.pin < 0) return L::fill(f.stuck_at);
    // A flip-flop's D-pin fault changes what it captures, which one scan
    // pattern never observes: the site keeps its loaded value.
    if (g.kind == gate::GateKind::kDff) return lookup(f.gate);
    const L forced = L::fill(f.stuck_at);
    return gate::eval_gate<L>(
        g.kind, g.fanin.size(), [&](std::size_t p) -> const L& {
          return static_cast<std::int32_t>(p) == f.pin ? forced
                                                       : lookup(g.fanin[p]);
        });
  }

  /// Faulty-machine lane of a downstream cone gate: no fault can be
  /// forced here (only the site carries the stem/pin), so the per-fanin
  /// fault checks disappear from the replay's innermost loop.  Cones
  /// hold no value sources past the site (see ConeCache).
  L cone_word(const gate::Gate& g) const {
    return gate::eval_gate<L>(
        g.kind, g.fanin.size(),
        [&](std::size_t p) -> const L& { return lookup(g.fanin[p]); });
  }

  /// POs then PPOs, bit 0 of `value(net)` each.
  template <typename Value>
  util::BitVector response(Value value) const {
    const auto& outputs = netlist_.outputs();
    const auto& dffs = netlist_.dffs();
    util::BitVector bits(outputs.size() + dffs.size());
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      bits.set(i, value(outputs[i]).bit(0));
    }
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      const gate::GateId d = netlist_.gate(dffs[i]).fanin[0];
      bits.set(outputs.size() + i, value(d).bit(0));
    }
    return bits;
  }

  /// Pack `count` patterns into the PI/PPI lanes and settle the good
  /// machine.
  void load_block(const ScanPattern* patterns, unsigned count,
                  EngineStats& stats) {
    load_sources(patterns, count);
    settle(stats);
  }

  /// Load the PI/PPI lanes; mark the fanouts of every source whose lane
  /// actually changed (the event seed set).
  void load_sources(const ScanPattern* patterns, unsigned count) {
    const auto& inputs = netlist_.inputs();
    const auto& dffs = netlist_.dffs();
    const auto& fanouts = netlist_.fanouts();
    auto drive = [&](gate::GateId source, const L& lane) {
      const std::size_t i = source.index();
      if (good_valid_ && lane == good_[i]) return;
      good_[i] = lane;
      for (gate::GateId out : fanouts[i]) touched_[out.index()] = 1;
    };
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      L lane = L::zero();
      for (unsigned k = 0; k < count; ++k) {
        if (patterns[k].pi.get(i)) lane.set_bit(k);
      }
      drive(inputs[i], lane);
    }
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      L lane = L::zero();
      for (unsigned k = 0; k < count; ++k) {
        if (patterns[k].ppi.get(i)) lane.set_bit(k);
      }
      drive(dffs[i], lane);
    }
  }

  /// Settle the good machine.  First block: full topological sweep.
  /// Afterwards only gates downstream of a changed net are re-evaluated,
  /// and a gate that settles to its old value stops the wave
  /// (value-change suppression).
  void settle(EngineStats& stats) {
    const auto& gates = netlist_.gates();
    const auto& fanouts = netlist_.fanouts();
    if (!good_valid_) {
      for (gate::GateId id : netlist_.topo_order()) {
        const gate::Gate& g = gates[id.index()];
        touched_[id.index()] = 0;
        if (g.kind == gate::GateKind::kInput ||
            g.kind == gate::GateKind::kDff) {
          continue;
        }
        good_[id.index()] = good_word(g);
        ++stats.gates_evaluated;
      }
      good_valid_ = true;
      return;
    }
    for (gate::GateId id : netlist_.topo_order()) {
      if (!touched_[id.index()]) continue;
      touched_[id.index()] = 0;
      const gate::Gate& g = gates[id.index()];
      // A DFF can sit in its D driver's fanout list; it is a value
      // source here (loaded, never evaluated), as is any input.
      if (g.kind == gate::GateKind::kInput || g.kind == gate::GateKind::kDff) {
        continue;
      }
      const L v = good_word(g);
      ++stats.gates_evaluated;
      if (v == good_[id.index()]) continue;  // wave dies here
      good_[id.index()] = v;
      for (gate::GateId out : fanouts[id.index()]) touched_[out.index()] = 1;
    }
  }

  const gate::GateNetlist& netlist_;
  ConeCache& cones_;
  std::uint64_t current_stamp_;
  std::vector<L> good_;
  std::vector<L> scratch_;
  std::vector<std::uint64_t> stamp_;
  std::vector<unsigned char> touched_;
  std::vector<unsigned char> is_observe_;
  /// good_ holds the settled values of the previous block (event-driven
  /// incremental evaluation is valid once true).
  bool good_valid_ = false;
};

}  // namespace detail

namespace {

template <unsigned W>
detail::BlockEngine<W>& engine(std::unique_ptr<detail::BlockEngine<W>>& slot,
                               ConeCache& cones, std::uint64_t initial_stamp) {
  if (!slot) slot = std::make_unique<detail::BlockEngine<W>>(cones, initial_stamp);
  return *slot;
}

}  // namespace

ScanFaultSim::ScanFaultSim(const gate::GateNetlist& netlist,
                           ScanSimOptions options)
    : options_(options), cones_(netlist) {}

ScanFaultSim::~ScanFaultSim() = default;

unsigned ScanFaultSim::auto_lane_words(std::size_t pattern_count) {
  // A run that fits one 64-pattern block gains nothing from wider lanes
  // (the extra words would simulate only padding); scale up with the
  // pattern count so big regrades amortize cone replays across 512
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

  const std::uint64_t stamp = options_.initial_stamp;
  detail::EngineStats stats;
  switch (auto_lane_words(patterns.size())) {
    case 1:
      stats = engine(engine1_, cones_, stamp).run(faults, patterns, statuses);
      break;
    case 4:
      stats = engine(engine4_, cones_, stamp).run(faults, patterns, statuses);
      break;
    default:
      stats = engine(engine8_, cones_, stamp).run(faults, patterns, statuses);
      break;
  }

  SOCET_COUNT_N("faultsim/pattern_blocks", stats.blocks);
  SOCET_COUNT_N("faultsim/good_gate_evals", stats.gates_evaluated);
  SOCET_COUNT_N("faultsim/cone_replays", stats.cone_replays);
  SOCET_COUNT_N("faultsim/faults_dropped", stats.faults_dropped);
}

util::BitVector ScanFaultSim::good_response(const ScanPattern& pattern) {
  return engine(engine1_, cones_, options_.initial_stamp)
      .good_response(pattern);
}

util::BitVector ScanFaultSim::faulty_response(const Fault& fault,
                                              const ScanPattern& pattern) {
  return engine(engine1_, cones_, options_.initial_stamp)
      .faulty_response(fault, pattern);
}

}  // namespace socet::faultsim
