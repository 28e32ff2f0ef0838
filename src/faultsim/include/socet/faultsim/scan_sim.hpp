// Combinational (full-scan) fault simulation.
//
// A full-scan circuit is tested through its combinational view: every scan
// pattern sets the primary inputs and the flip-flop contents (pseudo
// primary inputs), and responses are observed at the primary outputs and
// flip-flop D pins (pseudo primary outputs).  The simulator settles the
// good machine once per pattern block, then replays each still-undetected
// fault that its site excites, with fault dropping.  Both run on one
// gate::FlatNetlist, built at construction, through one gate::SlotQueue:
// a replay evaluates only the gates that read a diverged line, in level
// order, stops at the first observation point that diverges, and then
// restores the lines it diverged, so nothing is kept per fault site.
//
// Pattern blocks are Lane<W>s (lane.hpp) of 64, 256 or 512 patterns,
// the width picked from how many patterns a run carries.  Detection
// statuses are identical at every width: detection is a per-fault,
// per-pattern property that block shape cannot change.  The good machine
// of each width persists across run() calls, so a caller that feeds
// patterns in small batches (as ATPG does) re-evaluates only the gates
// downstream of inputs that changed.
#pragma once

#include <memory>
#include <vector>

#include "socet/faultsim/faults.hpp"
#include "socet/faultsim/pattern.hpp"
#include "socet/gate/flat.hpp"

namespace socet::faultsim {

namespace detail {
template <unsigned W>
class BlockEngine;
}  // namespace detail

class ScanFaultSim {
 public:
  /// `netlist` must outlive the simulator and stay unchanged.
  explicit ScanFaultSim(const gate::GateNetlist& netlist);
  ~ScanFaultSim();

  ScanFaultSim(const ScanFaultSim&) = delete;
  ScanFaultSim& operator=(const ScanFaultSim&) = delete;

  /// Simulate `patterns` against `faults`; marks newly detected faults in
  /// `statuses` (kUndetected -> kDetected).  Other statuses are untouched.
  /// Throws util::Error for a fault on a pin its gate does not have.
  void run(const std::vector<Fault>& faults,
           const std::vector<ScanPattern>& patterns,
           std::vector<FaultStatus>& statuses);

  /// Lane width in words (1, 4 or 8) for a run of `pattern_count`
  /// patterns: <=64 patterns: 1; <=256: 4; else 8.
  static unsigned auto_lane_words(std::size_t pattern_count);

 private:
  const gate::GateNetlist& netlist_;
  const gate::FlatNetlist flat_;
  /// One lazily created engine per width, reused across runs.
  std::unique_ptr<detail::BlockEngine<1>> engine1_;
  std::unique_ptr<detail::BlockEngine<4>> engine4_;
  std::unique_ptr<detail::BlockEngine<8>> engine8_;
};

}  // namespace socet::faultsim
