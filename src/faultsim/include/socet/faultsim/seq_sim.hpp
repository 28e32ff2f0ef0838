// Sequential fault simulation (parallel-fault, 64·W − 1 faulty machines +
// the good machine per pass, on a Lane<W> of W = 1, 4 or 8 words).
//
// Used for the paper's "original circuit, no DFT" and "HSCAN-only" rows of
// Table 3: a vector sequence is applied from reset at the chip's primary
// inputs and responses are observed at the primary outputs only.  Bit 0 of
// every simulation lane is the good machine; every other bit carries one
// faulty machine, with the fault permanently injected at its site.  W is
// chosen automatically from the number of still-undetected faults (up to
// 63 → 1 word, up to 255 → 4, else 8), and a pass ends early once all of
// its machines are detected.
#pragma once

#include <vector>

#include "socet/faultsim/faults.hpp"
#include "socet/util/bitvector.hpp"

namespace socet::faultsim {

class SequentialFaultSim {
 public:
  explicit SequentialFaultSim(const gate::GateNetlist& netlist);

  /// Apply `sequence` (one BitVector per cycle, one bit per primary input,
  /// ordered like GateNetlist::inputs()) from reset.  Faults whose machine
  /// diverges from the good machine at any primary output in any cycle are
  /// marked kDetected in `statuses`.
  void run(const std::vector<Fault>& faults,
           const std::vector<util::BitVector>& sequence,
           std::vector<FaultStatus>& statuses);

 private:
  const gate::GateNetlist& netlist_;
};

}  // namespace socet::faultsim
