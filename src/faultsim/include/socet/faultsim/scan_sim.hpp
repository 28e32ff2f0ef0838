// Combinational (full-scan) fault simulation.
//
// A full-scan circuit is tested through its combinational view: every scan
// pattern sets the primary inputs and the flip-flop contents (pseudo
// primary inputs), and responses are observed at the primary outputs and
// flip-flop D pins (pseudo primary outputs).  The simulator runs the good
// machine once per pattern block, then replays each still-undetected
// fault through the fault's fanout cone only, with fault dropping.
//
// Pattern blocks are Lane<W>s (lane.hpp) of 64, 256 or 512 patterns,
// the width picked from how many patterns a run carries.  Detection
// statuses are identical at every width: detection is a per-fault,
// per-pattern property that block shape cannot change.  The good machine
// of each width persists across run() calls, so a caller that feeds
// patterns in small batches (as ATPG does) re-evaluates only the gates
// downstream of inputs that changed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "socet/faultsim/cone.hpp"
#include "socet/faultsim/faults.hpp"
#include "socet/faultsim/pattern.hpp"
#include "socet/util/bitvector.hpp"

namespace socet::faultsim {

namespace detail {
template <unsigned W>
class BlockEngine;
}  // namespace detail

struct ScanSimOptions {
  /// Starting value of the scratch epoch counter.  Test hook: placing the
  /// counter just below 2^32 proves the 64-bit stamps survive the
  /// boundary where a 32-bit counter wraps and corrupts lookups.
  std::uint64_t initial_stamp = 0;
};

class ScanFaultSim {
 public:
  explicit ScanFaultSim(const gate::GateNetlist& netlist,
                        ScanSimOptions options = {});
  ~ScanFaultSim();

  /// Simulate `patterns` against `faults`; marks newly detected faults in
  /// `statuses` (kUndetected -> kDetected).  Other statuses are untouched.
  /// Throws util::Error for a fault on a pin its gate does not have.
  void run(const std::vector<Fault>& faults,
           const std::vector<ScanPattern>& patterns,
           std::vector<FaultStatus>& statuses);

  /// Good-machine responses for one pattern: values of POs then PPOs.
  /// Useful for building expected-response data.
  util::BitVector good_response(const ScanPattern& pattern);

  /// The response the circuit produces for `pattern` *with `fault`
  /// injected* (same PO+PPO layout as good_response): a one-fault
  /// reference the kernel tests check `run` against.
  util::BitVector faulty_response(const Fault& fault,
                                  const ScanPattern& pattern);

  /// Lane width in words (1, 4 or 8) for a run of `pattern_count`
  /// patterns: <=64 patterns: 1; <=256: 4; else 8.
  static unsigned auto_lane_words(std::size_t pattern_count);

 private:
  ScanSimOptions options_;
  ConeCache cones_;
  /// One lazily created engine per width, reused across runs.
  std::unique_ptr<detail::BlockEngine<1>> engine1_;
  std::unique_ptr<detail::BlockEngine<4>> engine4_;
  std::unique_ptr<detail::BlockEngine<8>> engine8_;
};

}  // namespace socet::faultsim
