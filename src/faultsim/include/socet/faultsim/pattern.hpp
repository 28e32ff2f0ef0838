// Scan test-pattern representation, shared by the fault simulator
// (scan_sim.hpp) and the ATPG layer.
#pragma once

#include "socet/util/bitvector.hpp"

namespace socet::faultsim {

/// One full-scan test pattern.
struct ScanPattern {
  /// One bit per primary input, ordered like GateNetlist::inputs().
  util::BitVector pi;
  /// One bit per flip-flop, ordered like GateNetlist::dffs().
  util::BitVector ppi;
};

}  // namespace socet::faultsim
