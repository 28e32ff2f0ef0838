// Comparison DFT methodologies — the paper's Tables 2 and 3 baselines.
//
// FSCAN-BSCAN: every core is full-scanned and wrapped in a boundary-scan
// isolation ring.  A core's scan chain threads its flip-flops and the
// boundary cells of its internal ports; testing applies each scan vector
// serially through the chain, so
//     TAT(core) = chain_length x vectors + chain_length - 1
// — the arithmetic behind the paper's (66+20) x 105 + 85 = 9,115 for the
// DISPLAY.  Ports wired straight to chip pins need no boundary cell.
//
// TEST-BUS: an added bus makes every core input directly controllable and
// every output directly observable (the degenerate endpoint Section 5.2's
// escalation converges to).  Fastest possible application of HSCAN
// sequences, at a mux per port bit, and it cannot test core-to-core
// interconnect.
#pragma once

#include <string>
#include <vector>

#include "socet/soc/soc.hpp"

namespace socet::baselines {

struct FscanBscanCoreRow {
  std::string core;
  unsigned flip_flops = 0;
  unsigned boundary_bits = 0;
  unsigned vectors = 0;
  unsigned long long tat = 0;
};

struct FscanBscanResult {
  std::vector<FscanBscanCoreRow> cores;
  unsigned long long total_tat = 0;
  unsigned core_level_cells = 0;  ///< FSCAN conversion, all cores
  unsigned chip_level_cells = 0;  ///< boundary cells + TAP
};

FscanBscanResult fscan_bscan(const soc::Soc& soc);

struct TestBusResult {
  unsigned long long total_tat = 0;
  unsigned chip_level_cells = 0;
};

/// Test-bus DFT on top of HSCAN cores: direct access to every port.
TestBusResult test_bus(const soc::Soc& soc);

// ---------------------------------------------------------------------------

/// PARTIAL ISOLATION RINGS (Touba & Pouya, VTS'97 — the paper's
/// reference [3]): like FSCAN-BSCAN, but boundary cells are placed only on
/// the core ports that the surrounding logic cannot already control or
/// observe functionally.  We approximate "already accessible" as "wired
/// directly to a chip pin" plus, for inputs, "driven by a neighbouring
/// core output that is itself pin-wired" — a structural stand-in for the
/// reference's ATPG-based analysis.  Area lands between FSCAN-BSCAN and
/// SOCET; TAT uses the same serial-chain arithmetic with the shorter
/// rings.
struct IsolationRingResult {
  unsigned long long total_tat = 0;
  unsigned core_level_cells = 0;  ///< FSCAN conversion
  unsigned chip_level_cells = 0;  ///< partial rings + control
  unsigned ring_bits = 0;
};

IsolationRingResult partial_isolation_rings(const soc::Soc& soc);

}  // namespace socet::baselines
