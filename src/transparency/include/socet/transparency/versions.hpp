// Core version generation — paper Sections 3 & 4, Figures 6 and 8.
//
// A *version* of a core is a transparency implementation with a particular
// latency/area trade-off:
//   * Version 1 reuses HSCAN chains wherever possible (minimum area,
//     maximum latency);
//   * Version 2 also recruits existing non-HSCAN paths, paying select
//     gating to shorten latencies (the CPU's direct Data -> Address(7..0)
//     mux edge);
//   * Version 3 additionally inserts transparency multiplexers so every
//     input/output pair reaches latency 1 (minimum latency, maximum area).
//
// Each version reports, per (input port, output port) pair, the
// transparency latency and a serial group: pairs in the same group share
// internal logic, so data cannot move through them simultaneously (the
// paper's 6 + 2 = 8-cycle CPU example).  These menus are exactly what the
// chip-level optimizer consumes.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "socet/transparency/search.hpp"

namespace socet::transparency {

/// One usable transparency move: a value applied at `input` appears at
/// `output` after `latency` cycles in transparency mode.
struct TransparencyEdgeSpec {
  rtl::PortId input;
  rtl::PortId output;
  unsigned latency = 1;
  /// Pairs sharing internal logic carry the same non-negative group id and
  /// must be used sequentially; -1 means independent.
  int serial_group = -1;
  bool via_added_mux = false;
};

struct CoreVersion {
  std::string name;
  /// Transparency logic only — on top of the HSCAN (or other core-level
  /// DFT) overhead.
  unsigned extra_cells = 0;
  std::vector<TransparencyEdgeSpec> edges;

  /// Latency of the (input, output) pair, if transparent.
  [[nodiscard]] std::optional<unsigned> latency(rtl::PortId input,
                                                rtl::PortId output) const;
  /// Serialized latency of moving data from `input` to every output in
  /// turn — the "total" column of Figure 6 (6 + 2 = 8 for CPU V1).
  [[nodiscard]] unsigned total_latency_from(rtl::PortId input) const;
};

struct VersionPolicy {
  std::string name = "Version 1";
  /// Try HSCAN edges before recruiting other existing edges.
  bool prefer_hscan = true;
  /// Consider non-HSCAN edges at all.
  bool allow_all_edges = true;
  /// Insert a transparency mux for every pair slower than one cycle.
  bool force_latency_one = false;
};

/// Build one version of the core whose RCG this is.
CoreVersion make_version(const Rcg& rcg, const VersionPolicy& policy);

/// The paper's standard three-version menu, ordered minimum-area first.
std::vector<CoreVersion> standard_versions(const Rcg& rcg);

}  // namespace socet::transparency
