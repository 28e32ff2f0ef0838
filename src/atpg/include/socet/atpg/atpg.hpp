// Full-scan test generation driver.
//
// This is the library's stand-in for the paper's "commercial combinational
// ATPG tool": a random-pattern phase with fault dropping followed by
// deterministic PODEM for the remaining faults, producing the precomputed
// test set every core ships with, plus fault coverage / test efficiency
// numbers (Table 3's FC and TEff columns).
#pragma once

#include <cstdint>
#include <vector>

#include "socet/atpg/podem.hpp"
#include "socet/faultsim/scan_sim.hpp"
#include "socet/faultsim/seq_sim.hpp"
#include "socet/util/rng.hpp"

namespace socet::atpg {

struct AtpgOptions {
  /// Patterns tried in the random phase before PODEM takes over.
  unsigned random_patterns = 64;
  unsigned backtrack_limit = 512;
  std::uint64_t seed = 1;
};

struct AtpgResult {
  std::vector<faultsim::ScanPattern> patterns;
  std::vector<faultsim::Fault> faults;
  std::vector<faultsim::FaultStatus> statuses;

  [[nodiscard]] faultsim::CoverageSummary coverage() const {
    return faultsim::summarize(statuses);
  }
  /// Number of scan vectors in the generated test set.
  [[nodiscard]] std::size_t vector_count() const { return patterns.size(); }
};

/// Generate a compact full-scan test set for every collapsed stuck-at
/// fault of `netlist`.
AtpgResult generate_tests(const gate::GateNetlist& netlist,
                          const AtpgOptions& options = {});

/// Fault-simulate an existing pattern set (e.g. a neighbouring core's test
/// set or a truncated set) and report coverage.
faultsim::CoverageSummary grade_patterns(
    const gate::GateNetlist& netlist,
    const std::vector<faultsim::ScanPattern>& patterns);

/// Static test-set compaction: fault-simulate the patterns in reverse
/// order with fault dropping and keep only the ones that detect something
/// new.  (Reverse order works because deterministic patterns late in the
/// set often cover the easy faults the early random patterns were kept
/// for.)  Coverage is preserved exactly; the returned set is typically
/// 20-40% smaller, which shortens every HSCAN sequence and therefore the
/// chip TAT linearly.
std::vector<faultsim::ScanPattern> compact_patterns(
    const gate::GateNetlist& netlist,
    const std::vector<faultsim::ScanPattern>& patterns);

/// Random functional vector sequence for sequential (no-DFT) testing — the
/// paper's "in-house sequential test generation tool" baseline row.
std::vector<util::BitVector> random_sequence(const gate::GateNetlist& netlist,
                                             std::size_t cycles,
                                             std::uint64_t seed);

/// Coverage of `netlist` under random sequential testing from reset.
faultsim::CoverageSummary sequential_coverage(const gate::GateNetlist& netlist,
                                              std::size_t cycles,
                                              std::uint64_t seed);

}  // namespace socet::atpg
