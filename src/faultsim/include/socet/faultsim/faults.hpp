// Single stuck-at fault model.
//
// Faults live on gate output stems and on input pins of multi-input gates.
// Equivalence collapsing removes the classic redundancies (an AND input
// stuck-at-0 is indistinguishable from its output stuck-at-0, an inverter's
// input faults map to its driver's output faults, ...), matching what
// commercial ATPG fault lists do.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "socet/gate/netlist.hpp"

namespace socet::faultsim {

struct Fault {
  gate::GateId gate;
  /// -1 for the gate's output stem; otherwise the fanin pin index.
  std::int32_t pin = -1;
  /// The stuck value.
  bool stuck_at = false;

  friend bool operator==(const Fault&, const Fault&) = default;
};

enum class FaultStatus : std::uint8_t {
  kUndetected,
  kDetected,
  kUntestable,  ///< proven redundant by ATPG
  kAborted,     ///< ATPG gave up (backtrack limit)
};

/// Enumerate the stuck-at universe of `netlist`.  With `collapse` (the
/// default) structurally equivalent faults are dropped; without it, every
/// output stem and every input pin of 2+-input gates carries both faults.
std::vector<Fault> enumerate_faults(const gate::GateNetlist& netlist,
                                    bool collapse = true);

/// The error check_fault_site raises (out of line: it sits on hot paths).
[[noreturn]] void raise_missing_pin(const gate::Gate& g, const Fault& fault);

/// Throws util::Error, naming the gate, unless `fault.pin` is -1 (the
/// stem) or one of `g`'s fanin pins (`g` is the fault's gate).  Every
/// fault consumer calls this where it first reads a fault's pin, so a
/// malformed list fails loudly instead of being silently skipped or read
/// past the fanin vector.
inline void check_fault_site(const gate::Gate& g, const Fault& fault) {
  if (fault.pin < -1 ||
      fault.pin >= static_cast<std::int64_t>(g.fanin.size())) [[unlikely]] {
    raise_missing_pin(g, fault);
  }
}

/// "G42/IN1 s-a-0" style description for diagnostics.
std::string describe_fault(const gate::GateNetlist& netlist,
                           const Fault& fault);

/// Fault coverage = detected / total.  Test efficiency treats untestable
/// faults as handled: (detected + untestable) / total.
struct CoverageSummary {
  std::size_t total = 0;
  std::size_t detected = 0;
  std::size_t untestable = 0;
  std::size_t aborted = 0;

  [[nodiscard]] double fault_coverage() const {
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(detected) /
                                  static_cast<double>(total);
  }
  [[nodiscard]] double test_efficiency() const {
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(detected + untestable) /
                            static_cast<double>(total);
  }
};

CoverageSummary summarize(const std::vector<FaultStatus>& statuses);

}  // namespace socet::faultsim
