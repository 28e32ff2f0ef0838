// PODEM test generation for stuck-at faults.
//
// Operates on the full-scan combinational view: decision variables are the
// primary inputs and the flip-flop contents (pseudo primary inputs); a
// fault is detected when the composite (good, faulty) simulation shows a
// discrepancy at a primary output or a flip-flop D pin.
//
// The search is textbook PODEM: objective selection (activate the fault,
// then advance the D-frontier), backtrace to an input assignment, 5-valued
// implication, X-path pruning, and chronological backtracking with a
// configurable limit.  Exhausting the decision tree proves the fault
// untestable (redundant).
//
// One Podem serves every fault of one netlist: the levelized netlist
// (gate::FlatNetlist), the observe set, the search guidance and the
// scratch are built once.  Implication is event-driven: after a decision,
// a flip or an undo, only the gates downstream of lines whose assignment
// changed are re-evaluated, in level order through the gate layer's one
// event queue (gate::SlotQueue, which the scan fault simulator drains
// too), stopping wherever both values stay the same, and the
// faulty circuit is evaluated only inside the fault sites' fanout cone
// (outside it, faulty equals good).  The D-frontier and the X-path check
// look only at that cone.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "socet/faultsim/faults.hpp"
#include "socet/faultsim/pattern.hpp"

namespace socet::atpg {

/// Three-valued logic for each of the good and faulty circuits.
enum class V3 : std::uint8_t { k0, k1, kX };

struct PodemOptions {
  unsigned backtrack_limit = 512;
};

struct PodemResult {
  enum class Outcome { kFound, kUntestable, kAborted };
  Outcome outcome = Outcome::kAborted;
  /// Valid when outcome == kFound.  Unassigned inputs are left 0; the
  /// `dont_care` vector flags them so the caller may refill.
  faultsim::ScanPattern pattern;
  std::vector<bool> pi_dont_care;
  std::vector<bool> ppi_dont_care;
  unsigned backtracks = 0;
};

class Podem {
 public:
  /// Builds the per-netlist context; `netlist` must outlive this object
  /// and stay unchanged.
  explicit Podem(const gate::GateNetlist& netlist);
  ~Podem();

  Podem(const Podem&) = delete;
  Podem& operator=(const Podem&) = delete;

  /// Seek a test for one fault.  Throws util::Error for a pin the fault's
  /// gate does not have.
  PodemResult run(const faultsim::Fault& fault,
                  const PodemOptions& options = {});

  /// Multi-site PODEM: every site is injected simultaneously (at most one
  /// per gate) and a pattern detecting the combined effect is sought.
  /// This is the engine behind time-frame sequential ATPG, where one
  /// permanent fault appears once per unrolled frame.
  PodemResult run(std::span<const faultsim::Fault> sites,
                  const PodemOptions& options = {});

 private:
  class Engine;
  std::unique_ptr<Engine> engine_;
};

}  // namespace socet::atpg
