// Chip-level test scheduling — paper Section 5.1.
//
// For every core under test, each input port gets a justification route
// from a chip PI and each output port an observation route to a chip PO,
// found by a reservation-aware Dijkstra over the CCG: when a route reuses
// an edge (or an edge sharing the same serial-group resource), its
// departure slides past the existing reservations — exactly the paper's
// "the edge (NUM, DB) can only be utilized from cycle 6 onwards".
//
// Where no route exists, a system-level test multiplexer is inserted (the
// PREPROCESSOR's Address output in Figure 9) at a recorded area cost.
//
// Test application time accounting follows the worked example:
//   TAT(core) = hscan_vectors x period + flush
// with `period` the serialized per-vector justification latency (the 9 in
// 525 x 9) and `flush = (max chain depth - 1) + slowest observation route`
// (the +3: the last response drains from depth-4 chains through latency-0
// observation paths).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "socet/soc/ccg.hpp"

namespace socet::soc {

struct PlanOptions {
  /// Core inputs/outputs the optimizer decided to wire straight to chip
  /// pins through test muxes (Section 5.2's escalation); routing skips
  /// them and the mux cost is charged.
  std::vector<CorePortRef> forced_input_muxes;
  std::vector<CorePortRef> forced_output_muxes;
  /// Ablation: route each value independently, ignoring the cycle
  /// reservations of earlier routes (Section 5.1's edge-reuse shifting
  /// disabled).  Underestimates TAT when paths share edges.
  bool ignore_reservations = false;
  /// Extension: allow test data to be pipelined through transparency
  /// paths.  The paper assumes one vector fully drains before the next
  /// enters ("we have assumed that test data cannot be pipelined through
  /// a core"), making the per-vector period the full justification
  /// latency.  With pipelining, after the first vector's fill, a new
  /// vector can be injected every *initiation interval* — the busiest
  /// shared resource's occupancy:
  ///   TAT = fill + (vectors - 1) x II + flush.
  bool allow_pipelining = false;
};

struct RouteStep {
  std::uint32_t edge = 0;
  unsigned depart = 0;
  unsigned arrive = 0;
};

struct Route {
  std::vector<RouteStep> steps;
  unsigned arrival = 0;
  bool via_system_mux = false;
};

/// Busy intervals per resource.
class Reservations {
 public:
  explicit Reservations(std::uint32_t resources) : busy_(resources) {}

  /// Earliest t' >= t such that [t', t' + duration) is free.
  unsigned earliest_free(std::uint32_t resource, unsigned t,
                         unsigned duration) const;
  void reserve(std::uint32_t resource, unsigned t, unsigned duration);

 private:
  std::vector<std::vector<std::pair<unsigned, unsigned>>> busy_;
};

struct CoreTestPlan {
  std::uint32_t core = 0;
  /// Route per data input port (port order of the core netlist).
  std::vector<std::pair<rtl::PortId, Route>> input_routes;
  std::vector<std::pair<rtl::PortId, Route>> output_routes;
  unsigned period = 1;
  unsigned flush = 0;
  unsigned long long tat = 0;
  unsigned system_mux_cells = 0;
};

struct ChipTestPlan {
  std::vector<CoreTestPlan> cores;
  unsigned long long total_tat = 0;
  unsigned version_cells = 0;
  unsigned system_mux_cells = 0;
  unsigned controller_cells = 0;
  /// Times each CCG transparency edge was used across all routes, keyed by
  /// (core index, input port, output port) — drives the optimizer's
  /// latency-improvement numbers (Section 5.2).
  std::map<std::tuple<std::uint32_t, rtl::PortId, rtl::PortId>, unsigned>
      edge_use;

  [[nodiscard]] unsigned total_overhead_cells() const {
    return version_cells + system_mux_cells + controller_cells;
  }
};

/// Route one value from any PI to `target` (a kCoreIn node), honouring and
/// extending `reservations`.  `earliest` is the first cycle the source
/// value may leave the PI.
std::optional<Route> route_from_pis(const Ccg& ccg, std::uint32_t target,
                                    Reservations& reservations,
                                    unsigned earliest = 0,
                                    std::int32_t banned_core = -1);

/// Route one value from `source` (a kCoreOut node) to any PO.
std::optional<Route> route_to_pos(const Ccg& ccg, std::uint32_t source,
                                  Reservations& reservations,
                                  unsigned earliest = 0,
                                  std::int32_t banned_core = -1);

/// Full plan for testing every core of `soc` (in order) with the given
/// version selection.  Every core must have scan_vectors set.
ChipTestPlan plan_chip_test(const Soc& soc,
                            const std::vector<unsigned>& selection,
                            const PlanOptions& options = {});

/// Stable, injective text encoding of every PlanOptions field.  Two option
/// sets produce the same key iff plan_chip_test behaves identically for
/// them — the planning service folds this into its content-addressed
/// cache key.
std::string plan_options_key(const PlanOptions& options);

}  // namespace socet::soc
