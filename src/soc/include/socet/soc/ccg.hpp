// Core connectivity graph (CCG) — paper Section 5, Figure 9.
//
// Nodes: chip PIs and POs plus every core input and output port (ports
// that the paper draws as split nodes are modeled as separate RTL ports,
// e.g. the CPU's Address(7..0) / Address(11..8)).  Edges:
//   * interconnect wires (latency 0), straight from the Soc link list;
//   * transparency edges inside each core, taken from the version
//     currently selected for that core, weighted by transparency latency.
//
// Every edge names a *resource*: transparency edges of the same serial
// group share one resource (their shared internal logic), so the
// scheduler's reservations serialize them — the paper's "6 + 2 = 8"
// CPU behaviour.
//
// Nodes are laid out as the PIs, the POs, then each core's ports in port
// order, so the PIs are the node range [0, PI count) and every port lookup
// is index arithmetic on offsets recorded at construction.
#pragma once

#include <cstdint>
#include <vector>

#include "socet/soc/soc.hpp"

namespace socet::soc {

enum class CcgNodeKind : std::uint8_t { kPi, kPo, kCoreIn, kCoreOut };

struct CcgNode {
  CcgNodeKind kind = CcgNodeKind::kPi;
  std::uint32_t pin = 0;   ///< PI/PO index when kind is kPi/kPo
  CorePortRef core_port;   ///< valid when kind is kCoreIn/kCoreOut
};

struct CcgEdge {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  unsigned latency = 0;
  /// Reservation resource id; edges sharing internal logic share the id.
  std::uint32_t resource = 0;
  /// Core whose transparency provides this edge; -1 for interconnect.
  std::int32_t core = -1;
};

class Ccg {
 public:
  /// Build the CCG for `soc` with `selection[i]` = version index of core i.
  Ccg(const Soc& soc, const std::vector<unsigned>& selection);

  const std::vector<CcgNode>& nodes() const { return nodes_; }
  const std::vector<CcgEdge>& edges() const { return edges_; }
  const std::vector<std::vector<std::uint32_t>>& out_edges() const {
    return adjacency_;
  }

  std::uint32_t pi_node(PiId pi) const;
  std::uint32_t po_node(PoId po) const;
  /// Throw util::Error unless `ref` names an input (output) port.
  std::uint32_t core_in_node(const CorePortRef& ref) const;
  std::uint32_t core_out_node(const CorePortRef& ref) const;

  std::uint32_t resource_count() const { return next_resource_; }

  std::string node_name(const Soc& soc, std::uint32_t node) const;

 private:
  /// Node of port `ref`; throws util::Error(`missing`) unless that port
  /// exists and its node has `kind`.
  std::uint32_t core_port_node(const CorePortRef& ref, CcgNodeKind kind,
                               const char* missing) const;

  std::vector<CcgNode> nodes_;
  std::vector<CcgEdge> edges_;
  std::vector<std::vector<std::uint32_t>> adjacency_;
  std::uint32_t next_resource_ = 0;
  std::uint32_t pi_count_ = 0;
  /// First node of each core's ports, plus one past the last core's.
  std::vector<std::uint32_t> core_base_;
};

}  // namespace socet::soc
