#include "socet/soc/ccg.hpp"

#include <map>

#include "socet/obs/metrics.hpp"
#include "socet/obs/trace.hpp"

namespace socet::soc {

Ccg::Ccg(const Soc& soc, const std::vector<unsigned>& selection) {
  SOCET_SPAN("ccg/build");
  util::require(selection.size() == soc.cores().size(),
                "Ccg: selection size must match core count");

  // Nodes: PIs, POs, then per-core ports.
  for (std::uint32_t i = 0; i < soc.pis().size(); ++i) {
    nodes_.push_back(CcgNode{CcgNodeKind::kPi, i, {}});
  }
  pi_count_ = static_cast<std::uint32_t>(nodes_.size());
  for (std::uint32_t i = 0; i < soc.pos().size(); ++i) {
    nodes_.push_back(CcgNode{CcgNodeKind::kPo, i, {}});
  }
  for (std::uint32_t c = 0; c < soc.cores().size(); ++c) {
    core_base_.push_back(static_cast<std::uint32_t>(nodes_.size()));
    const auto& netlist = soc.core(c).netlist();
    for (std::uint32_t p = 0; p < netlist.ports().size(); ++p) {
      const rtl::PortId port(p);
      const auto kind = netlist.port(port).dir == rtl::PortDir::kInput
                            ? CcgNodeKind::kCoreIn
                            : CcgNodeKind::kCoreOut;
      nodes_.push_back(CcgNode{kind, 0, CorePortRef{c, port}});
    }
  }

  core_base_.push_back(static_cast<std::uint32_t>(nodes_.size()));

  // Interconnect edges (latency 0), each with its own resource.
  auto from_node = [&](const std::variant<PiId, CorePortRef>& endpoint) {
    if (const auto* pi = std::get_if<PiId>(&endpoint)) return pi_node(*pi);
    return core_out_node(std::get<CorePortRef>(endpoint));
  };
  auto to_node = [&](const std::variant<PoId, CorePortRef>& endpoint) {
    if (const auto* po = std::get_if<PoId>(&endpoint)) return po_node(*po);
    return core_in_node(std::get<CorePortRef>(endpoint));
  };
  for (const Link& link : soc.links()) {
    edges_.push_back(CcgEdge{from_node(link.from), to_node(link.to), 0,
                             next_resource_++, -1});
  }

  // Transparency edges from the selected version of each core; serial
  // groups map onto shared resources.
  for (std::uint32_t c = 0; c < soc.cores().size(); ++c) {
    const auto& version = soc.core(c).version(selection[c]);
    std::map<int, std::uint32_t> group_resource;
    for (const auto& spec : version.edges) {
      std::uint32_t resource;
      if (spec.serial_group >= 0) {
        auto it = group_resource.find(spec.serial_group);
        if (it == group_resource.end()) {
          resource = next_resource_++;
          group_resource.emplace(spec.serial_group, resource);
        } else {
          resource = it->second;
        }
      } else {
        resource = next_resource_++;
      }
      edges_.push_back(
          CcgEdge{core_in_node(CorePortRef{c, spec.input}),
                  core_out_node(CorePortRef{c, spec.output}), spec.latency,
                  resource, static_cast<std::int32_t>(c)});
    }
  }

  adjacency_.assign(nodes_.size(), {});
  for (std::uint32_t e = 0; e < edges_.size(); ++e) {
    adjacency_[edges_[e].src].push_back(e);
  }
  SOCET_GAUGE_MAX("ccg/nodes", nodes_.size());
  SOCET_GAUGE_MAX("ccg/edges", edges_.size());
}

std::uint32_t Ccg::pi_node(PiId pi) const {
  return static_cast<std::uint32_t>(pi.index());
}

std::uint32_t Ccg::po_node(PoId po) const { return pi_count_ + po.value(); }

std::uint32_t Ccg::core_port_node(const CorePortRef& ref, CcgNodeKind kind,
                                  const char* missing) const {
  if (std::size_t{ref.core} + 1 < core_base_.size()) {
    const std::uint32_t base = core_base_[ref.core];
    const std::uint32_t port = ref.port.value();
    if (port < core_base_[ref.core + 1] - base &&
        nodes_[base + port].kind == kind) {
      return base + port;
    }
  }
  util::raise(missing);
}

std::uint32_t Ccg::core_in_node(const CorePortRef& ref) const {
  return core_port_node(ref, CcgNodeKind::kCoreIn,
                        "Ccg: core input node not found");
}

std::uint32_t Ccg::core_out_node(const CorePortRef& ref) const {
  return core_port_node(ref, CcgNodeKind::kCoreOut,
                        "Ccg: core output node not found");
}

std::string Ccg::node_name(const Soc& soc, std::uint32_t node) const {
  const CcgNode& n = nodes_.at(node);
  switch (n.kind) {
    case CcgNodeKind::kPi:
      return "PI:" + soc.pis().at(n.pin).name;
    case CcgNodeKind::kPo:
      return "PO:" + soc.pos().at(n.pin).name;
    case CcgNodeKind::kCoreIn:
    case CcgNodeKind::kCoreOut:
      return soc.core(n.core_port.core).name() + "." +
             soc.core(n.core_port.core)
                 .netlist()
                 .port(n.core_port.port)
                 .name;
  }
  return "?";
}

}  // namespace socet::soc
