#include "socet/soc/soc.hpp"

#include <map>

namespace socet::soc {

PiId Soc::add_pi(const std::string& name, unsigned width) {
  util::require(width > 0, "add_pi: width must be positive");
  pis_.push_back(ChipPin{name, width});
  return PiId(static_cast<std::uint32_t>(pis_.size() - 1));
}

PoId Soc::add_po(const std::string& name, unsigned width) {
  util::require(width > 0, "add_po: width must be positive");
  pos_.push_back(ChipPin{name, width});
  return PoId(static_cast<std::uint32_t>(pos_.size() - 1));
}

std::uint32_t Soc::add_core(const core::Core* core) {
  util::require(core != nullptr, "add_core: null core");
  cores_.push_back(core);
  return static_cast<std::uint32_t>(cores_.size() - 1);
}

void Soc::connect(PiId pi, std::uint32_t core, const std::string& input_port) {
  util::require(core < cores_.size(), "connect: bad core index");
  const rtl::PortId port = cores_[core]->netlist().find_port(input_port);
  util::require(
      cores_[core]->netlist().port(port).dir == rtl::PortDir::kInput,
      "connect: '" + input_port + "' is not an input of " +
          cores_[core]->name());
  links_.push_back(Link{pi, CorePortRef{core, port}});
}

void Soc::connect(std::uint32_t from_core, const std::string& output_port,
                  std::uint32_t to_core, const std::string& input_port) {
  util::require(from_core < cores_.size() && to_core < cores_.size(),
                "connect: bad core index");
  const rtl::PortId out = cores_[from_core]->netlist().find_port(output_port);
  const rtl::PortId in = cores_[to_core]->netlist().find_port(input_port);
  util::require(
      cores_[from_core]->netlist().port(out).dir == rtl::PortDir::kOutput,
      "connect: '" + output_port + "' is not an output of " +
          cores_[from_core]->name());
  util::require(
      cores_[to_core]->netlist().port(in).dir == rtl::PortDir::kInput,
      "connect: '" + input_port + "' is not an input of " +
          cores_[to_core]->name());
  links_.push_back(
      Link{CorePortRef{from_core, out}, CorePortRef{to_core, in}});
}

void Soc::connect(std::uint32_t core, const std::string& output_port,
                  PoId po) {
  util::require(core < cores_.size(), "connect: bad core index");
  const rtl::PortId port = cores_[core]->netlist().find_port(output_port);
  util::require(
      cores_[core]->netlist().port(port).dir == rtl::PortDir::kOutput,
      "connect: '" + output_port + "' is not an output of " +
          cores_[core]->name());
  links_.push_back(Link{CorePortRef{core, port}, po});
}

PoId Soc::find_po(const std::string& name) const {
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    if (pos_[i].name == name) return PoId(static_cast<std::uint32_t>(i));
  }
  util::raise("find_po: no PO named '" + name + "'");
}

std::uint32_t Soc::find_core(const std::string& name) const {
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i]->name() == name) return static_cast<std::uint32_t>(i);
  }
  util::raise("find_core: no core named '" + name + "'");
}

unsigned Soc::width_of(const std::variant<PiId, CorePortRef>& endpoint) const {
  if (const auto* pi = std::get_if<PiId>(&endpoint)) {
    return pis_.at(pi->index()).width;
  }
  const auto& ref = std::get<CorePortRef>(endpoint);
  return cores_.at(ref.core)->netlist().port(ref.port).width;
}

unsigned Soc::width_of(const std::variant<PoId, CorePortRef>& endpoint) const {
  if (const auto* po = std::get_if<PoId>(&endpoint)) {
    return pos_.at(po->index()).width;
  }
  const auto& ref = std::get<CorePortRef>(endpoint);
  return cores_.at(ref.core)->netlist().port(ref.port).width;
}

void Soc::validate() const {
  std::map<std::variant<PoId, CorePortRef>, int> sink_count;
  for (const Link& link : links_) {
    if (width_of(link.from) != width_of(link.to)) {
      util::raise("validate: width mismatch on a chip-level link in " + name_);
    }
    ++sink_count[link.to];
  }
  for (const auto& [sink, count] : sink_count) {
    if (count != 1) {
      util::raise("validate: a core input or PO in " + name_ +
                  " is driven more than once");
    }
  }
}

}  // namespace socet::soc
