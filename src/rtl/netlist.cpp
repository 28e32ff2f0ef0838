#include "socet/rtl/netlist.hpp"

#include <algorithm>
#include <map>

namespace socet::rtl {

namespace {

CompRef make_ref(CompKind kind, std::size_t index) {
  return CompRef{kind, static_cast<std::uint32_t>(index)};
}

}  // namespace

PortId Netlist::add_input(const std::string& name, unsigned width,
                          PortKind kind) {
  util::require(width > 0, "add_input: width must be positive");
  ports_.push_back(Port{name, PortDir::kInput, kind, width});
  return PortId(static_cast<std::uint32_t>(ports_.size() - 1));
}

PortId Netlist::add_output(const std::string& name, unsigned width,
                           PortKind kind) {
  util::require(width > 0, "add_output: width must be positive");
  ports_.push_back(Port{name, PortDir::kOutput, kind, width});
  return PortId(static_cast<std::uint32_t>(ports_.size() - 1));
}

RegisterId Netlist::add_register(const std::string& name, unsigned width,
                                 bool has_load_enable) {
  util::require(width > 0, "add_register: width must be positive");
  registers_.push_back(Register{name, width, has_load_enable});
  return RegisterId(static_cast<std::uint32_t>(registers_.size() - 1));
}

MuxId Netlist::add_mux(const std::string& name, unsigned width,
                       unsigned num_inputs) {
  util::require(width > 0, "add_mux: width must be positive");
  util::require(num_inputs >= 2, "add_mux: need at least two data inputs");
  muxes_.push_back(Mux{name, width, num_inputs});
  return MuxId(static_cast<std::uint32_t>(muxes_.size() - 1));
}

FuId Netlist::add_fu(const std::string& name, FuKind kind, unsigned width,
                     unsigned num_inputs) {
  util::require(width > 0, "add_fu: width must be positive");
  util::require(num_inputs > 0, "add_fu: need at least one input");
  util::require(kind != FuKind::kRandomLogic,
                "add_fu: use add_random_logic for kRandomLogic");
  fus_.push_back(FunctionalUnit{name, kind, width, num_inputs, 0, 0});
  return FuId(static_cast<std::uint32_t>(fus_.size() - 1));
}

FuId Netlist::add_random_logic(const std::string& name, unsigned in_width,
                               unsigned out_width, unsigned gate_hint,
                               std::uint64_t seed) {
  util::require(in_width > 0 && out_width > 0,
                "add_random_logic: widths must be positive");
  // A random-logic cloud has a single flat input operand; callers connect
  // slices of several signals into it.
  fus_.push_back(FunctionalUnit{name, FuKind::kRandomLogic, out_width, 1, seed,
                                gate_hint});
  // Record the input width via a convention: random logic keeps its input
  // width in `gate_hint`'s sibling field through the pin-width logic below.
  fus_.back().num_inputs = 1;
  random_logic_in_width_.push_back(
      {static_cast<std::uint32_t>(fus_.size() - 1), in_width});
  return FuId(static_cast<std::uint32_t>(fus_.size() - 1));
}

ConstantId Netlist::add_constant(const std::string& name,
                                 util::BitVector value) {
  util::require(value.width() > 0, "add_constant: width must be positive");
  constants_.push_back(Constant{name, std::move(value)});
  return ConstantId(static_cast<std::uint32_t>(constants_.size() - 1));
}

void Netlist::connect(PinRef from, PinRef to) {
  const unsigned width = std::min(pin_width(from), pin_width(to));
  util::require(pin_width(from) == pin_width(to),
                "connect: widths differ; use the sliced overload");
  connect(from, 0, to, 0, width);
}

void Netlist::connect(PinRef from, unsigned from_lo, PinRef to, unsigned to_lo,
                      unsigned width) {
  Connection conn{from, from_lo, to, to_lo, width};
  check_connection(conn);
  connections_.push_back(conn);
}

PinRef Netlist::pin(PortId id) const {
  util::require(id.index() < ports_.size(), "pin: bad port id");
  return PinRef{make_ref(CompKind::kPort, id.index()), PinRole::kPort, 0};
}

PinRef Netlist::reg_d(RegisterId id) const {
  util::require(id.index() < registers_.size(), "reg_d: bad register id");
  return PinRef{make_ref(CompKind::kRegister, id.index()), PinRole::kRegD, 0};
}

PinRef Netlist::reg_q(RegisterId id) const {
  util::require(id.index() < registers_.size(), "reg_q: bad register id");
  return PinRef{make_ref(CompKind::kRegister, id.index()), PinRole::kRegQ, 0};
}

PinRef Netlist::reg_load(RegisterId id) const {
  util::require(id.index() < registers_.size(), "reg_load: bad register id");
  util::require(registers_[id.index()].has_load_enable,
                "reg_load: register has no load enable");
  return PinRef{make_ref(CompKind::kRegister, id.index()), PinRole::kRegLoad,
                0};
}

PinRef Netlist::mux_in(MuxId id, unsigned data_index) const {
  util::require(id.index() < muxes_.size(), "mux_in: bad mux id");
  util::require(data_index < muxes_[id.index()].num_inputs,
                "mux_in: data index out of range");
  return PinRef{make_ref(CompKind::kMux, id.index()), PinRole::kMuxData,
                data_index};
}

PinRef Netlist::mux_select(MuxId id) const {
  util::require(id.index() < muxes_.size(), "mux_select: bad mux id");
  return PinRef{make_ref(CompKind::kMux, id.index()), PinRole::kMuxSelect, 0};
}

PinRef Netlist::mux_out(MuxId id) const {
  util::require(id.index() < muxes_.size(), "mux_out: bad mux id");
  return PinRef{make_ref(CompKind::kMux, id.index()), PinRole::kMuxOut, 0};
}

PinRef Netlist::fu_in(FuId id, unsigned operand) const {
  util::require(id.index() < fus_.size(), "fu_in: bad fu id");
  util::require(operand < fus_[id.index()].num_inputs,
                "fu_in: operand index out of range");
  return PinRef{make_ref(CompKind::kFu, id.index()), PinRole::kFuIn, operand};
}

PinRef Netlist::fu_out(FuId id) const {
  util::require(id.index() < fus_.size(), "fu_out: bad fu id");
  return PinRef{make_ref(CompKind::kFu, id.index()), PinRole::kFuOut, 0};
}

PinRef Netlist::const_out(ConstantId id) const {
  util::require(id.index() < constants_.size(), "const_out: bad constant id");
  return PinRef{make_ref(CompKind::kConstant, id.index()), PinRole::kConstOut,
                0};
}

unsigned Netlist::pin_width(const PinRef& pin) const {
  switch (pin.role) {
    case PinRole::kPort:
      return ports_.at(pin.comp.index).width;
    case PinRole::kRegD:
    case PinRole::kRegQ:
      return registers_.at(pin.comp.index).width;
    case PinRole::kRegLoad:
      return 1;
    case PinRole::kMuxData:
    case PinRole::kMuxOut:
      return muxes_.at(pin.comp.index).width;
    case PinRole::kMuxSelect: {
      // Narrowest select that can address all data inputs.
      unsigned inputs = muxes_.at(pin.comp.index).num_inputs;
      unsigned bits = 0;
      while ((1u << bits) < inputs) ++bits;
      return std::max(bits, 1u);
    }
    case PinRole::kFuIn: {
      const auto& unit = fus_.at(pin.comp.index);
      if (unit.kind == FuKind::kRandomLogic) {
        for (const auto& [fu_index, in_width] : random_logic_in_width_) {
          if (fu_index == pin.comp.index) return in_width;
        }
        util::raise("pin_width: random logic input width missing");
      }
      if (unit.kind == FuKind::kAlu && pin.arg == 2) return 2;  // op select
      return unit.width;
    }
    case PinRole::kFuOut: {
      const auto& unit = fus_.at(pin.comp.index);
      if (unit.kind == FuKind::kEqual || unit.kind == FuKind::kLess) return 1;
      return unit.width;
    }
    case PinRole::kConstOut:
      return static_cast<unsigned>(constants_.at(pin.comp.index).value.width());
  }
  util::raise("pin_width: unknown pin role");
}

bool Netlist::is_driver_pin(const PinRef& pin) const {
  switch (pin.role) {
    case PinRole::kPort:
      return ports_.at(pin.comp.index).dir == PortDir::kInput;
    case PinRole::kRegQ:
    case PinRole::kMuxOut:
    case PinRole::kFuOut:
    case PinRole::kConstOut:
      return true;
    default:
      return false;
  }
}

std::vector<PortId> Netlist::input_ports() const {
  std::vector<PortId> out;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i].dir == PortDir::kInput) {
      out.emplace_back(static_cast<std::uint32_t>(i));
    }
  }
  return out;
}

std::vector<PortId> Netlist::output_ports() const {
  std::vector<PortId> out;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i].dir == PortDir::kOutput) {
      out.emplace_back(static_cast<std::uint32_t>(i));
    }
  }
  return out;
}

PortId Netlist::find_port(const std::string& name) const {
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i].name == name) return PortId(static_cast<std::uint32_t>(i));
  }
  util::raise("find_port: no port named '" + name + "' in " + name_);
}

RegisterId Netlist::find_register(const std::string& name) const {
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    if (registers_[i].name == name) {
      return RegisterId(static_cast<std::uint32_t>(i));
    }
  }
  util::raise("find_register: no register named '" + name + "' in " + name_);
}

std::vector<const Connection*> Netlist::connections_from(
    const PinRef& pin) const {
  std::vector<const Connection*> out;
  for (const auto& conn : connections_) {
    if (conn.from == pin) out.push_back(&conn);
  }
  return out;
}

unsigned Netlist::flip_flop_count() const {
  unsigned total = 0;
  for (const auto& r : registers_) total += r.width;
  return total;
}

void Netlist::check_connection(const Connection& conn) const {
  util::require(conn.width > 0, "connect: zero-width connection");
  if (!is_driver_pin(conn.from)) {
    util::raise("connect: 'from' pin is not a driver: " +
                describe_pin(*this, conn.from));
  }
  if (is_driver_pin(conn.to)) {
    util::raise("connect: 'to' pin is not a sink: " +
                describe_pin(*this, conn.to));
  }
  if (conn.from_lo + conn.width > pin_width(conn.from)) {
    util::raise("connect: source slice exceeds pin width on " +
                describe_pin(*this, conn.from));
  }
  if (conn.to_lo + conn.width > pin_width(conn.to)) {
    util::raise("connect: sink slice exceeds pin width on " +
                describe_pin(*this, conn.to));
  }
}

void Netlist::validate() const {
  // No sink bit may be driven twice: alternative sources must be modeled
  // with explicit multiplexers, matching real RTL.
  std::map<PinRef, std::vector<bool>> driven;
  for (const auto& conn : connections_) {
    check_connection(conn);
    auto& bits = driven[conn.to];
    bits.resize(pin_width(conn.to), false);
    for (unsigned b = conn.to_lo; b < conn.to_lo + conn.width; ++b) {
      if (bits[b]) {
        util::raise("validate: sink bit driven twice on " +
                    describe_pin(*this, conn.to));
      }
      bits[b] = true;
    }
  }
}

std::string describe_pin(const Netlist& netlist, const PinRef& pin) {
  auto name = [&]() -> std::string {
    switch (pin.comp.kind) {
      case CompKind::kPort:
        return netlist.ports().at(pin.comp.index).name;
      case CompKind::kRegister:
        return netlist.registers().at(pin.comp.index).name;
      case CompKind::kMux:
        return netlist.muxes().at(pin.comp.index).name;
      case CompKind::kFu:
        return netlist.fus().at(pin.comp.index).name;
      case CompKind::kConstant:
        return netlist.constants().at(pin.comp.index).name;
    }
    return "?";
  }();
  switch (pin.role) {
    case PinRole::kPort:
      return name;
    case PinRole::kRegD:
      return name + ".D";
    case PinRole::kRegQ:
      return name + ".Q";
    case PinRole::kRegLoad:
      return name + ".LOAD";
    case PinRole::kMuxData:
      return name + ".IN" + std::to_string(pin.arg);
    case PinRole::kMuxSelect:
      return name + ".SEL";
    case PinRole::kMuxOut:
      return name + ".OUT";
    case PinRole::kFuIn:
      return name + ".OP" + std::to_string(pin.arg);
    case PinRole::kFuOut:
      return name + ".OUT";
    case PinRole::kConstOut:
      return name;
  }
  return name + ".?";
}

}  // namespace socet::rtl
