#include "socet/rtl/interpreter.hpp"

namespace socet::rtl {

namespace {

std::uint64_t low_bits(const util::BitVector& v) {
  // Arithmetic units here are at most 64 bits wide; widths are validated
  // at construction.
  return v.slice(0, std::min<std::size_t>(v.width(), 64)).to_u64();
}

}  // namespace

Interpreter::Interpreter(const Netlist& netlist) : netlist_(netlist) {
  for (const auto& reg : netlist.registers()) {
    registers_.emplace_back(reg.width);
  }
  for (const auto& port : netlist.ports()) {
    inputs_.emplace_back(port.width);
  }
  for (const Connection& conn : netlist.connections()) {
    sinks_[conn.to].push_back(&conn);
  }
  for (const auto& fu : netlist.fus()) {
    util::require(fu.kind != FuKind::kRandomLogic,
                  "Interpreter: kRandomLogic has no RT-level semantics (" +
                      fu.name + "); use the gate level");
  }
  on_stack_.assign(netlist.muxes().size() + netlist.fus().size(), 0);
}

void Interpreter::reset() {
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = util::BitVector(netlist_.registers()[i].width);
  }
  memo_.clear();
}

void Interpreter::set_input(const std::string& port, util::BitVector value) {
  set_input(netlist_.find_port(port), std::move(value));
}

void Interpreter::set_input(PortId port, util::BitVector value) {
  util::require(netlist_.port(port).dir == PortDir::kInput,
                "Interpreter::set_input: not an input port");
  util::require(value.width() == netlist_.port(port).width,
                "Interpreter::set_input: width mismatch");
  inputs_[port.index()] = std::move(value);
}

void Interpreter::settle() { memo_.clear(); }

void Interpreter::step() {
  settle();
  // Capture: evaluate every register's next value against the pre-edge
  // state, then commit all at once.
  std::vector<util::BitVector> next = registers_;
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    const RegisterId id(static_cast<std::uint32_t>(i));
    const auto& reg = netlist_.registers()[i];
    bool load = true;
    if (reg.has_load_enable) {
      auto it = sinks_.find(netlist_.reg_load(id));
      if (it != sinks_.end()) {
        load = sink_value(netlist_.reg_load(id), 1).get(0);
      }
    }
    if (!load) continue;
    // Only driven bits update; undriven bits hold.
    auto it = sinks_.find(netlist_.reg_d(id));
    if (it == sinks_.end()) continue;
    for (const Connection* conn : it->second) {
      const util::BitVector src = driver_value(conn->from);
      for (unsigned b = 0; b < conn->width; ++b) {
        next[i].set(conn->to_lo + b, src.get(conn->from_lo + b));
      }
    }
  }
  registers_ = std::move(next);
  settle();
}

util::BitVector Interpreter::output(const std::string& port) const {
  return output(netlist_.find_port(port));
}

util::BitVector Interpreter::output(PortId port) const {
  util::require(netlist_.port(port).dir == PortDir::kOutput,
                "Interpreter::output: not an output port");
  // const_cast: evaluation memoizes but is logically const between edges.
  auto& self = const_cast<Interpreter&>(*this);
  return self.sink_value(netlist_.pin(port), netlist_.port(port).width);
}

util::BitVector Interpreter::sink_value(const PinRef& pin, unsigned width) {
  util::BitVector value(width);
  auto it = sinks_.find(pin);
  if (it == sinks_.end()) return value;
  for (const Connection* conn : it->second) {
    const util::BitVector src = driver_value(conn->from);
    for (unsigned b = 0; b < conn->width; ++b) {
      value.set(conn->to_lo + b, src.get(conn->from_lo + b));
    }
  }
  return value;
}

util::BitVector Interpreter::driver_value(const PinRef& pin) {
  if (auto it = memo_.find(pin); it != memo_.end()) return it->second;
  util::BitVector value;
  switch (pin.role) {
    case PinRole::kPort:
      value = inputs_.at(pin.comp.index);
      break;
    case PinRole::kRegQ:
      value = registers_.at(pin.comp.index);
      break;
    case PinRole::kConstOut:
      value = netlist_.constants().at(pin.comp.index).value;
      break;
    case PinRole::kMuxOut: {
      const MuxId id(pin.comp.index);
      const std::size_t guard = pin.comp.index;
      util::require(!on_stack_[guard],
                    "Interpreter: combinational mux loop");
      on_stack_[guard] = 1;
      const auto& mux = netlist_.mux(id);
      const unsigned sel_width = netlist_.pin_width(netlist_.mux_select(id));
      const std::uint64_t sel =
          sink_value(netlist_.mux_select(id), sel_width).to_u64();
      if (sel < mux.num_inputs) {
        value = sink_value(netlist_.mux_in(id, static_cast<unsigned>(sel)),
                           mux.width);
      } else {
        value = util::BitVector(mux.width);  // unmapped select reads 0
      }
      on_stack_[guard] = 0;
      break;
    }
    case PinRole::kFuOut: {
      const std::size_t guard = netlist_.muxes().size() + pin.comp.index;
      util::require(!on_stack_[guard], "Interpreter: combinational FU loop");
      on_stack_[guard] = 1;
      value = eval_fu(FuId(pin.comp.index));
      on_stack_[guard] = 0;
      break;
    }
    default:
      util::raise("Interpreter: driver_value on non-driver pin");
  }
  memo_.emplace(pin, value);
  return value;
}

util::BitVector Interpreter::eval_fu(FuId id) {
  const auto& fu = netlist_.fu(id);
  util::require(fu.width <= 64, "Interpreter: FU wider than 64 bits");
  auto op = [&](unsigned index) {
    const unsigned width = netlist_.pin_width(netlist_.fu_in(id, index));
    return sink_value(netlist_.fu_in(id, index), width);
  };
  const std::uint64_t mask =
      fu.width >= 64 ? ~0ULL : ((1ULL << fu.width) - 1);
  switch (fu.kind) {
    case FuKind::kBuf:
      return op(0);
    case FuKind::kAdd:
      return util::BitVector(fu.width,
                             (low_bits(op(0)) + low_bits(op(1))) & mask);
    case FuKind::kSub:
      return util::BitVector(fu.width,
                             (low_bits(op(0)) - low_bits(op(1))) & mask);
    case FuKind::kIncrement:
      return util::BitVector(fu.width, (low_bits(op(0)) + 1) & mask);
    case FuKind::kAnd:
      return util::BitVector(fu.width, low_bits(op(0)) & low_bits(op(1)));
    case FuKind::kOr:
      return util::BitVector(fu.width, low_bits(op(0)) | low_bits(op(1)));
    case FuKind::kXor:
      return util::BitVector(fu.width, low_bits(op(0)) ^ low_bits(op(1)));
    case FuKind::kNot:
      return util::BitVector(fu.width, (~low_bits(op(0))) & mask);
    case FuKind::kShiftLeft:
      return util::BitVector(fu.width, (low_bits(op(0)) << 1) & mask);
    case FuKind::kShiftRight:
      return util::BitVector(fu.width, (low_bits(op(0)) >> 1) & mask);
    case FuKind::kEqual:
      return util::BitVector(1, low_bits(op(0)) == low_bits(op(1)) ? 1 : 0);
    case FuKind::kLess:
      return util::BitVector(1, low_bits(op(0)) < low_bits(op(1)) ? 1 : 0);
    case FuKind::kAlu: {
      const std::uint64_t a = low_bits(op(0));
      const std::uint64_t b = low_bits(op(1));
      switch (low_bits(op(2)) & 3) {
        case 0:
          return util::BitVector(fu.width, (a + b) & mask);
        case 1:
          return util::BitVector(fu.width, a & b);
        case 2:
          return util::BitVector(fu.width, a | b);
        default:
          return util::BitVector(fu.width, a ^ b);
      }
    }
    case FuKind::kRandomLogic:
      break;
  }
  util::raise("Interpreter: cannot evaluate functional unit " + fu.name);
}

}  // namespace socet::rtl
