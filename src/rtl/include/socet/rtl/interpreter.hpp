// Cycle-accurate RTL interpreter.
//
// Evaluates a netlist directly at the register-transfer level: muxes
// select, functional units compute arithmetic on BitVectors, registers
// capture on the clock edge.  Its purpose is cross-validation — the gate
// level produced by synth::elaborate must behave identically cycle by
// cycle (the property suite checks this on randomized circuits), and
// examples can exercise cores functionally without elaborating them.
//
// kRandomLogic units cannot be evaluated at RT level (their function is
// defined by the elaborator); driving anything through one throws.  Use
// the gate level when clouds are involved.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "socet/rtl/netlist.hpp"
#include "socet/util/bitvector.hpp"

namespace socet::rtl {

class Interpreter {
 public:
  explicit Interpreter(const Netlist& netlist);

  /// Zero every register.
  void reset();

  /// Drive an input port for subsequent cycles.
  void set_input(const std::string& port, util::BitVector value);
  void set_input(PortId port, util::BitVector value);

  /// Advance one clock: settle combinational values, capture registers,
  /// then re-settle so output() reflects the post-edge state.
  void step();

  /// Value at an output port after the last step().
  util::BitVector output(const std::string& port) const;
  util::BitVector output(PortId port) const;

 private:
  /// Value currently on a driver pin (combinational evaluation with
  /// memoization per settle pass).
  util::BitVector driver_value(const PinRef& pin);
  /// Value observed by a sink pin, assembled from its connections
  /// (undriven bits read 0).
  util::BitVector sink_value(const PinRef& pin, unsigned width);
  util::BitVector eval_fu(FuId id);
  void settle();

  const Netlist& netlist_;
  std::vector<util::BitVector> registers_;
  std::vector<util::BitVector> inputs_;
  std::map<PinRef, std::vector<const Connection*>> sinks_;
  std::map<PinRef, util::BitVector> memo_;
  std::vector<char> on_stack_;  ///< combinational loop guard (per mux/fu)
};

}  // namespace socet::rtl
