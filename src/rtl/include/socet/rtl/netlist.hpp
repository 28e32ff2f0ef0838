// The RT-level netlist: components plus bit-sliced connections.
//
// Connections run between *pins*.  Every component exposes a fixed pin
// set (a register has D, Q and LOAD pins; a mux has data pins, a select
// pin and an output pin; ...).  A connection maps a bit range of a
// driving pin onto a bit range of a sink pin, which is how the model
// expresses the bit-slicing the paper's split-node machinery depends on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "socet/rtl/component.hpp"
#include "socet/util/error.hpp"

namespace socet::rtl {

enum class CompKind : std::uint8_t {
  kPort,
  kRegister,
  kMux,
  kFu,
  kConstant,
};

/// Type-erased reference to any component.
struct CompRef {
  CompKind kind = CompKind::kPort;
  std::uint32_t index = 0;

  friend bool operator==(const CompRef&, const CompRef&) = default;
  friend auto operator<=>(const CompRef&, const CompRef&) = default;
};

enum class PinRole : std::uint8_t {
  kPort,       ///< the single pin of a port (out for inputs, in for outputs)
  kRegD,       ///< register data input
  kRegQ,       ///< register data output
  kRegLoad,    ///< register load enable (1 bit)
  kMuxData,    ///< mux data input `arg`
  kMuxSelect,  ///< mux select input
  kMuxOut,     ///< mux output
  kFuIn,       ///< functional unit operand `arg`
  kFuOut,      ///< functional unit result
  kConstOut,   ///< constant driver
};

struct PinRef {
  CompRef comp;
  PinRole role = PinRole::kPort;
  std::uint32_t arg = 0;  ///< data-input / operand index where applicable

  friend bool operator==(const PinRef&, const PinRef&) = default;
  friend auto operator<=>(const PinRef&, const PinRef&) = default;
};

/// `width` bits of pin `from`, starting at `from_lo`, drive `width` bits of
/// pin `to`, starting at `to_lo`.
struct Connection {
  PinRef from;
  unsigned from_lo = 0;
  PinRef to;
  unsigned to_lo = 0;
  unsigned width = 1;
};

class Netlist {
 public:
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // ---- construction -------------------------------------------------------

  PortId add_input(const std::string& name, unsigned width,
                   PortKind kind = PortKind::kData);
  PortId add_output(const std::string& name, unsigned width,
                    PortKind kind = PortKind::kData);
  RegisterId add_register(const std::string& name, unsigned width,
                          bool has_load_enable = true);
  MuxId add_mux(const std::string& name, unsigned width, unsigned num_inputs);
  FuId add_fu(const std::string& name, FuKind kind, unsigned width,
              unsigned num_inputs);
  FuId add_random_logic(const std::string& name, unsigned in_width,
                        unsigned out_width, unsigned gate_hint,
                        std::uint64_t seed);
  ConstantId add_constant(const std::string& name, util::BitVector value);

  /// Full-width connection between two pins (widths must match).
  void connect(PinRef from, PinRef to);
  /// Bit-sliced connection.
  void connect(PinRef from, unsigned from_lo, PinRef to, unsigned to_lo,
               unsigned width);

  // ---- pin helpers ---------------------------------------------------------

  PinRef pin(PortId id) const;
  PinRef reg_d(RegisterId id) const;
  PinRef reg_q(RegisterId id) const;
  PinRef reg_load(RegisterId id) const;
  PinRef mux_in(MuxId id, unsigned data_index) const;
  PinRef mux_select(MuxId id) const;
  PinRef mux_out(MuxId id) const;
  PinRef fu_in(FuId id, unsigned operand) const;
  PinRef fu_out(FuId id) const;
  PinRef const_out(ConstantId id) const;

  /// Width of any pin.
  unsigned pin_width(const PinRef& pin) const;
  /// True for pins that drive values (port-in pins, Q, mux out, FU out,
  /// constants).
  bool is_driver_pin(const PinRef& pin) const;

  // ---- element access ------------------------------------------------------

  const std::vector<Port>& ports() const { return ports_; }
  const std::vector<Register>& registers() const { return registers_; }
  const std::vector<Mux>& muxes() const { return muxes_; }
  const std::vector<FunctionalUnit>& fus() const { return fus_; }
  const std::vector<Constant>& constants() const { return constants_; }
  const std::vector<Connection>& connections() const { return connections_; }

  const Port& port(PortId id) const { return ports_.at(id.index()); }
  const Register& reg(RegisterId id) const { return registers_.at(id.index()); }
  const Mux& mux(MuxId id) const { return muxes_.at(id.index()); }
  const FunctionalUnit& fu(FuId id) const { return fus_.at(id.index()); }

  /// All input (output) port ids, in creation order.
  std::vector<PortId> input_ports() const;
  std::vector<PortId> output_ports() const;

  /// Look up a port by name; throws util::Error if absent.
  PortId find_port(const std::string& name) const;
  /// Look up a register by name; throws util::Error if absent.
  RegisterId find_register(const std::string& name) const;

  /// Connections whose `from` is the given pin.
  std::vector<const Connection*> connections_from(const PinRef& pin) const;

  /// Total flip-flop count (sum of register widths).
  unsigned flip_flop_count() const;

  /// Checks structural sanity: widths in range, no sink bit driven twice,
  /// select widths large enough for the mux fan-in.  Throws util::Error
  /// describing the first violation.
  void validate() const;

 private:
  void check_connection(const Connection& conn) const;

  /// (fu index, input width) pairs for kRandomLogic units, whose input
  /// width is independent of their output width.
  std::vector<std::pair<std::uint32_t, unsigned>> random_logic_in_width_;

  std::string name_;
  std::vector<Port> ports_;
  std::vector<Register> registers_;
  std::vector<Mux> muxes_;
  std::vector<FunctionalUnit> fus_;
  std::vector<Constant> constants_;
  std::vector<Connection> connections_;
};

/// Human-readable pin description ("REG1.D[3:0]" style), for diagnostics.
std::string describe_pin(const Netlist& netlist, const PinRef& pin);

}  // namespace socet::rtl
