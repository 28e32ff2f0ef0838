#include <gtest/gtest.h>

#include "socet/rtl/interpreter.hpp"
#include "socet/systems/systems.hpp"

namespace socet::rtl {
namespace {

using util::BitVector;

TEST(Interpreter, RegisterCapturesOnStep) {
  Netlist n("r");
  auto in = n.add_input("IN", 8);
  auto out = n.add_output("OUT", 8);
  auto r = n.add_register("R", 8);
  n.connect(n.pin(in), n.reg_d(r));
  n.connect(n.reg_q(r), n.pin(out));

  Interpreter sim(n);
  sim.reset();
  sim.set_input("IN", BitVector(8, 42));
  sim.step();
  EXPECT_EQ(sim.output("OUT").to_u64(), 42u);
  sim.set_input("IN", BitVector(8, 7));
  sim.step();
  EXPECT_EQ(sim.output("OUT").to_u64(), 7u);
}

TEST(Interpreter, LoadEnableHolds) {
  Netlist n("r");
  auto in = n.add_input("IN", 4);
  auto ld = n.add_input("LD", 1, PortKind::kControl);
  auto out = n.add_output("OUT", 4);
  auto r = n.add_register("R", 4);
  n.connect(n.pin(in), n.reg_d(r));
  n.connect(n.pin(ld), n.reg_load(r));
  n.connect(n.reg_q(r), n.pin(out));

  Interpreter sim(n);
  sim.reset();
  sim.set_input("IN", BitVector(4, 9));
  sim.set_input("LD", BitVector(1, 1));
  sim.step();
  sim.set_input("IN", BitVector(4, 3));
  sim.set_input("LD", BitVector(1, 0));
  sim.step();
  EXPECT_EQ(sim.output("OUT").to_u64(), 9u);
}

TEST(Interpreter, MuxSelects) {
  Netlist n("m");
  auto a = n.add_input("A", 8);
  auto b = n.add_input("B", 8);
  auto sel = n.add_input("SEL", 1, PortKind::kControl);
  auto out = n.add_output("OUT", 8);
  auto r = n.add_register("R", 8, false);
  auto m = n.add_mux("M", 8, 2);
  n.connect(n.pin(a), n.mux_in(m, 0));
  n.connect(n.pin(b), n.mux_in(m, 1));
  n.connect(n.pin(sel), n.mux_select(m));
  n.connect(n.mux_out(m), n.reg_d(r));
  n.connect(n.reg_q(r), n.pin(out));

  Interpreter sim(n);
  sim.reset();
  sim.set_input("A", BitVector(8, 11));
  sim.set_input("B", BitVector(8, 22));
  sim.set_input("SEL", BitVector(1, 0));
  sim.step();
  EXPECT_EQ(sim.output("OUT").to_u64(), 11u);
  sim.set_input("SEL", BitVector(1, 1));
  sim.step();
  EXPECT_EQ(sim.output("OUT").to_u64(), 22u);
}

TEST(Interpreter, ArithmeticUnits) {
  Netlist n("fu");
  auto a = n.add_input("A", 8);
  auto b = n.add_input("B", 8);
  auto sum = n.add_output("SUM", 8);
  auto lt = n.add_output("LT", 1);
  auto add = n.add_fu("ADD", FuKind::kAdd, 8, 2);
  auto less = n.add_fu("LESS", FuKind::kLess, 8, 2);
  n.connect(n.pin(a), n.fu_in(add, 0));
  n.connect(n.pin(b), n.fu_in(add, 1));
  n.connect(n.fu_out(add), n.pin(sum));
  n.connect(n.pin(a), n.fu_in(less, 0));
  n.connect(n.pin(b), n.fu_in(less, 1));
  n.connect(n.fu_out(less), n.pin(lt));

  Interpreter sim(n);
  sim.set_input("A", BitVector(8, 200));
  sim.set_input("B", BitVector(8, 100));
  sim.step();
  EXPECT_EQ(sim.output("SUM").to_u64(), (200u + 100u) & 0xFF);
  EXPECT_EQ(sim.output("LT").to_u64(), 0u);
  sim.set_input("A", BitVector(8, 5));
  sim.step();
  EXPECT_EQ(sim.output("LT").to_u64(), 1u);
}

TEST(Interpreter, SlicedConnections) {
  Netlist n("s");
  auto hi = n.add_input("HI", 4);
  auto lo = n.add_input("LO", 4);
  auto out = n.add_output("OUT", 8);
  auto r = n.add_register("R", 8, false);
  n.connect(n.pin(hi), 0, n.reg_d(r), 4, 4);
  n.connect(n.pin(lo), 0, n.reg_d(r), 0, 4);
  n.connect(n.reg_q(r), n.pin(out));

  Interpreter sim(n);
  sim.set_input("HI", BitVector(4, 0xB));
  sim.set_input("LO", BitVector(4, 0x3));
  sim.step();
  EXPECT_EQ(sim.output("OUT").to_u64(), 0xB3u);
}

TEST(Interpreter, RejectsRandomLogic) {
  Netlist n("cloud");
  auto in = n.add_input("IN", 4);
  auto out = n.add_output("OUT", 4);
  auto cloud = n.add_random_logic("C", 4, 4, 20, 3);
  n.connect(n.pin(in), n.fu_in(cloud, 0));
  n.connect(n.fu_out(cloud), n.pin(out));
  EXPECT_THROW(Interpreter sim(n), util::Error);
}

TEST(Interpreter, GcdCoreComputesGcdManually) {
  // Drive the reconstructed GCD datapath through one subtract step by
  // hand (controller cloud excluded: build a cloudless twin).
  Netlist n("gcd");
  auto a = n.add_input("A", 8);
  auto b = n.add_input("B", 8);
  auto sel_a = n.add_input("SELA", 1, PortKind::kControl);
  auto out = n.add_output("OUT", 8);
  auto ra = n.add_register("RA", 8, false);
  auto rb = n.add_register("RB", 8, false);
  auto sub = n.add_fu("SUB", FuKind::kSub, 8, 2);
  auto m = n.add_mux("MA", 8, 2);
  n.connect(n.pin(a), n.mux_in(m, 0));
  n.connect(n.fu_out(sub), n.mux_in(m, 1));
  n.connect(n.pin(sel_a), n.mux_select(m));
  n.connect(n.mux_out(m), n.reg_d(ra));
  n.connect(n.pin(b), n.reg_d(rb));
  n.connect(n.reg_q(ra), n.fu_in(sub, 0));
  n.connect(n.reg_q(rb), n.fu_in(sub, 1));
  n.connect(n.reg_q(ra), n.pin(out));

  Interpreter sim(n);
  sim.set_input("A", BitVector(8, 21));
  sim.set_input("B", BitVector(8, 14));
  sim.set_input("SELA", BitVector(1, 0));
  sim.step();  // RA=21, RB=14
  sim.set_input("SELA", BitVector(1, 1));
  sim.step();  // RA = 21-14 = 7
  EXPECT_EQ(sim.output("OUT").to_u64(), 7u);
}

}  // namespace
}  // namespace socet::rtl
