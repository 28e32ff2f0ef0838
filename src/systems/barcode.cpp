#include <string>

#include "socet/systems/systems.hpp"

namespace socet::systems {

namespace {

using rtl::FuKind;
using rtl::Netlist;
using rtl::PinRef;

/// Adds a 2-input mux whose input 0 is `a` and input 1 is `b`, driving
/// `dst`; the select comes from `sel` (often a control-cloud bit).
/// Returns the mux id.
rtl::MuxId mux2(Netlist& n, const std::string& name, unsigned width,
                PinRef a, unsigned a_lo, PinRef b, unsigned b_lo, PinRef dst,
                unsigned dst_lo, PinRef sel, unsigned sel_lo) {
  auto m = n.add_mux(name, width, 2);
  n.connect(a, a_lo, n.mux_in(m, 0), 0, width);
  n.connect(b, b_lo, n.mux_in(m, 1), 0, width);
  n.connect(n.mux_out(m), 0, dst, dst_lo, width);
  n.connect(sel, sel_lo, n.mux_select(m), 0, 1);
  return m;
}

}  // namespace

rtl::Netlist make_cpu_rtl() {
  Netlist n("CPU");

  // Interface (Figures 2/3): the memory data bus feeds the CPU; the
  // address bus leaves in two slices (the paper's split CCG nodes).
  auto data = n.add_input("Data", 8);
  auto reset = n.add_input("Reset", 1, rtl::PortKind::kControl);
  auto intr = n.add_input("Interrupt", 1, rtl::PortKind::kControl);
  auto addr_lo = n.add_output("AddrLo", 8);
  auto addr_hi = n.add_output("AddrHi", 4);
  auto data_out = n.add_output("DataOut", 8);
  auto read = n.add_output("Read", 1, rtl::PortKind::kControl);
  auto write = n.add_output("Write", 1, rtl::PortKind::kControl);

  // Register file of Figure 3.
  auto ir = n.add_register("IR", 8);
  auto ac = n.add_register("ACCUMULATOR", 8);
  auto sr = n.add_register("SR", 4);
  auto pc_page = n.add_register("PCpage", 4);
  auto pc_off = n.add_register("PCoff", 8);
  auto mar_page = n.add_register("MARpage", 4);
  auto mar_off = n.add_register("MARoff", 8);
  auto ctl_r = n.add_register("CTLR", 1);
  auto ctl_w = n.add_register("CTLW", 1);

  // Datapath functional units.
  auto alu = n.add_fu("ALU", FuKind::kAlu, 8, 3);
  auto inc_pc = n.add_fu("INCPC", FuKind::kIncrement, 8, 1);
  auto inc_pg = n.add_fu("INCPG", FuKind::kIncrement, 4, 1);

  // Controller cloud: decodes IR/SR and sequences the datapath.  Inputs:
  // IR(8) + SR(4) + CTLR + CTLW = 14 bits; 24 control outputs.
  auto ctl = n.add_random_logic("CTRL", 14, 24, 2600, /*seed=*/0xC9);
  n.connect(n.reg_q(ir), 0, n.fu_in(ctl, 0), 0, 8);
  n.connect(n.reg_q(sr), 0, n.fu_in(ctl, 0), 8, 4);
  n.connect(n.reg_q(ctl_r), 0, n.fu_in(ctl, 0), 12, 1);
  n.connect(n.reg_q(ctl_w), 0, n.fu_in(ctl, 0), 13, 1);
  const PinRef c = n.fu_out(ctl);
  auto cbit = [&](unsigned b) { return b; };  // control bit index helper

  // ALU operands: ACCUMULATOR and Data; op select from the cloud.
  n.connect(n.reg_q(ac), n.fu_in(alu, 0));
  n.connect(n.pin(data), n.fu_in(alu, 1));
  n.connect(c, cbit(0), n.fu_in(alu, 2), 0, 2);

  // IR <- Data | ALU result (instruction fetch vs. data move).
  mux2(n, "m_ir", 8, n.pin(data), 0, n.fu_out(alu), 0, n.reg_d(ir), 0,
       c, 13);
  n.connect(c, cbit(2), n.reg_load(ir), 0, 1);

  // SR <- IR(7..4) | ALU flags (low nibble of the result here).
  mux2(n, "m_sr", 4, n.reg_q(ir), 4, n.fu_out(alu), 0, n.reg_d(sr), 0,
       c, 14);
  n.connect(c, cbit(3), n.reg_load(sr), 0, 1);

  // ACCUMULATOR is the paper's C-split node: its low nibble loads from
  // IR(3..0) (immediate operand), its high nibble from SR (flag restore) —
  // two different sources for two different slices.
  mux2(n, "m_acl", 4, n.reg_q(ir), 0, n.fu_out(alu), 0, n.reg_d(ac), 0,
       c, 15);
  mux2(n, "m_ach", 4, n.reg_q(sr), 0, n.fu_out(alu), 4, n.reg_d(ac), 4,
       c, 16);
  n.connect(c, cbit(4), n.reg_load(ac), 0, 1);

  // MARpage <- IR(3..0) | PCpage: the short branch from the O-split IR
  // that reaches Address(11..8) in two cycles.
  mux2(n, "m_mp", 4, n.reg_q(ir), 0, n.reg_q(pc_page), 0, n.reg_d(mar_page),
       0, c, 17);
  n.connect(c, cbit(5), n.reg_load(mar_page), 0, 1);

  // MARoff: the mux "M" of Figure 3 — PCoff for instruction fetch, and a
  // direct Data path (the Version 2 / Figure 5 shortcut).
  mux2(n, "M", 8, n.reg_q(pc_off), 0, n.pin(data), 0, n.reg_d(mar_off), 0,
       c, 18);
  n.connect(c, cbit(6), n.reg_load(mar_off), 0, 1);

  // PCoff <- PCoff + 1 | ACCUMULATOR (jump target).
  n.connect(n.reg_q(pc_off), n.fu_in(inc_pc, 0));
  mux2(n, "m_pco", 8, n.fu_out(inc_pc), 0, n.reg_q(ac), 0, n.reg_d(pc_off),
       0, c, 19);
  n.connect(c, cbit(7), n.reg_load(pc_off), 0, 1);

  // PCpage <- PCpage + 1 | MARpage.
  n.connect(n.reg_q(pc_page), n.fu_in(inc_pg, 0));
  mux2(n, "m_pcp", 4, n.fu_out(inc_pg), 0, n.reg_q(mar_page), 0,
       n.reg_d(pc_page), 0, c, 20);
  n.connect(c, cbit(8), n.reg_load(pc_page), 0, 1);

  // Control chains of Figure 4: Reset -> CTLR -> Read and
  // Interrupt -> CTLW -> Write, each a single-bit scan/transparency chain
  // bypassing the random logic.
  mux2(n, "m_cr", 1, n.pin(reset), 0, c, cbit(9), n.reg_d(ctl_r), 0,
       c, 21);
  mux2(n, "m_cw", 1, n.pin(intr), 0, c, cbit(10), n.reg_d(ctl_w), 0,
       c, 22);
  mux2(n, "m_rd", 1, n.reg_q(ctl_r), 0, c, cbit(11), n.pin(read), 0,
       c, 23);
  mux2(n, "m_wr", 1, n.reg_q(ctl_w), 0, c, cbit(12), n.pin(write), 0,
       c, 13);

  // Outputs: address slices straight off MAR, data bus off ACCUMULATOR.
  n.connect(n.reg_q(mar_off), n.pin(addr_lo));
  n.connect(n.reg_q(mar_page), n.pin(addr_hi));
  n.connect(n.reg_q(ac), n.pin(data_out));

  n.validate();
  return n;
}

rtl::Netlist make_preprocessor_rtl() {
  Netlist n("PREPROCESSOR");

  auto video = n.add_input("Video", 1);
  auto num = n.add_input("NUM", 8);
  auto reset = n.add_input("Reset", 1, rtl::PortKind::kControl);
  auto db = n.add_output("DB", 8);
  auto addr = n.add_output("Address", 12);
  auto eoc = n.add_output("Eoc", 1, rtl::PortKind::kControl);

  // Width-measuring pipeline: NUM -> F1 -> F2 -> F3 -> F4 -> DOUT -> DB
  // gives the minimum-area NUM -> DB latency of 5 (Figure 8(a)).
  auto f1 = n.add_register("F1", 8);
  auto f2 = n.add_register("F2", 8);
  auto f3 = n.add_register("F3", 8);
  auto f4 = n.add_register("F4", 8);
  auto dout = n.add_register("DOUT", 8);
  // Address generation: counter page + NUM-derived offset; the 12-bit
  // AREG is a C-split node (two sources for two slices).
  auto n1 = n.add_register("N1", 8);
  auto cnt = n.add_register("CNT", 4);
  auto areg = n.add_register("AREG", 12);
  // Video sampling and end-of-conversion chain (Reset -> Eoc latency 2).
  auto vreg = n.add_register("VREG", 1);
  auto e1 = n.add_register("E1", 1);
  auto e2 = n.add_register("E2", 1);

  auto wsum = n.add_fu("WSUM", FuKind::kAdd, 8, 2);
  auto inc_cnt = n.add_fu("INCC", FuKind::kIncrement, 4, 1);
  auto thresh = n.add_fu("THRESH", FuKind::kLess, 8, 2);
  auto kthr = n.add_constant("KTHR", util::BitVector(8, 0x40));

  auto ctl = n.add_random_logic("PCTRL", 15, 18, 1800, /*seed=*/0xBA);
  n.connect(n.reg_q(f4), 0, n.fu_in(ctl, 0), 0, 8);
  n.connect(n.reg_q(cnt), 0, n.fu_in(ctl, 0), 8, 4);
  n.connect(n.reg_q(vreg), 0, n.fu_in(ctl, 0), 12, 1);
  n.connect(n.reg_q(e1), 0, n.fu_in(ctl, 0), 13, 1);
  n.connect(n.fu_out(thresh), 0, n.fu_in(ctl, 0), 14, 1);
  const PinRef c = n.fu_out(ctl);

  // Pipeline stages (each reusable as an HSCAN/transparency hop).
  mux2(n, "m_f1", 8, n.pin(num), 0, n.fu_out(wsum), 0, n.reg_d(f1), 0,
       c, 11);
  n.connect(c, 1, n.reg_load(f1), 0, 1);
  mux2(n, "m_f2", 8, n.reg_q(f1), 0, n.fu_out(wsum), 0, n.reg_d(f2), 0,
       c, 12);
  n.connect(c, 2, n.reg_load(f2), 0, 1);
  mux2(n, "m_f3", 8, n.reg_q(f2), 0, n.fu_out(wsum), 0, n.reg_d(f3), 0,
       c, 13);
  n.connect(c, 3, n.reg_load(f3), 0, 1);
  mux2(n, "m_f4", 8, n.reg_q(f3), 0, n.fu_out(wsum), 0, n.reg_d(f4), 0,
       c, 14);
  n.connect(c, 4, n.reg_load(f4), 0, 1);
  // DOUT <- F4 (pipeline end) | NUM (the Version-2 one-cycle bypass).
  mux2(n, "m_do", 8, n.reg_q(f4), 0, n.pin(num), 0, n.reg_d(dout), 0,
       c, 15);
  n.connect(c, 5, n.reg_load(dout), 0, 1);

  n.connect(n.reg_q(f4), n.fu_in(wsum, 0));
  n.connect(n.reg_q(f1), n.fu_in(wsum, 1));
  n.connect(n.reg_q(f4), n.fu_in(thresh, 0));
  n.connect(n.const_out(kthr), n.fu_in(thresh, 1));

  // Address path: NUM -> N1 -> AREG(7..0); CNT -> AREG(11..8).
  mux2(n, "m_n1", 8, n.pin(num), 0, n.fu_out(wsum), 0, n.reg_d(n1), 0,
       c, 16);
  n.connect(c, 6, n.reg_load(n1), 0, 1);
  n.connect(n.reg_q(cnt), n.fu_in(inc_cnt, 0));
  // The page counter is presettable from NUM (the paper's NUM -> Address
  // latency-2 path needs both AREG slices reachable in one hop).
  mux2(n, "m_cnt", 4, n.fu_out(inc_cnt), 0, n.pin(num), 0, n.reg_d(cnt), 0,
       c, 17);
  n.connect(c, 7, n.reg_load(cnt), 0, 1);
  mux2(n, "m_al", 8, n.reg_q(n1), 0, n.fu_out(wsum), 0, n.reg_d(areg), 0,
       c, 11);
  mux2(n, "m_ah", 4, n.reg_q(cnt), 0, n.fu_out(wsum), 4, n.reg_d(areg), 8,
       c, 12);
  n.connect(c, 8, n.reg_load(areg), 0, 1);

  // Video / end-of-conversion control chains.
  mux2(n, "m_v", 1, n.pin(video), 0, c, 9, n.reg_d(vreg), 0,
       c, 13);
  mux2(n, "m_e1", 1, n.pin(reset), 0, n.reg_q(vreg), 0, n.reg_d(e1), 0,
       c, 14);
  mux2(n, "m_e2", 1, n.reg_q(e1), 0, c, 10, n.reg_d(e2), 0,
       c, 15);

  n.connect(n.reg_q(dout), n.pin(db));
  n.connect(n.reg_q(areg), n.pin(addr));
  n.connect(n.reg_q(e2), n.pin(eoc));

  n.validate();
  return n;
}

rtl::Netlist make_display_rtl() {
  Netlist n("DISPLAY");

  // 20 internal input bits (A 12 + D 8) and 66 flip-flops, matching the
  // paper's FSCAN-BSCAN arithmetic ((66+20) x 105 + 85 = 9,115).
  auto d = n.add_input("D", 8);
  auto a_lo = n.add_input("ALo", 8);
  auto a_hi = n.add_input("AHi", 4);
  std::vector<rtl::PortId> ports;
  for (int i = 1; i <= 6; ++i) {
    ports.push_back(n.add_output("PORT" + std::to_string(i), 7));
  }

  auto dreg = n.add_register("DREG", 8);
  auto areg = n.add_register("AREG", 12);
  auto cnt = n.add_register("CNT", 4);
  std::vector<rtl::RegisterId> seg;
  for (int i = 1; i <= 6; ++i) {
    seg.push_back(n.add_register("SEG" + std::to_string(i), 7));
  }

  auto inc_cnt = n.add_fu("INCC", FuKind::kIncrement, 4, 1);
  // Binary-coded-decimal to seven-segment decode cloud.
  auto ctl = n.add_random_logic("DECODE", 24, 20, 1300, /*seed=*/0xD1);
  n.connect(n.reg_q(dreg), 0, n.fu_in(ctl, 0), 0, 8);
  n.connect(n.reg_q(areg), 0, n.fu_in(ctl, 0), 8, 12);
  n.connect(n.reg_q(cnt), 0, n.fu_in(ctl, 0), 20, 4);
  const PinRef c = n.fu_out(ctl);

  // DREG <- D (bus capture) | AREG(7..0) (address-mapped register file
  // readback) — the A -> OUT latency-3 path goes through here.
  mux2(n, "m_d", 8, n.pin(d), 0, n.reg_q(areg), 0, n.reg_d(dreg), 0,
       c, 17);
  n.connect(c, 1, n.reg_load(dreg), 0, 1);

  // AREG is C-split: low byte from ALo, page nibble from AHi.
  mux2(n, "m_al", 8, n.pin(a_lo), 0, n.reg_q(dreg), 0, n.reg_d(areg), 0,
       c, 18);
  mux2(n, "m_ah", 4, n.pin(a_hi), 0, n.reg_q(cnt), 0, n.reg_d(areg), 8,
       c, 19);
  n.connect(c, 2, n.reg_load(areg), 0, 1);

  n.connect(n.reg_q(cnt), n.fu_in(inc_cnt, 0));
  mux2(n, "m_cnt", 4, n.fu_out(inc_cnt), 0, n.reg_q(dreg), 0, n.reg_d(cnt),
       0, c, 17);
  n.connect(c, 3, n.reg_load(cnt), 0, 1);

  // Segment registers: decoded value | DREG passthrough (scan path).  The
  // first segment also takes ALo directly — the existing shortcut the
  // Version 2 menu recruits for A -> OUT latency 1.
  for (int i = 0; i < 6; ++i) {
    auto m = n.add_mux("m_s" + std::to_string(i + 1), 7,
                       i == 0 ? 3u : 2u);
    n.connect(c, 4 + static_cast<unsigned>(i), n.mux_in(m, 0), 0, 7);
    n.connect(n.reg_q(dreg), 0, n.mux_in(m, 1), 0, 7);
    if (i == 0) n.connect(n.pin(a_lo), 0, n.mux_in(m, 2), 0, 7);
    n.connect(n.mux_out(m), n.reg_d(seg[i]));
    n.connect(c, 10 + static_cast<unsigned>(i),
              n.mux_select(m), 0, i == 0 ? 2u : 1u);
    n.connect(c, 16, n.reg_load(seg[i]), 0, 1);
    n.connect(n.reg_q(seg[i]), n.pin(ports[i]));
  }

  n.validate();
  return n;
}

core::Core& System::core_named(const std::string& name) {
  for (auto& core : cores) {
    if (core->name() == name) return *core;
  }
  util::raise("System: no core named '" + name + "'");
}

System make_barcode_system() {
  System system;
  system.cores.push_back(std::make_unique<core::Core>(
      core::Core::prepare(make_cpu_rtl())));
  system.cores.push_back(std::make_unique<core::Core>(
      core::Core::prepare(make_preprocessor_rtl())));
  system.cores.push_back(std::make_unique<core::Core>(
      core::Core::prepare(make_display_rtl())));

  // Default precomputed test-set sizes (combinational scan vectors); the
  // benchmark harness can overwrite them with measured ATPG counts.  The
  // DISPLAY's 105 is the paper's own number.
  system.core_named("CPU").set_scan_vectors(110);
  system.core_named("PREPROCESSOR").set_scan_vectors(95);
  system.core_named("DISPLAY").set_scan_vectors(105);

  auto soc = std::make_unique<soc::Soc>("System1");
  const auto cpu = soc->add_core(system.cores[0].get());
  const auto pre = soc->add_core(system.cores[1].get());
  const auto disp = soc->add_core(system.cores[2].get());

  auto video = soc->add_pi("Video", 1);
  auto num = soc->add_pi("NUM", 8);
  auto reset = soc->add_pi("Reset", 1);
  auto cpu_reset = soc->add_pi("CpuReset", 1);
  for (int i = 1; i <= 6; ++i) {
    soc->add_po("PO-PORT" + std::to_string(i), 7);
  }

  // Figure 2 wiring.  The PREPROCESSOR writes bar widths over DB; the CPU
  // reads them (Data) and addresses the DISPLAY; Eoc interrupts the CPU.
  soc->connect(video, pre, "Video");
  soc->connect(num, pre, "NUM");
  soc->connect(reset, pre, "Reset");
  soc->connect(cpu_reset, cpu, "Reset");
  soc->connect(pre, "DB", cpu, "Data");
  soc->connect(pre, "Eoc", cpu, "Interrupt");
  soc->connect(cpu, "AddrLo", disp, "ALo");
  soc->connect(cpu, "AddrHi", disp, "AHi");
  soc->connect(pre, "DB", disp, "D");  // the shared data bus of Figure 2
  for (int i = 1; i <= 6; ++i) {
    soc->connect(disp, "PORT" + std::to_string(i),
                 soc->find_po("PO-PORT" + std::to_string(i)));
  }
  // The CPU's Read/Write/DataOut lines and the PREPROCESSOR's Address
  // output drive only the (BIST-tested, excluded) memories, exactly as in
  // Figure 2 — none reach chip pins, so the planner must add
  // system-level test muxes (the Figure 9 mux on PREPROCESSOR.Address).

  soc->validate();
  system.soc = std::move(soc);
  return system;
}

}  // namespace socet::systems
