// Reconstructed example systems-on-chip.
//
// The paper evaluates on two SOCs whose RTL is not public.  These
// reconstructions follow every structural detail the paper gives:
//
// System 1 — the barcode scanning embedded system of Figure 2:
//   * CPU (Figure 3, after Navabi's 8-bit processor): PC, MAR (page +
//     offset), IR, ACCUMULATOR, Status register; Data input; Address
//     output split (11..8)/(7..0); Read/Write control chains; the mux "M"
//     that enables the one-cycle Data -> Address(7..0) shortcut of
//     Version 2 (Figure 5).
//   * PREPROCESSOR: width-measuring pipeline (NUM -> DB latency 5 in the
//     minimum-area version, 1 via the Version-2 bypass), address counter
//     (NUM -> Address latency 2), Reset -> Eoc control chain (latency 2).
//   * DISPLAY: 66 flip-flops and 20 internal input bits, exactly the
//     paper's counts (12-bit address register, 8-bit data register,
//     4-bit counter, six 7-bit segment-code registers); D -> OUT
//     latency 2, A -> OUT latency 3.
//   * RAM/ROM are BIST-tested per the paper and excluded from the SOCET
//     flow (Section 5), so they are not modeled here.
//
// System 2 — a graphics processor core [9], a GCD core [10] and an X25
// protocol core [11], reconstructed from their HLS-benchmark descriptions
// and wired in a pipeline with deliberately unobservable points (forcing
// the system-level test muxes Table 2 charges for).
//
// Controller logic inside every core is a seeded random-logic cloud sized
// to land the total chip areas near the paper's Table 2 (System 1
// ~8,000 cells, System 2 ~5,500 cells).
#pragma once

#include <memory>
#include <vector>

#include "socet/soc/soc.hpp"

namespace socet::systems {

// Individual core RTL, for unit tests and core-level experiments.
rtl::Netlist make_cpu_rtl();
rtl::Netlist make_preprocessor_rtl();
rtl::Netlist make_display_rtl();
rtl::Netlist make_graphics_rtl();
rtl::Netlist make_gcd_rtl();
rtl::Netlist make_x25_rtl();

/// A fully prepared system: cores (with version menus and default test-set
/// sizes) plus the wired SOC.
struct System {
  std::vector<std::unique_ptr<core::Core>> cores;
  std::unique_ptr<soc::Soc> soc;

  core::Core& core_named(const std::string& name);
};

/// System 1, the barcode SOC of Figure 2 (CPU + PREPROCESSOR + DISPLAY).
System make_barcode_system();

/// System 2 (GRAPHICS + GCD + X25).
System make_system2();

}  // namespace socet::systems
