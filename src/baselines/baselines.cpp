#include "socet/baselines/baselines.hpp"

#include <set>

namespace socet::baselines {

namespace {

/// A boundary-scan cell per internal port bit.  IEEE 1149.1-style cells
/// are genuinely expensive: capture flip-flop + update latch + two muxes,
/// about six gate-equivalents.
constexpr unsigned kBoundaryCellsPerBit = 6;
/// TAP controller and chip-level glue.
constexpr unsigned kTapControllerCells = 40;
/// Test-bus access mux per internal port bit.
constexpr unsigned kTestBusMuxCellsPerBit = 1;
/// Test-bus control.
constexpr unsigned kTestBusControlCells = 16;

/// Port bits of core `c` that are wired directly to a chip pin (and so
/// need no boundary-scan cell / test-bus mux).
std::set<rtl::PortId> externally_wired_ports(const soc::Soc& soc,
                                             std::uint32_t c) {
  std::set<rtl::PortId> external;
  for (const soc::Link& link : soc.links()) {
    if (const auto* ref = std::get_if<soc::CorePortRef>(&link.to)) {
      if (ref->core == c && std::holds_alternative<soc::PiId>(link.from)) {
        external.insert(ref->port);
      }
    }
    if (const auto* ref = std::get_if<soc::CorePortRef>(&link.from)) {
      if (ref->core == c && std::holds_alternative<soc::PoId>(link.to)) {
        external.insert(ref->port);
      }
    }
  }
  return external;
}

}  // namespace

FscanBscanResult fscan_bscan(const soc::Soc& soc) {
  FscanBscanResult result;
  result.chip_level_cells = kTapControllerCells;
  for (std::uint32_t c = 0; c < soc.cores().size(); ++c) {
    const core::Core& core = soc.core(c);
    const auto external = externally_wired_ports(soc, c);

    FscanBscanCoreRow row;
    row.core = core.name();
    row.flip_flops = core.flip_flop_count();
    for (std::uint32_t p = 0; p < core.netlist().ports().size(); ++p) {
      const rtl::PortId port(p);
      if (external.count(port)) continue;
      row.boundary_bits += core.netlist().port(port).width;
    }
    row.vectors = core.scan_vectors();
    const unsigned long long chain = row.flip_flops + row.boundary_bits;
    row.tat = chain * row.vectors + (chain > 0 ? chain - 1 : 0);

    result.core_level_cells += core.fscan_overhead_cells();
    result.chip_level_cells += row.boundary_bits * kBoundaryCellsPerBit;
    result.total_tat += row.tat;
    result.cores.push_back(std::move(row));
  }
  return result;
}

IsolationRingResult partial_isolation_rings(const soc::Soc& soc) {
  IsolationRingResult result;
  result.chip_level_cells = kTapControllerCells;

  // Under full-scan cores, a core-to-core wire is already accessible: the
  // driving neighbour's output registers are controllable through its scan
  // chain, and the receiving neighbour's capture flip-flops observe it.
  // Ring cells are therefore needed only on ports that connect to nothing
  // testable (here: the BIST-tested memories, i.e. dangling ports).
  std::set<soc::CorePortRef> wired;
  for (const soc::Link& link : soc.links()) {
    if (const auto* ref = std::get_if<soc::CorePortRef>(&link.from)) {
      wired.insert(*ref);
    }
    if (const auto* ref = std::get_if<soc::CorePortRef>(&link.to)) {
      wired.insert(*ref);
    }
  }

  for (std::uint32_t c = 0; c < soc.cores().size(); ++c) {
    const core::Core& core = soc.core(c);

    unsigned ring_bits = 0;
    for (std::uint32_t p = 0; p < core.netlist().ports().size(); ++p) {
      const rtl::PortId port(p);
      if (wired.count(soc::CorePortRef{c, port})) continue;
      ring_bits += core.netlist().port(port).width;
    }

    result.ring_bits += ring_bits;
    result.core_level_cells += core.fscan_overhead_cells();
    result.chip_level_cells += ring_bits * kBoundaryCellsPerBit;
    const unsigned long long chain = core.flip_flop_count() + ring_bits;
    result.total_tat +=
        chain * core.scan_vectors() + (chain > 0 ? chain - 1 : 0);
  }
  return result;
}

TestBusResult test_bus(const soc::Soc& soc) {
  TestBusResult result;
  result.chip_level_cells = kTestBusControlCells;
  for (std::uint32_t c = 0; c < soc.cores().size(); ++c) {
    const core::Core& core = soc.core(c);
    const auto external = externally_wired_ports(soc, c);
    for (std::uint32_t p = 0; p < core.netlist().ports().size(); ++p) {
      const rtl::PortId port(p);
      if (external.count(port)) continue;
      result.chip_level_cells +=
          core.netlist().port(port).width * kTestBusMuxCellsPerBit;
    }
    // Direct access: each HSCAN vector applies in one cycle; the last
    // response drains the deepest chain.
    const unsigned depth = core.hscan().max_depth;
    result.total_tat +=
        static_cast<unsigned long long>(core.hscan_vectors()) +
        (depth > 0 ? depth - 1 : 0);
  }
  return result;
}

}  // namespace socet::baselines
