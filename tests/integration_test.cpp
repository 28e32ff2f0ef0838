// End-to-end integration: every stage of the SOCET flow composed on a
// fresh two-core SOC built through the rtl::Netlist API (the way a core
// provider's design data enters the library), plus whole-flow
// determinism checks on the paper systems.
#include <gtest/gtest.h>

#include "socet/atpg/atpg.hpp"
#include "socet/core/serialize.hpp"
#include "socet/emit/verilog.hpp"
#include "socet/opt/optimize.hpp"
#include "socet/soc/controller.hpp"
#include "socet/soc/parallel.hpp"
#include "socet/soc/testprogram.hpp"
#include "socet/soc/validate.hpp"
#include "socet/synth/elaborate.hpp"
#include "socet/systems/systems.hpp"

namespace socet {
namespace {

/// A two-tap averaging filter: SAMPLE (or the average of the two taps)
/// loads S1 under Gate, S1 shifts into S2, and S2 drives FILTERED.
rtl::Netlist make_producer() {
  rtl::Netlist n("PRODUCER");
  const auto sample = n.add_input("SAMPLE", 8);
  const auto gate = n.add_input("Gate", 1, rtl::PortKind::kControl);
  const auto mode = n.add_input("Mode", 1, rtl::PortKind::kControl);
  const auto filtered = n.add_output("FILTERED", 8);
  const auto s1 = n.add_register("S1", 8);
  const auto s2 = n.add_register("S2", 8, /*has_load_enable=*/false);
  const auto m_s1 = n.add_mux("m_s1", 8, 2);
  const auto avg = n.add_fu("AVG", rtl::FuKind::kAdd, 8, 2);
  n.connect(n.pin(sample), n.mux_in(m_s1, 0));
  n.connect(n.fu_out(avg), n.mux_in(m_s1, 1));
  n.connect(n.mux_out(m_s1), n.reg_d(s1));
  n.connect(n.pin(gate), n.reg_load(s1));
  n.connect(n.pin(mode), n.mux_select(m_s1));
  n.connect(n.reg_q(s1), n.reg_d(s2));
  n.connect(n.reg_q(s1), n.fu_in(avg, 0));
  n.connect(n.reg_q(s2), n.fu_in(avg, 1));
  n.connect(n.reg_q(s2), n.pin(filtered));
  return n;
}

/// A peak detector: HOLD keeps the larger of itself and DIN.
rtl::Netlist make_consumer() {
  rtl::Netlist n("CONSUMER");
  const auto din = n.add_input("DIN", 8);
  const auto peak = n.add_output("PEAK", 8);
  const auto hold = n.add_register("HOLD", 8);
  const auto bigger = n.add_fu("BIGGER", rtl::FuKind::kLess, 8, 2);
  const auto m_hold = n.add_mux("m_hold", 8, 2);
  n.connect(n.pin(din), n.mux_in(m_hold, 0));
  n.connect(n.reg_q(hold), n.mux_in(m_hold, 1));
  n.connect(n.fu_out(bigger), n.mux_select(m_hold));
  n.connect(n.pin(din), n.fu_in(bigger, 0));
  n.connect(n.reg_q(hold), n.fu_in(bigger, 1));
  n.connect(n.mux_out(m_hold), n.reg_d(hold));
  n.connect(n.reg_q(hold), n.pin(peak));
  return n;
}

TEST(Integration, TextToTestProgramEndToEnd) {
  // 1. Provider flow: measure real test sets with ATPG.
  core::Core producer = core::Core::prepare(make_producer());
  core::Core consumer = core::Core::prepare(make_consumer());
  for (core::Core* core : {&producer, &consumer}) {
    auto elab = synth::elaborate(core->netlist());
    auto atpg = atpg::generate_tests(elab.gates, {.random_patterns = 32});
    EXPECT_GT(atpg.coverage().fault_coverage(), 90.0) << core->name();
    core->set_scan_vectors(static_cast<unsigned>(atpg.vector_count()));
  }

  // 2. Integrator flow: wire the chip.
  soc::Soc chip("STREAM");
  auto cp = chip.add_core(&producer);
  auto cc = chip.add_core(&consumer);
  auto sample = chip.add_pi("SAMPLE", 8);
  auto gate = chip.add_pi("Gate", 1);
  auto mode = chip.add_pi("Mode", 1);
  auto peak = chip.add_po("PEAK", 8);
  chip.connect(sample, cp, "SAMPLE");
  chip.connect(gate, cp, "Gate");
  chip.connect(mode, cp, "Mode");
  chip.connect(cp, "FILTERED", cc, "DIN");
  chip.connect(cc, "PEAK", peak);
  chip.validate();

  // 3. Plan, validate, optimize, schedule, assemble.
  const std::vector<unsigned> min_area(2, 0);
  auto plan = soc::plan_chip_test(chip, min_area);
  EXPECT_TRUE(soc::validate_plan(chip, min_area, plan).empty());
  EXPECT_GT(plan.total_tat, 0u);

  auto best = opt::minimize_tat(chip, 10'000);
  EXPECT_LE(best.tat, plan.total_tat);

  auto parallel = soc::schedule_parallel(chip, min_area, plan);
  EXPECT_LE(parallel.total_tat, plan.total_tat);

  auto program = soc::assemble_test_program(chip, min_area, plan);
  EXPECT_EQ(program.total_cycles, plan.total_tat);

  // 4. Generate the controller and check it elaborates.
  soc::Ccg ccg(chip, min_area);
  auto spec = soc::derive_controller_spec(chip, ccg, plan);
  auto controller_rtl = soc::generate_controller_rtl(spec);
  auto controller_gates = synth::elaborate(controller_rtl);
  EXPECT_GT(controller_gates.gates.cell_count(), 0u);

  // 5. Everything emits.
  EXPECT_NO_THROW(emit::emit_verilog(producer.netlist()));
  EXPECT_NO_THROW(emit::emit_verilog(controller_rtl));
  EXPECT_NO_THROW(core::serialize_interface(producer));
}

TEST(Integration, WholeFlowDeterministicOnSystem1) {
  auto run_once = []() {
    auto system = systems::make_barcode_system();
    const std::vector<unsigned> selection(3, 0);
    auto plan = soc::plan_chip_test(*system.soc, selection);
    auto best = opt::minimize_tat(*system.soc, 1'000'000);
    auto program = soc::assemble_test_program(*system.soc, selection, plan);
    return std::tuple{plan.total_tat, plan.total_overhead_cells(), best.tat,
                      best.overhead_cells,
                      soc::describe_test_program(*system.soc, program)};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Integration, SelectionSweepAllValidOnBothSystems) {
  for (auto* make : {&systems::make_barcode_system, &systems::make_system2}) {
    auto system = make();
    auto points = opt::enumerate_design_space(*system.soc);
    for (const auto& point : points) {
      auto violations =
          soc::validate_plan(*system.soc, point.selection, point.plan);
      EXPECT_TRUE(violations.empty())
          << system.soc->name() << ": "
          << (violations.empty() ? "" : violations.front());
    }
  }
}

}  // namespace
}  // namespace socet
