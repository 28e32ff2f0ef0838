#include <gtest/gtest.h>

#include "socet/baselines/baselines.hpp"
#include "socet/systems/systems.hpp"

namespace socet::baselines {
namespace {

TEST(FscanBscan, DisplayMatchesPaperArithmetic) {
  // The paper: the DISPLAY has 66 flip-flops and 20 internal input bits;
  // with 105 scan vectors, FSCAN-BSCAN needs (66+20) x 105 + 85 = 9,115
  // cycles.  Our reconstructed DISPLAY has exactly those counts when its
  // outputs sit on chip POs.
  auto system = systems::make_barcode_system();
  auto result = fscan_bscan(*system.soc);

  const FscanBscanCoreRow* display = nullptr;
  for (const auto& row : result.cores) {
    if (row.core == "DISPLAY") display = &row;
  }
  ASSERT_NE(display, nullptr);
  EXPECT_EQ(display->flip_flops, 66u);
  EXPECT_EQ(display->boundary_bits, 20u);
  EXPECT_EQ(display->vectors, 105u);
  EXPECT_EQ(display->tat, (66ull + 20) * 105 + 85);
}

TEST(FscanBscan, ExternallyWiredPortsNeedNoBoundaryCells) {
  auto system = systems::make_barcode_system();
  auto result = fscan_bscan(*system.soc);
  // The PREPROCESSOR's NUM/Video/Reset inputs are chip PIs, so only DB,
  // Address and Eoc (8 + 12 + 1 = 21 bits) need boundary cells.
  const FscanBscanCoreRow* pre = nullptr;
  for (const auto& row : result.cores) {
    if (row.core == "PREPROCESSOR") pre = &row;
  }
  ASSERT_NE(pre, nullptr);
  EXPECT_EQ(pre->boundary_bits, 21u);
}

TEST(FscanBscan, TotalsSumCoreRows) {
  auto system = systems::make_barcode_system();
  auto result = fscan_bscan(*system.soc);
  unsigned long long tat = 0;
  for (const auto& row : result.cores) tat += row.tat;
  EXPECT_EQ(result.total_tat, tat);
}

TEST(FscanBscan, CoreLevelCellsAreTheCoresFscanOverhead) {
  // Table 2's FSCAN column and the FSCAN-BSCAN total read one number.
  for (auto* make : {&systems::make_barcode_system, &systems::make_system2}) {
    auto system = make();
    unsigned fscan = 0;
    for (const auto& core : system.cores) fscan += core->fscan_overhead_cells();
    EXPECT_EQ(fscan_bscan(*system.soc).core_level_cells, fscan);
    EXPECT_EQ(partial_isolation_rings(*system.soc).core_level_cells, fscan);
  }
}

TEST(TestBus, FasterThanFscanBscanButCostly) {
  auto system = systems::make_barcode_system();
  auto bus = test_bus(*system.soc);
  auto bscan = fscan_bscan(*system.soc);
  // Direct access applies HSCAN vectors at full rate: far fewer cycles
  // than serial boundary-scan chains.
  EXPECT_LT(bus.total_tat, bscan.total_tat);
  EXPECT_GT(bus.chip_level_cells, 0u);
}

TEST(TestBus, TatIsVectorSumPlusFlush) {
  auto system = systems::make_barcode_system();
  auto bus = test_bus(*system.soc);
  unsigned long long expected = 0;
  for (const auto* core : system.soc->cores()) {
    expected += core->hscan_vectors() + (core->hscan().max_depth - 1);
  }
  EXPECT_EQ(bus.total_tat, expected);
}

}  // namespace
}  // namespace socet::baselines
