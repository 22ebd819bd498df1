/** @file Unit tests for the hardware configuration module. */

#include <gtest/gtest.h>

#include <ostream>

#include "hw/system.h"
#include "test_util.h"

namespace dream {
namespace {

TEST(Dataflow, Names)
{
    EXPECT_EQ(toString(hw::Dataflow::WeightStationary), "WS");
    EXPECT_EQ(toString(hw::Dataflow::OutputStationary), "OS");
}

TEST(Accelerator, SliceMath)
{
    hw::AcceleratorConfig acc;
    acc.numPes = 2048;
    acc.numSlices = 4;
    EXPECT_EQ(acc.pesForSlices(4), 2048u);
    EXPECT_EQ(acc.pesForSlices(2), 1024u);
    EXPECT_EQ(acc.pesForSlices(1), 512u);
}

TEST(Accelerator, BandwidthScalesWithSlices)
{
    hw::AcceleratorConfig acc;
    acc.dramGbps = 90.0;
    acc.numSlices = 4;
    const double full = acc.bandwidthBytesPerUsForSlices(4);
    EXPECT_DOUBLE_EQ(full, 90e3);
    EXPECT_DOUBLE_EQ(acc.bandwidthBytesPerUsForSlices(1), full / 4.0);
}

TEST(Accelerator, CyclesToUs)
{
    hw::AcceleratorConfig acc;
    acc.clockMhz = 700.0;
    EXPECT_DOUBLE_EQ(acc.cyclesToUs(700.0), 1.0);
}

TEST(System, Table2PresetCount)
{
    EXPECT_EQ(hw::allSystemPresets().size(), 8u);
    EXPECT_EQ(hw::systemPresets4k().size(), 4u);
    EXPECT_EQ(hw::heterogeneousPresets().size(), 4u);
    EXPECT_EQ(hw::homogeneousPresets().size(), 4u);
}

struct PresetCase {
    hw::SystemPreset preset;
    uint32_t totalPes;
    size_t accels;
    bool homogeneous;
};

/// Print only the preset name. The default byte dump includes the
/// struct's uninitialised padding, and CTest records that dump in
/// the test names at build time.
void PrintTo(const PresetCase& pc, std::ostream* os)
{
    *os << hw::toString(pc.preset);
}

class SystemPresetTest : public ::testing::TestWithParam<PresetCase> {};

TEST_P(SystemPresetTest, MatchesTable2)
{
    const auto& pc = GetParam();
    const auto sys = hw::makeSystem(pc.preset);
    EXPECT_EQ(sys.totalPes(), pc.totalPes);
    EXPECT_EQ(sys.size(), pc.accels);
    EXPECT_EQ(sys.homogeneous(), pc.homogeneous);
    EXPECT_EQ(sys.name, toString(pc.preset));
    for (const auto& acc : sys.accelerators) {
        EXPECT_EQ(acc.sramBytes, 8ull * 1024 * 1024);
        EXPECT_DOUBLE_EQ(acc.dramGbps, 90.0);
        EXPECT_DOUBLE_EQ(acc.clockMhz, 700.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table2, SystemPresetTest,
    ::testing::Values(
        PresetCase{hw::SystemPreset::Sys4k2Ws, 4096, 2, true},
        PresetCase{hw::SystemPreset::Sys4k2Os, 4096, 2, true},
        PresetCase{hw::SystemPreset::Sys4k1Ws2Os, 4096, 3, false},
        PresetCase{hw::SystemPreset::Sys4k1Os2Ws, 4096, 3, false},
        PresetCase{hw::SystemPreset::Sys8k2Ws, 8192, 2, true},
        PresetCase{hw::SystemPreset::Sys8k2Os, 8192, 2, true},
        PresetCase{hw::SystemPreset::Sys8k1Ws2Os, 8192, 3, false},
        PresetCase{hw::SystemPreset::Sys8k1Os2Ws, 8192, 3, false}),
    [](const auto& info) {
        return test::paramName(hw::toString(info.param.preset));
    });

TEST(System, HeterogeneousPresetsMixDataflows)
{
    for (const auto preset : hw::heterogeneousPresets())
        EXPECT_FALSE(hw::makeSystem(preset).homogeneous());
    for (const auto preset : hw::homogeneousPresets())
        EXPECT_TRUE(hw::makeSystem(preset).homogeneous());
}

} // namespace
} // namespace dream
