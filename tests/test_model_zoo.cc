/** @file Tests for Model aggregates and the full Table 3 model zoo. */

#include <gtest/gtest.h>

#include "models/zoo.h"
#include "test_util.h"

namespace dream {
namespace {

using namespace models;

TEST(Model, Aggregates)
{
    const Model m = test::toyModel();
    EXPECT_EQ(m.totalMacs(), totalMacs(m.layers));
    EXPECT_GT(m.totalWeightBytes(), 0ull);
    EXPECT_FALSE(m.isSupernet());
}

TEST(Model, VariantPathSharesPrefix)
{
    const Model m = test::toySupernet();
    ASSERT_TRUE(m.isSupernet());
    const auto original = m.variantPath(0);
    const auto light = m.variantPath(1);
    EXPECT_EQ(original.size(), m.layers.size());
    ASSERT_GE(light.size(), m.supernetSwitchPoint);
    for (size_t i = 0; i < m.supernetSwitchPoint; ++i)
        EXPECT_EQ(light[i].name, m.layers[i].name);
    EXPECT_LT(totalMacs(light), totalMacs(original));
}

// ---------------------------------------------------------------------
// Zoo-wide properties (every network of Table 3).

struct ZooCase {
    const char* name;
    Model (*build)();
    uint64_t minMacs;   ///< sanity floor (MMACs)
    uint64_t maxMacs;   ///< sanity ceiling (MMACs)
};

/// Print only the model name. The default byte dump holds the string
/// and function pointers, which ASLR moves on every run, and CTest
/// records that dump in the test names at build time.
void PrintTo(const ZooCase& zc, std::ostream* os)
{
    *os << zc.name;
}

class ZooTest : public ::testing::TestWithParam<ZooCase> {};

TEST_P(ZooTest, WellFormed)
{
    const auto& zc = GetParam();
    const Model m = zc.build();
    EXPECT_EQ(m.name, zc.name);
    ASSERT_FALSE(m.layers.empty());
    for (const auto& l : m.layers) {
        EXPECT_GT(l.macs(), 0ull) << l.name;
        EXPECT_GT(l.inC, 0u) << l.name;
        EXPECT_GT(l.outC, 0u) << l.name;
    }
    const uint64_t mmacs = m.totalMacs() / 1000000ull;
    EXPECT_GE(mmacs, zc.minMacs) << "model unrealistically small";
    EXPECT_LE(mmacs, zc.maxMacs) << "model unrealistically large";

    // Dynamic-control structures index real layers.
    for (const auto& blk : m.skipBlocks) {
        EXPECT_LT(blk.begin, blk.end);
        EXPECT_LE(blk.end, m.layers.size());
        EXPECT_GT(blk.skipProb, 0.0);
        EXPECT_LE(blk.skipProb, 1.0);
    }
    for (const auto& exit : m.earlyExits) {
        EXPECT_LT(exit.afterLayer, m.layers.size());
        EXPECT_GT(exit.exitProb, 0.0);
        EXPECT_LE(exit.exitProb, 1.0);
    }
    if (m.isSupernet()) {
        EXPECT_GT(m.supernetSwitchPoint, 0u);
        EXPECT_LT(m.supernetSwitchPoint, m.layers.size());
        // Variants are ordered heaviest to lightest.
        uint64_t prev = m.totalMacs();
        for (size_t v = 1; v <= m.variants.size(); ++v) {
            const uint64_t macs = totalMacs(m.variantPath(v));
            EXPECT_LT(macs, prev)
                << "variant " << v << " not lighter than " << v - 1;
            prev = macs;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table3, ZooTest,
    ::testing::Values(
        ZooCase{"FBNet-C", models::zoo::fbnetC, 100, 2000},
        ZooCase{"SSD_MobileNetV2", models::zoo::ssdMobileNetV2, 200,
                3000},
        ZooCase{"HandPoseNet", models::zoo::handPoseNet, 50, 1500},
        ZooCase{"OFA_Supernet", models::zoo::ofaSupernet, 100, 2000},
        ZooCase{"KWS_res8", models::zoo::kwsRes8, 5, 200},
        ZooCase{"GNMT", models::zoo::gnmt, 500, 5000},
        ZooCase{"SkipNet", models::zoo::skipNet, 1000, 8000},
        ZooCase{"TrailNet", models::zoo::trailNet, 100, 2000},
        ZooCase{"SOSNet", models::zoo::sosNet, 100, 2000},
        ZooCase{"RAPID_RL", models::zoo::rapidRl, 20, 1000},
        ZooCase{"GoogLeNet-car", models::zoo::googLeNetCar, 500, 4000},
        ZooCase{"FocalLengthDepth", models::zoo::focalLengthDepth, 100,
                2000},
        ZooCase{"ED-TCN", models::zoo::edTcn, 10, 500},
        ZooCase{"VGG_VoxCeleb", models::zoo::vggVoxCeleb, 1000,
                10000}),
    [](const auto& info) { return test::paramName(info.param.name); });

TEST(Zoo, SkipNetHasGatedBlocks)
{
    const Model m = models::zoo::skipNet();
    EXPECT_GE(m.skipBlocks.size(), 8u);
    for (const auto& blk : m.skipBlocks)
        EXPECT_DOUBLE_EQ(blk.skipProb, 0.5);
}

TEST(Zoo, RapidRlHasTwoEarlyExits)
{
    const Model m = models::zoo::rapidRl();
    ASSERT_EQ(m.earlyExits.size(), 2u);
    EXPECT_LT(m.earlyExits[0].afterLayer, m.earlyExits[1].afterLayer);
}

TEST(Zoo, OfaHasFourSubnets)
{
    const Model m = models::zoo::ofaSupernet();
    // Original + three lighter variants, as used in the evaluation.
    EXPECT_EQ(m.variants.size(), 3u);
}

} // namespace
} // namespace dream
