/** @file Tests for the memoised cost table. */

#include <stdexcept>

#include <gtest/gtest.h>

#include "costmodel/cost_table.h"
#include "costmodel/layer_cost.h"
#include "hw/system.h"
#include "models/zoo.h"

namespace dream {
namespace {

/** A one-layer model around @p layer. */
models::Model
oneLayerModel(const models::Layer& layer)
{
    models::Model m;
    m.name = layer.name;
    m.layers = {layer};
    return m;
}

TEST(CostTable, MatchesDirectEstimates)
{
    const auto sys = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    cost::CostTable table(sys);
    const auto l = models::conv("c", 56, 56, 64, 128, 3, 1);
    table.addModel(oneLayerModel(l));
    for (size_t a = 0; a < sys.size(); ++a) {
        for (uint32_t s = 1; s <= sys.accelerators[a].numSlices; ++s) {
            const auto direct =
                cost::estimateLayer(l, sys.accelerators[a], s);
            const auto& cached = table.view(l).cost(a, s);
            EXPECT_DOUBLE_EQ(cached.latencyUs, direct.latencyUs);
            EXPECT_DOUBLE_EQ(cached.energyMj, direct.energyMj);
        }
    }
}

TEST(CostTable, AggregatesAreConsistent)
{
    const auto sys = hw::makeSystem(hw::SystemPreset::Sys4k1Os2Ws);
    cost::CostTable table(sys);
    const auto l = models::fc("fc", 1024, 4096);
    table.addModel(oneLayerModel(l));
    double sum = 0.0, min_lat = 1e300, sum_e = 0.0, max_e = 0.0;
    for (size_t a = 0; a < sys.size(); ++a) {
        const auto& c = table.cost(l, a);
        sum += c.latencyUs;
        min_lat = std::min(min_lat, c.latencyUs);
        sum_e += c.energyMj;
        max_e = std::max(max_e, c.energyMj);
    }
    const cost::LayerAgg& agg = table.view(l).agg();
    EXPECT_DOUBLE_EQ(agg.sumLatencyUs, sum);
    EXPECT_DOUBLE_EQ(table.avgLatencyUs(l), sum / double(sys.size()));
    EXPECT_DOUBLE_EQ(table.minLatencyUs(l), min_lat);
    EXPECT_DOUBLE_EQ(agg.sumEnergyMj, sum_e);
    EXPECT_DOUBLE_EQ(agg.maxEnergyMj, max_e);
}

TEST(CostTable, KeyDistinguishesShapes)
{
    const auto a = models::conv("a", 56, 56, 64, 128, 3, 1);
    auto b = a;
    b.stride = 2;
    EXPECT_FALSE(cost::makeKey(a) == cost::makeKey(b));
    auto c = a;
    c.name = "renamed"; // name is not part of the key
    EXPECT_TRUE(cost::makeKey(a) == cost::makeKey(c));
}

TEST(CostTable, AddModelCoversVariants)
{
    const auto sys = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    cost::CostTable table(sys);
    const auto m = models::zoo::ofaSupernet();
    table.addModel(m);
    // Lookups for every variant path must be servable.
    for (size_t v = 0; v <= m.variants.size(); ++v) {
        for (const auto& l : m.variantPath(v)) {
            EXPECT_GT(table.cost(l, 0).latencyUs, 0.0);
        }
    }
}

TEST(CostTable, LookupsOfLayersNoAddedModelCoversThrow)
{
    // An unshared table has the shared table's one mode: addModel
    // computes entries, and a lookup of any other layer throws
    // rather than extending the table.
    const auto sys = hw::makeSystem(hw::SystemPreset::Sys4k1Os2Ws);
    cost::CostTable table(sys);
    const auto added = models::conv("added", 28, 28, 32, 64, 3, 1);
    const auto foreign = models::conv("foreign", 13, 13, 7, 5, 3, 1);
    EXPECT_THROW(table.view(added), std::logic_error);

    table.addModel(oneLayerModel(added));
    EXPECT_EQ(table.numLayers(), 1u);
    EXPECT_GT(table.minLatencyUs(added), 0.0);
    EXPECT_THROW(table.view(foreign), std::logic_error);
    EXPECT_THROW(table.cost(foreign, 0), std::logic_error);
    EXPECT_THROW(table.avgLatencyUs(foreign), std::logic_error);
    EXPECT_THROW(table.minLatencyUs(foreign), std::logic_error);
    EXPECT_EQ(table.numLayers(), 1u);
}

} // namespace
} // namespace dream
