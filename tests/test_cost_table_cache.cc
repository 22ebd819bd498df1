/** @file Tests for the shared cost-table cache: key canonicality,
 *  table sharing, LRU eviction and the read-only table contract. */

#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

#include "costmodel/cost_table_cache.h"
#include "hw/system.h"
#include "models/layer.h"
#include "workload/scenario.h"

namespace dream {
namespace {

TEST(CostTableCache, EqualPairsShareOneFrozenTable)
{
    cost::CostTableCache cache;
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Os2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);

    const auto r1 = cache.acquire(system, scenario);
    EXPECT_FALSE(r1.hit);
    ASSERT_NE(r1.table, nullptr);
    EXPECT_GT(r1.table->numLayers(), 0u);

    // A scenario built again from the same preset is a different
    // object with the same canonical identity: it must hit and get
    // the very same table object.
    const auto scenario2 =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const auto r2 = cache.acquire(system, scenario2);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r1.table.get(), r2.table.get());

    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(CostTableCache, DistinctSystemsBuildDistinctTables)
{
    cost::CostTableCache cache;
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const auto ra = cache.acquire(
        hw::makeSystem(hw::SystemPreset::Sys4k2Ws), scenario);
    const auto rb = cache.acquire(
        hw::makeSystem(hw::SystemPreset::Sys8k2Ws), scenario);
    EXPECT_FALSE(ra.hit);
    EXPECT_FALSE(rb.hit);
    EXPECT_NE(ra.table.get(), rb.table.get());
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(CostTableCache, KeyIsTheDeduplicatedModelSet)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Os2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);

    // Duplicating a task changes the scenario but not its model SET,
    // so the cache key — and therefore the table — is unchanged.
    auto doubled = scenario;
    doubled.tasks.push_back(scenario.tasks.front());
    EXPECT_EQ(cost::makeTableKey(system, scenario),
              cost::makeTableKey(system, doubled));

    cost::CostTableCache cache;
    cache.acquire(system, scenario);
    EXPECT_TRUE(cache.acquire(system, doubled).hit);
}

TEST(CostTableCache, SystemFingerprintSeparatesPresets)
{
    const auto a =
        cost::systemFingerprint(hw::makeSystem(hw::SystemPreset::Sys4k2Ws));
    const auto b =
        cost::systemFingerprint(hw::makeSystem(hw::SystemPreset::Sys4k2Os));
    EXPECT_NE(a, b);
    EXPECT_EQ(a, cost::systemFingerprint(
                     hw::makeSystem(hw::SystemPreset::Sys4k2Ws)));
}

TEST(CostTableCache, LeastRecentlyUsedEntryIsEvictedAtCapacity)
{
    cost::CostTableCache cache(2);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const auto sysA = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto sysB = hw::makeSystem(hw::SystemPreset::Sys4k2Os);
    const auto sysC = hw::makeSystem(hw::SystemPreset::Sys8k2Ws);

    cache.acquire(sysA, scenario);
    cache.acquire(sysB, scenario);
    // Touch A so B becomes least-recently-used.
    EXPECT_TRUE(cache.acquire(sysA, scenario).hit);

    const auto r3 = cache.acquire(sysC, scenario);
    EXPECT_FALSE(r3.hit);
    EXPECT_EQ(r3.evicted, 1u);

    // A survived the eviction, B did not.
    EXPECT_TRUE(cache.acquire(sysA, scenario).hit);
    EXPECT_FALSE(cache.acquire(sysB, scenario).hit);

    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_GE(stats.evictions, 2u);
}

TEST(CostTableCache, SharedTableIsFrozenAgainstUnknownLayers)
{
    cost::CostTableCache cache;
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Os2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const auto table = cache.acquire(system, scenario).table;

    // Every layer of the scenario's models is pre-warmed...
    for (const auto& task : scenario.tasks)
        for (const auto& layer : task.model.layers)
            EXPECT_GT(table->minLatencyUs(layer), 0.0);

    // ...and a shape outside the model set must throw rather than
    // lazily extend a table other threads may be reading.
    const auto foreign =
        models::conv("not-in-any-arcall-model", 13, 13, 7, 5, 3);
    EXPECT_THROW(table->minLatencyUs(foreign), std::logic_error);
}

TEST(CostTableCache, AcquireSharesThroughTheGlobalCache)
{
    cost::CostTableCache::global().clear();

    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Os2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const auto t1 = cost::acquireCostTable(system, scenario);
    const auto t2 = cost::acquireCostTable(system, scenario);
    ASSERT_NE(t1, nullptr);
    EXPECT_EQ(t1.get(), t2.get());

    const auto stats = cost::CostTableCache::global().stats();
    cost::CostTableCache::global().clear();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

} // anonymous namespace
} // namespace dream
