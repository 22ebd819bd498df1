/** @file Unit tests for path resolutions (sim/cost_cache.h). */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/dream_scheduler.h"
#include "costmodel/cost_table_cache.h"
#include "sim/cost_cache.h"
#include "test_util.h"

namespace dream {
namespace {

/** Suffix sums of @p req's path from one table lookup per read,
 *  accumulated in the cache's order, and the worst-case energy
 *  summed front to back as admission always has. */
struct HashedSums {
    std::vector<double> avg, min;
    std::vector<std::vector<double>> byAcc;
    double worstEnergyMj = 0.0;
};

HashedSums
hashedSums(const sim::Request& req, const cost::CostTable& costs)
{
    const size_t n = req.path.size();
    const size_t num_accs = costs.numAccelerators();
    HashedSums h;
    h.avg.assign(n + 1, 0.0);
    h.min.assign(n + 1, 0.0);
    h.byAcc.assign(num_accs, std::vector<double>(n + 1, 0.0));
    for (size_t i = n; i-- > 0;) {
        double sum = 0.0;
        double best = 0.0;
        for (size_t a = 0; a < num_accs; ++a) {
            const double lat = costs.cost(req.path[i], a).latencyUs;
            sum += lat;
            best = (a == 0) ? lat : std::min(best, lat);
            h.byAcc[a][i] = h.byAcc[a][i + 1] + lat;
        }
        h.avg[i] = h.avg[i + 1] + sum / double(num_accs);
        h.min[i] = h.min[i + 1] + best;
    }
    for (const auto& layer : req.path)
        h.worstEnergyMj += costs.view(layer).agg().maxEnergyMj;
    return h;
}

/** Every row of @p cache is @p costs' own entry for its layer. */
void
expectRowsAddress(const sim::Request& req, const sim::Resolution& cache,
                  const cost::CostTable& costs)
{
    EXPECT_EQ(cache.table, &costs);
    EXPECT_EQ(cache.path.id(), req.path.id());
    ASSERT_EQ(cache.rows.size(), req.path.size());
    for (size_t i = 0; i < req.path.size(); ++i) {
        for (size_t a = 0; a < costs.numAccelerators(); ++a) {
            const uint32_t slices =
                costs.system().accelerators[a].numSlices;
            for (uint32_t s = 1; s <= slices; ++s) {
                EXPECT_EQ(&cache.rows[i].cost(a, s),
                          &costs.view(req.path[i]).cost(a, s))
                    << "layer " << i << " accel " << a << " slices " << s;
            }
            EXPECT_EQ(&cache.rows[i].cost(a), &costs.cost(req.path[i], a));
        }
    }
}

/** The cache's suffix sums equal @p costs' hashed sums bit for bit. */
void
expectHashedSums(const sim::Request& req, const sim::Resolution& cache,
                 const cost::CostTable& costs)
{
    const HashedSums h = hashedSums(req, costs);
    EXPECT_EQ(cache.suffixAvg, h.avg);
    EXPECT_EQ(cache.suffixMin, h.min);
    EXPECT_EQ(cache.suffixByAcc, h.byAcc);
    EXPECT_EQ(cache.worstCaseEnergyMj, h.worstEnergyMj);
}

TEST(CostCache, RowsAddressTheTablesOwnEntries)
{
    test::ContextBuilder b;
    const auto task = b.addTask(test::toyModel());
    const sim::Request* req = b.addRequest(task, 0.0, 1e5);
    expectRowsAddress(*req, sim::ensureCostCache(*req, b.costs()),
                      b.costs());
}

TEST(CostCache, SuffixSumsEqualTheHashedSums)
{
    test::ContextBuilder b;
    const auto task = b.addTask(test::toyModel("big", 3));
    const sim::Request* req = b.addRequest(task, 0.0, 1e5);
    expectHashedSums(*req, sim::ensureCostCache(*req, b.costs()),
                     b.costs());
}

TEST(CostCache, RePointingThePathReResolvesTheRows)
{
    test::ContextBuilder b;
    const auto task = b.addTask(test::toySupernet());
    sim::Request* req = b.addRequest(task, 0.0, 1e5);
    // Layer 1 is the first body layer: the variants differ there.
    const cost::LayerCost* original_body =
        &sim::ensureCostCache(*req, b.costs()).rows[1].cost(0);

    // A variant switch re-points the path; nothing else is bumped.
    req->path = b.scenario().tasks[task].model.variantPath(1);
    const auto& cache = sim::ensureCostCache(*req, b.costs());
    EXPECT_NE(&cache.rows[1].cost(0), original_body);
    expectRowsAddress(*req, cache, b.costs());
    expectHashedSums(*req, cache, b.costs());
}

TEST(CostCache, AnotherSystemsTableRebuildsTheCache)
{
    test::ContextBuilder b;
    const auto task = b.addTask(test::toyModel());
    const sim::Request* req = b.addRequest(task, 0.0, 1e5);
    const double own_avg =
        sim::ensureCostCache(*req, b.costs()).suffixAvg[0];
    const sim::Resolution* own = req->resolution.get();

    // A copied request read under another system's table, as a
    // context snapshot that re-acquires its table does.
    const hw::SystemConfig other =
        hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    cost::CostTable other_costs(other);
    other_costs.addModel(b.scenario().tasks[task].model);
    ASSERT_NE(other_costs.numAccelerators(), b.costs().numAccelerators());
    const sim::Request copy = *req;
    EXPECT_EQ(copy.resolution.get(), own);
    const auto& cache = sim::ensureCostCache(copy, other_costs);
    EXPECT_NE(&cache, own);
    expectRowsAddress(copy, cache, other_costs);
    expectHashedSums(copy, cache, other_costs);
    EXPECT_NE(cache.suffixAvg[0], own_avg);

    // The original request still holds its own resolution, which
    // still reads its own table.
    EXPECT_EQ(req->resolution.get(), own);
    EXPECT_EQ(own->table, &b.costs());
    EXPECT_EQ(own->suffixAvg[0], own_avg);
    expectRowsAddress(*req, sim::ensureCostCache(*req, b.costs()),
                      b.costs());
    EXPECT_EQ(req->resolution.get(), own);
}

/** Forwards to DREAM-Full and, once the live set is deep, copies
 *  every live request out of the context, as a context snapshot
 *  does. */
class LiveCopier : public sim::Scheduler {
public:
    std::string name() const override { return inner_.name(); }
    void reset(const sim::SchedulerContext& ctx) override
    {
        inner_.reset(ctx);
    }
    sim::Plan plan(const sim::SchedulerContext& ctx) override
    {
        if (copies.empty() && ctx.live.size() >= 8) {
            for (const sim::Request* r : ctx.live)
                copies.push_back(*r);
        }
        return inner_.plan(ctx);
    }

    std::vector<sim::Request> copies;

private:
    core::DreamScheduler inner_{core::DreamConfig::full()};
};

TEST(CostCache, CopiedRequestsOutliveTheirRun)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    auto scenario = std::make_unique<workload::Scenario>(
        workload::makeScenario(workload::ScenarioPreset::ArSocial));
    for (auto& task : scenario->tasks)
        task.fps *= 3.0;
    const workload::Scenario scenario_copy = *scenario;

    // Copy requests mid-run, then destroy the simulator (and the
    // FrameSource it owns), the scenario and the run's table handle.
    LiveCopier copier;
    {
        const auto costs = cost::acquireCostTable(system, *scenario);
        sim::SimConfig cfg;
        cfg.windowUs = 3e5;
        cfg.seed = 3;
        auto simulator = std::make_unique<sim::Simulator>(
            system, *scenario, *costs, cfg);
        simulator->run(copier);
        simulator.reset();
        scenario.reset();
    }
    ASSERT_FALSE(copier.copies.empty());

    // Every copy still reads its path, and resolves under a table
    // acquired for the scenario's copy and under a private one.
    const auto acquired = cost::acquireCostTable(system, scenario_copy);
    cost::CostTable own(system);
    for (const auto& task : scenario_copy.tasks)
        own.addModel(task.model);
    const std::vector<const cost::CostTable*> tables = {acquired.get(),
                                                        &own};
    for (const sim::Request& copy : copier.copies) {
        SCOPED_TRACE("request " + std::to_string(copy.id));
        ASSERT_FALSE(copy.path.empty());
        for (const cost::CostTable* costs : tables) {
            const auto& cache = sim::ensureCostCache(copy, *costs);
            expectRowsAddress(copy, cache, *costs);
            expectHashedSums(copy, cache, *costs);
        }
    }
}

} // namespace
} // namespace dream
