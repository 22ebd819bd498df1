/** @file Unit tests for the per-request cost cache (sim/cost_cache.h). */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/cost_cache.h"
#include "test_util.h"

namespace dream {
namespace {

/** Suffix sums of @p req's path from one table lookup per read,
 *  accumulated in the cache's order. */
struct HashedSums {
    std::vector<double> avg, min;
    std::vector<std::vector<double>> byAcc;
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
    return h;
}

/** Every row of @p cache is @p costs' own entry for its layer. */
void
expectRowsAddress(const sim::Request& req,
                  const sim::Request::CostCache& cache,
                  const cost::CostTable& costs)
{
    EXPECT_EQ(cache.table, &costs);
    EXPECT_EQ(cache.version, req.pathVersion);
    ASSERT_EQ(cache.rows.size(), req.path.size());
    for (size_t i = 0; i < req.path.size(); ++i) {
        for (size_t a = 0; a < costs.numAccelerators(); ++a) {
            const uint32_t slices =
                costs.system().accelerators[a].numSlices;
            for (uint32_t s = 1; s <= slices; ++s) {
                EXPECT_EQ(&cache.rows[i].cost(a, s),
                          &costs.cost(req.path[i], a, s))
                    << "layer " << i << " accel " << a << " slices " << s;
            }
            EXPECT_EQ(&cache.rows[i].cost(a), &costs.cost(req.path[i], a));
        }
    }
}

/** The cache's suffix sums equal @p costs' hashed sums bit for bit. */
void
expectHashedSums(const sim::Request& req,
                 const sim::Request::CostCache& cache,
                 const cost::CostTable& costs)
{
    const HashedSums h = hashedSums(req, costs);
    EXPECT_EQ(cache.suffixAvg, h.avg);
    EXPECT_EQ(cache.suffixMin, h.min);
    EXPECT_EQ(cache.suffixByAcc, h.byAcc);
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

TEST(CostCache, PathVersionBumpReResolvesTheRows)
{
    test::ContextBuilder b;
    const auto task = b.addTask(test::toySupernet());
    sim::Request* req = b.addRequest(task, 0.0, 1e5);
    // Layer 1 is the first body layer: the variants differ there.
    const cost::LayerCost* original_body =
        &sim::ensureCostCache(*req, b.costs()).rows[1].cost(0);

    // A variant switch as the simulator applies it.
    req->path = b.scenario().tasks[task].model.variantPath(1);
    req->pathVersion += 1;
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

    // A copied request read under another system's table, as a
    // context snapshot that re-acquires its table does.
    const hw::SystemConfig other =
        hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    cost::CostTable other_costs(other);
    other_costs.addModel(b.scenario().tasks[task].model);
    ASSERT_NE(other_costs.numAccelerators(), b.costs().numAccelerators());
    const sim::Request copy = *req;
    const auto& cache = sim::ensureCostCache(copy, other_costs);
    expectRowsAddress(copy, cache, other_costs);
    expectHashedSums(copy, cache, other_costs);
    EXPECT_NE(cache.suffixAvg[0], own_avg);

    // The original request still reads its own table.
    expectRowsAddress(*req, sim::ensureCostCache(*req, b.costs()),
                      b.costs());
}

} // namespace
} // namespace dream
