/** @file Tests for the memoized engine::ParamSearch: bit-identity
 *  with the core shrinking-radius search and the no-duplicate-
 *  simulation guarantee of the transposition table. */

#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptivity.h"
#include "engine/param_eval.h"
#include "engine/param_search.h"
#include "engine/worker_pool.h"
#include "hw/system.h"
#include "workload/scenario.h"

namespace dream {
namespace {

/** Deterministic synthetic objective: a bowl with its minimum inside
 *  the search box, counting every point it actually evaluates. */
struct CountingBowl {
    std::map<std::pair<double, double>, int> evals;
    int points = 0;

    core::BatchCostFn fn()
    {
        return [this](
                   const std::vector<std::pair<double, double>>& pts) {
            std::vector<double> out;
            out.reserve(pts.size());
            for (const auto& p : pts) {
                ++points;
                ++evals[p];
                const double da = p.first - 0.7;
                const double db = p.second - 1.3;
                out.push_back(da * da + db * db);
            }
            return out;
        };
    }
};

void
expectResultsBitIdentical(const core::SearchResult& a,
                          const core::SearchResult& b)
{
    EXPECT_EQ(a.alpha, b.alpha);
    EXPECT_EQ(a.beta, b.beta);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.evaluations, b.evaluations);
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    for (size_t i = 0; i < a.trajectory.size(); ++i) {
        EXPECT_EQ(a.trajectory[i].alpha, b.trajectory[i].alpha);
        EXPECT_EQ(a.trajectory[i].beta, b.trajectory[i].beta);
        EXPECT_EQ(a.trajectory[i].cost, b.trajectory[i].cost);
        EXPECT_EQ(a.trajectory[i].radius, b.trajectory[i].radius);
        EXPECT_EQ(a.trajectory[i].step, b.trajectory[i].step);
    }
}

TEST(ParamSearch, MemoizedResultIsBitIdenticalToCoreSearch)
{
    CountingBowl plain_cost, memo_cost;
    const core::ParamSearch plain{};
    const auto expected = plain.optimize(plain_cost.fn(), 0.2, 1.8);

    engine::ParamSearch memo(memo_cost.fn());
    const auto got = memo.optimize(0.2, 1.8);

    expectResultsBitIdentical(expected, got);
    // The plain search executes every evaluation; the memo must
    // reach the same answer with strictly fewer executions (the
    // shrinking-radius walk revisits clamped/interpolated points).
    EXPECT_EQ(expected.simulated, expected.evaluations);
    EXPECT_LT(got.simulated, got.evaluations);
    EXPECT_EQ(got.simulated + got.memoHits, got.evaluations);
    EXPECT_GT(got.memoHits, 0);
}

TEST(ParamSearch, NoPointIsEverSimulatedTwice)
{
    CountingBowl cost;
    engine::ParamSearch memo(cost.fn());
    memo.optimize(0.2, 1.8);
    memo.optimize(1.9, 0.1);
    memo.optimize(0.2, 1.8);
    memo.optimize(1.0, 1.0);
    memo.optimize(0.0, 0.0);

    for (const auto& [point, count] : cost.evals)
        EXPECT_EQ(count, 1) << "point (" << point.first << ", "
                            << point.second << ") re-simulated";
    // Executions == distinct points held: the table IS the record of
    // what was simulated.
    EXPECT_EQ(memo.simulations(), uint64_t(cost.points));
    EXPECT_EQ(memo.simulations(), uint64_t(memo.tableSize()));
}

TEST(ParamSearch, RepeatSearchIsServedEntirelyFromTheTable)
{
    CountingBowl cost;
    engine::ParamSearch memo(cost.fn());
    const auto first = memo.optimize(0.2, 1.8);
    const int executed = cost.points;
    const size_t held = memo.tableSize();

    const auto second = memo.optimize(0.2, 1.8);
    expectResultsBitIdentical(first, second);
    EXPECT_EQ(second.simulated, 0);
    EXPECT_EQ(second.memoHits, second.evaluations);
    EXPECT_EQ(cost.points, executed);
    EXPECT_EQ(memo.tableSize(), held);
}

TEST(ParamSearch, SimulationBackedSearchMatchesBatchedCoreSearch)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Os2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    engine::WorkerPool pool(2);

    const auto batch =
        engine::makeBatchEvaluator(system, scenario, pool);
    const core::ParamSearch plain{};
    const auto expected = plain.optimize(batch, 0.2, 1.8);

    engine::ParamSearch memo(batch);
    const auto got = memo.optimize(0.2, 1.8);

    expectResultsBitIdentical(expected, got);
    EXPECT_EQ(memo.simulations() + memo.transpositionHits(),
              uint64_t(got.evaluations));
    EXPECT_EQ(memo.simulations(), uint64_t(memo.tableSize()));
}

} // anonymous namespace
} // namespace dream
