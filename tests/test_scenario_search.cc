/**
 * @file
 * ScenarioSearch tests: the transposition-table guarantee (a
 * (spec, genSeed) identity is never evaluated twice — mirroring
 * test_param_search.cc's simulations() == tableSize() invariant),
 * budget enforcement, trajectory determinism, and an engine-backed
 * smoke hunt whose frontier is byte-identical for any --jobs value.
 */

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/scenario_search.h"
#include "workload/rng.h"
#include "workload/scenario_suite.h"

namespace dream {
namespace {

/** Deterministic synthetic evaluator counting every evaluation per
 *  candidate identity (the CountingBowl of the scenario hunt). */
struct CountingOracle {
    std::map<std::string, int> evals;
    int calls = 0;

    engine::ScenarioSearch::BatchEvalFn fn()
    {
        return [this](
                   const std::vector<std::pair<
                       workload::ScenarioGenSpec, uint64_t>>& pts) {
            std::vector<std::pair<double, double>> out;
            out.reserve(pts.size());
            for (const auto& [spec, seed] : pts) {
                ++calls;
                ++evals[workload::serializeGenSpec(spec) + "#" +
                        std::to_string(seed)];
                // A rugged but deterministic objective surface: the
                // hash gives variation across seeds, the knobs give
                // the climb a direction.
                const double rough =
                    double(workload::rng::splitmix64(seed) % 997) /
                    199.0;
                const double target = rough + spec.targetLoad +
                                      2.0 * spec.chainProb;
                out.emplace_back(target, 0.5 * target);
            }
            return out;
        };
    }
};

engine::ScenarioSearch::Options
testOptions()
{
    engine::ScenarioSearch::Options opts;
    opts.budget = 60;
    opts.starts = 4;
    opts.searchSeed = 7;
    return opts;
}

TEST(ScenarioSearch, NeverReevaluatesACandidate)
{
    CountingOracle oracle;
    engine::ScenarioSearch search(oracle.fn(), testOptions());
    const auto result = search.run();
    ASSERT_FALSE(result.frontier.empty());

    // THE transposition guarantee: every identity at most once, and
    // every simulation landed in the table.
    for (const auto& [key, count] : oracle.evals)
        EXPECT_EQ(count, 1) << key;
    EXPECT_EQ(search.simulations(), search.tableSize());
    EXPECT_EQ(uint64_t(oracle.calls), search.simulations());
    // The frontier lists each evaluated candidate exactly once.
    EXPECT_EQ(result.frontier.size(), search.tableSize());
}

TEST(ScenarioSearch, RespectsTheSimulationBudget)
{
    auto opts = testOptions();
    opts.budget = 10;
    CountingOracle oracle;
    engine::ScenarioSearch search(oracle.fn(), opts);
    search.run();
    EXPECT_LE(search.simulations(), 10u);
    EXPECT_GT(search.simulations(), 0u);
}

TEST(ScenarioSearch, TrajectoryIsDeterministic)
{
    const auto run_once = []() {
        CountingOracle oracle;
        engine::ScenarioSearch search(oracle.fn(), testOptions());
        const auto result = search.run();
        std::string out;
        for (const auto& c : result.frontier) {
            out += workload::serializeGenSpec(c.spec) + "#" +
                   std::to_string(c.genSeed) + "=" +
                   std::to_string(c.value) + "\n";
        }
        return out;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(ScenarioSearch, ClimbsTheObjective)
{
    CountingOracle oracle;
    engine::ScenarioSearch search(oracle.fn(), testOptions());
    const auto result = search.run();
    ASSERT_FALSE(result.frontier.empty());
    // The frontier is sorted hardest-first and the best candidate
    // beats the base spec's own score structure (targetLoad and
    // chainProb both start far from their maxima).
    EXPECT_EQ(result.best.value, result.frontier.front().value);
    for (size_t i = 1; i < result.frontier.size(); ++i)
        EXPECT_GE(result.frontier[i - 1].value,
                  result.frontier[i].value);
    EXPECT_GT(result.best.value, 2.0);
}

TEST(ScenarioSearch, GapGoalUsesTheBaselineDifference)
{
    auto opts = testOptions();
    opts.goal = engine::ScenarioSearch::Goal::MaxGap;
    opts.budget = 20;
    CountingOracle oracle;
    engine::ScenarioSearch search(oracle.fn(), opts);
    const auto result = search.run();
    ASSERT_FALSE(result.frontier.empty());
    for (const auto& c : result.frontier)
        EXPECT_DOUBLE_EQ(c.value, c.uxTarget - c.uxBaseline);
}

TEST(ScenarioSearch, EngineBackedHuntIsJobsInvariant)
{
    // A real (tiny) hunt through engine::Engine: the frontier must
    // be identical for any worker count, like every engine output.
    const auto hunt = [](int jobs) {
        engine::ScenarioSearch::Options opts;
        opts.budget = 8;
        opts.starts = 2;
        opts.searchSeed = 3;
        opts.windowUs = 2e5;
        opts.jobs = jobs;
        engine::ScenarioSearch search(opts);
        const auto result = search.run();
        std::ostringstream out;
        for (const auto& c : result.frontier) {
            out << workload::serializeGenSpec(c.spec) << "#"
                << c.genSeed << "=" << c.value << "/" << c.uxTarget
                << "/" << c.uxBaseline << "\n";
        }
        return out.str();
    };
    const std::string serial = hunt(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, hunt(4));
}

} // namespace
} // namespace dream
