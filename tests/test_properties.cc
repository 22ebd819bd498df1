/**
 * @file
 * Property-based sweeps: invariants that must hold for every
 * (scheduler, system, scenario) combination, exercised with
 * parameterized gtest across the full evaluation matrix.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "metrics/uxcost.h"
#include "runner/experiment.h"
#include "test_util.h"

namespace dream {
namespace {

struct SweepCase {
    runner::SchedKind sched;
    hw::SystemPreset system;
    workload::ScenarioPreset scenario;
};

std::string
caseName(const ::testing::TestParamInfo<SweepCase>& info)
{
    return test::paramName(std::string(toString(info.param.sched)) +
                           "_" + hw::toString(info.param.system) + "_" +
                           workload::toString(info.param.scenario));
}

class SchedulerSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SchedulerSweep, RunInvariants)
{
    const auto& sc = GetParam();
    const auto system = hw::makeSystem(sc.system);
    const auto scenario = workload::makeScenario(sc.scenario);
    auto sched = runner::makeScheduler(sc.sched);
    const auto r = runner::runOnce(system, scenario, *sched, {1e6, 17});

    EXPECT_GT(r.totalFrames(), 0u);
    EXPECT_GE(metrics::uxCost(r), 0.0);
    EXPECT_TRUE(std::isfinite(metrics::uxCost(r)));
    EXPECT_GT(r.totalEnergyMj(), 0.0);
    for (const auto& ts : r.tasks) {
        EXPECT_LE(ts.droppedFrames, ts.violatedFrames);
        EXPECT_LE(ts.violatedFrames, ts.totalFrames);
        EXPECT_LE(ts.completedFrames, ts.totalFrames);
        EXPECT_GE(ts.completedFrames + ts.violatedFrames,
                  ts.totalFrames);
        // Actual energy cannot exceed the all-worst-case bound by
        // more than the context-switch overhead allows; sanity-check
        // with a generous factor.
        if (ts.worstCaseEnergyMj > 0.0) {
            EXPECT_LT(ts.normEnergy(), 4.0) << ts.model;
        }
        // Drop-rate bound: never above the 20% cap (plus one-frame
        // rounding) for DREAM configurations.
        if (sc.sched == runner::SchedKind::DreamSmartDrop ||
            sc.sched == runner::SchedKind::DreamFull) {
            const double frames = std::max<double>(
                10.0, double(ts.completedFrames + ts.droppedFrames));
            EXPECT_LE(double(ts.droppedFrames), 0.2 * frames + 1.0)
                << ts.model;
        }
    }
    // UXCost is never below the all-floors product.
    double floor_rate = 0.0;
    for (const auto& ts : r.tasks) {
        if (ts.totalFrames > 0)
            floor_rate += 1.0 / (2.0 * double(ts.totalFrames));
    }
    EXPECT_GE(r.overallDlvRate() + 1e-12, floor_rate);
}

std::vector<SweepCase>
sweepCases()
{
    std::vector<SweepCase> cases;
    const runner::SchedKind scheds[] = {
        runner::SchedKind::Fcfs, runner::SchedKind::Veltair,
        runner::SchedKind::Planaria, runner::SchedKind::DreamFull};
    const hw::SystemPreset systems[] = {
        hw::SystemPreset::Sys4k1Ws2Os, hw::SystemPreset::Sys4k2Os,
        hw::SystemPreset::Sys8k1Os2Ws};
    for (const auto s : scheds) {
        for (const auto sys : systems) {
            for (const auto sc : workload::allScenarioPresets())
                cases.push_back({s, sys, sc});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, SchedulerSweep,
                         ::testing::ValuesIn(sweepCases()), caseName);

// ---------------------------------------------------------------------

class CascadeSweep
    : public ::testing::TestWithParam<double> {};

TEST_P(CascadeSweep, HigherProbabilityMoreDependentFrames)
{
    const double prob = GetParam();
    const auto system = hw::makeSystem(hw::SystemPreset::Sys8k2Ws);
    const auto lo = workload::makeScenario(
        workload::ScenarioPreset::ArCall, prob);
    auto sched = runner::makeScheduler(runner::SchedKind::Fcfs);
    const auto r = runner::runOnce(system, lo, *sched, {2e6, 21});
    const double kws_done = double(r.tasks[0].completedFrames);
    const double gnmt = double(r.tasks[1].totalFrames);
    ASSERT_GT(kws_done, 0.0);
    // Dependent frame count tracks the trigger probability.
    EXPECT_NEAR(gnmt / kws_done, prob, 0.25);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, CascadeSweep,
                         ::testing::Values(0.3, 0.5, 0.9));

// ---------------------------------------------------------------------

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, DreamNeverWorseThanWorstBaselineByFar)
{
    // A coarse robustness property: on the constrained heterogeneous
    // system, DREAM-Full's UXCost stays below the worst baseline for
    // every seed (the paper's headline holds per-run, not just in
    // the mean).
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArSocial);
    auto dream = runner::makeScheduler(runner::SchedKind::DreamFull);
    auto fcfs = runner::makeScheduler(runner::SchedKind::Fcfs);
    const auto rd =
        runner::runOnce(system, scenario, *dream, {1e6, GetParam()});
    const auto rf =
        runner::runOnce(system, scenario, *fcfs, {1e6, GetParam()});
    EXPECT_LT(metrics::uxCost(rd), metrics::uxCost(rf) * 1.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 7, 13, 29, 57));

} // namespace
} // namespace dream
