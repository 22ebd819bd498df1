/** @file Tests for the cluster serving layer: Simulator streaming
 *  edge cases, Dispatcher policies, a single-device Cluster's
 *  bit-identity with the offline run, sessions staying on their
 *  device (generative and replay intakes), N-device replay
 *  determinism, and the device-namespaced metric schema. */

#include <cmath>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "costmodel/cost_table.h"
#include "runner/experiment.h"
#include "runner/trace.h"
#include "sched/fcfs.h"
#include "serve/cluster.h"
#include "serve/dispatcher.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "workload/frame_source.h"
#include "workload/replay_source.h"
#include "workload/stream_source.h"

#include "test_util.h"

namespace dream {
namespace {

cost::CostTable
buildCosts(const hw::SystemConfig& system,
           const workload::Scenario& scenario)
{
    cost::CostTable costs(system);
    for (const auto& t : scenario.tasks)
        costs.addModel(t.model);
    return costs;
}

/** Serve @p replay's frames, or a generative run of (@p scenario,
 *  @p seed) without one, on a cluster of FCFS devices. */
serve::ClusterResult
runCluster(const hw::SystemConfig& system,
           const workload::Scenario& scenario,
           const cost::CostTable& costs, serve::ClusterConfig config,
           double window_us, uint64_t seed,
           const workload::ArrivalSource* replay = nullptr)
{
    config.serve.windowUs = window_us;
    config.serve.seed = seed;
    const workload::FrameSource frames(scenario, seed);
    const workload::ArrivalSource& source = replay ? *replay : frames;
    workload::StreamSource intake(source);
    for (auto& frame : workload::rootFramesByArrival(source, window_us))
        intake.push(std::move(frame));
    intake.close();
    serve::Cluster cluster(system, scenario, costs, config);
    return cluster.run(
        [] { return runner::makeScheduler(runner::SchedKind::Fcfs); },
        intake);
}

// --------------------------------- Simulator streaming edge cases

TEST(ClusterSim, AdvanceToWithNoPendingArrivalsIsHarmless)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const auto costs = buildCosts(system, scenario);

    sim::SimConfig cfg;
    cfg.windowUs = 2e5;
    sim::Simulator sim(system, scenario, costs, cfg);
    sched::FcfsScheduler fcfs;
    sim.beginStream(fcfs);

    // Advancing an idle simulator (nothing offered yet) is a no-op:
    // the clock is event-driven, so with no pending arrivals,
    // completions or wakeups it stays put — in any number of steps.
    sim.advanceTo(1e4);
    sim.advanceTo(5e4);
    EXPECT_EQ(sim.nowUs(), 0.0);
    EXPECT_EQ(sim.liveFrames(), 0u);

    // A frame offered after the silent advance still executes.
    workload::FrameSpec f;
    f.arrivalUs = 6e4;
    f.deadlineUs = 1e5;
    f.path = scenario.tasks[0].model.layers;
    sim.offerArrival(f);
    const auto stats = sim.finishStream();
    EXPECT_EQ(stats.frames.size(), 1u);
    EXPECT_TRUE(stats.frames[0].isCompleted());
}

TEST(ClusterSim, OfferArrivalExactlyAtNowIsAccepted)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const auto costs = buildCosts(system, scenario);

    sim::Simulator sim(system, scenario, costs, {});
    sched::FcfsScheduler fcfs;
    sim.beginStream(fcfs);

    // Process a first frame so the event loop moves the clock off
    // zero, then offer a second arrival at exactly nowUs(). That is
    // legal — the serve loop advances to arrival - 1e-9 before
    // offering, so "exactly now" is the common case, not the
    // violation (only arrivals strictly behind the clock throw).
    workload::FrameSpec f;
    f.arrivalUs = 0.0;
    f.deadlineUs = 1e5;
    f.path = scenario.tasks[0].model.layers;
    sim.offerArrival(f);
    sim.advanceTo(1e5);
    ASSERT_GT(sim.nowUs(), 0.0);
    workload::FrameSpec g = f;
    g.arrivalUs = sim.nowUs();
    g.deadlineUs = g.arrivalUs + 1e5;
    EXPECT_NO_THROW(sim.offerArrival(g));
    const auto stats = sim.finishStream();
    EXPECT_EQ(stats.frames.size(), 2u);
}

TEST(ClusterSim, FinishStreamIsIdempotent)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const auto costs = buildCosts(system, scenario);

    sim::SimConfig cfg;
    cfg.windowUs = 2e5;
    sim::Simulator sim(system, scenario, costs, cfg);
    sched::FcfsScheduler fcfs;
    sim.beginStream(fcfs);
    workload::FrameSpec f;
    f.arrivalUs = 0.0;
    f.deadlineUs = 1e5;
    f.path = scenario.tasks[0].model.layers;
    sim.offerArrival(f);

    const auto first = sim.finishStream();
    const auto second = sim.finishStream();
    EXPECT_EQ(runner::frameTraceCsv(first, scenario),
              runner::frameTraceCsv(second, scenario));
    EXPECT_EQ(first.schedulerInvocations,
              second.schedulerInvocations);
    EXPECT_EQ(first.accelBusyUs, second.accelBusyUs);
}

// ------------------------------------------- FrameSource::rootFrame

TEST(ClusterIngest, RootFrameValidatesItsInputs)
{
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall, 1.0);
    const workload::FrameSource source(scenario, 7);

    const auto frame = source.rootFrame(0, 3, 1234.5);
    EXPECT_EQ(frame.task, 0);
    EXPECT_EQ(frame.frameIdx, 3);
    EXPECT_EQ(frame.arrivalUs, 1234.5);
    EXPECT_GT(frame.deadlineUs, frame.arrivalUs);

    // Out-of-range task, dependent (non-root) task, and non-finite
    // or negative arrivals are contract violations.
    EXPECT_THROW(source.rootFrame(workload::TaskId(99), 0, 0.0),
                 std::invalid_argument);
    workload::TaskId dependent = workload::kNoParent;
    for (size_t t = 0; t < scenario.tasks.size(); ++t) {
        if (scenario.tasks[t].dependsOn != workload::kNoParent)
            dependent = workload::TaskId(t);
    }
    ASSERT_NE(dependent, workload::kNoParent);
    EXPECT_THROW(source.rootFrame(dependent, 0, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(source.rootFrame(0, 0, -1.0),
                 std::invalid_argument);
    EXPECT_THROW(source.rootFrame(0, 0, std::nan("")),
                 std::invalid_argument);
}

// --------------------------------------------------- Dispatcher

TEST(ClusterDispatcher, PolicyNamesRoundTrip)
{
    // The three --router names, parsed back through the choice table
    // dream_serve builds from allRouterPolicies().
    const std::vector<std::string> names = {
        "round_robin", "least_loaded", "finish_time_fairness"};
    const auto policies = serve::allRouterPolicies();
    ASSERT_EQ(policies.size(), names.size());
    serve::RouterPolicy parsed = serve::RouterPolicy::RoundRobin;
    flags::Table table;
    table.add({"--router", "", "POLICY", "",
               flags::choice(&parsed,
                             flags::namesOf(policies,
                                            [](serve::RouterPolicy p) {
                                                return serve::toString(p);
                                            }))});
    for (size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(serve::toString(policies[i]), names[i]);
        ASSERT_TRUE(table.parse({"--router", names[i]}));
        EXPECT_EQ(parsed, policies[i]);
    }
    EXPECT_THROW(table.parse({"--router", "fastest_first"}),
                 flags::Error);
}

TEST(ClusterDispatcher, RoundRobinCyclesAndValidatesSessions)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const auto costs = buildCosts(system, scenario);
    serve::Dispatcher dispatcher(serve::RouterPolicy::RoundRobin, 3,
                                 scenario, costs, 1e6);

    const std::vector<serve::DeviceGauges> gauges(3);
    EXPECT_EQ(dispatcher.route(0, 0.0, gauges), 0u);
    EXPECT_EQ(dispatcher.route(1, 1.0, gauges), 1u);
    EXPECT_EQ(dispatcher.route(0, 2.0, gauges), 2u);
    EXPECT_EQ(dispatcher.route(1, 3.0, gauges), 0u);
    EXPECT_THROW(dispatcher.route(workload::TaskId(99), 0.0, gauges),
                 std::invalid_argument);
}

TEST(ClusterDispatcher, LeastLoadedAvoidsTheBackloggedDevice)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const auto costs = buildCosts(system, scenario);
    serve::Dispatcher dispatcher(serve::RouterPolicy::LeastLoaded, 2,
                                 scenario, costs, 1e6);

    // Equal gauges tie toward the lower index; a backlogged device 0
    // pushes the next session to device 1.
    std::vector<serve::DeviceGauges> gauges(2);
    EXPECT_EQ(dispatcher.route(0, 0.0, gauges), 0u);
    gauges[0].backlogUs = 1e9;
    EXPECT_EQ(dispatcher.route(1, 0.0, gauges), 1u);
}

TEST(ClusterDispatcher, RejectsAGaugeListOfTheWrongSize)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const auto costs = buildCosts(system, scenario);
    for (const auto policy : serve::allRouterPolicies()) {
        for (const size_t devices : {size_t(1), size_t(3)}) {
            serve::Dispatcher dispatcher(policy, devices, scenario, costs,
                                         1e6);
            for (const size_t size : {devices - 1, devices + 1})
                EXPECT_THROW(dispatcher.route(
                                 0, 0.0,
                                 std::vector<serve::DeviceGauges>(size)),
                             std::invalid_argument)
                    << serve::toString(policy) << " " << size;
            // A rejected list routes nothing: the first session with
            // the right list still goes where a fresh router puts it.
            EXPECT_EQ(dispatcher.route(
                          0, 0.0,
                          std::vector<serve::DeviceGauges>(devices)),
                      0u);
        }
    }
}

// ----------------------------------------------------- Cluster

TEST(Cluster, SingleDeviceIsBitIdenticalToOfflineRun)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall, 0.7);
    const auto costs = buildCosts(system, scenario);
    const double window_us = 1e6;
    const uint64_t seed = 11;

    sim::SimConfig cfg;
    cfg.windowUs = window_us;
    cfg.seed = seed;
    sim::Simulator simulator(system, scenario, costs, cfg);
    sched::FcfsScheduler fcfs;
    const auto offline = simulator.run(fcfs);

    // The router has one device to pick, whatever its policy, and
    // the merge of one device's stats is that device's stats.
    for (const auto router : serve::allRouterPolicies()) {
        SCOPED_TRACE(serve::toString(router));
        serve::ClusterConfig config;
        config.devices = 1;
        config.router = router;
        const auto clustered = runCluster(
            system, scenario, costs, config, window_us, seed);
        test::expectStatsBitIdentical(scenario, offline,
                                      clustered.stats);
        test::expectStatsBitIdentical(scenario, offline,
                                      clustered.devices.front().stats);
        EXPECT_EQ(offline.windowUs, clustered.stats.windowUs);
    }
}

/**
 * Every frame device k ran, cascade children included, must belong
 * to a session the session table pins to device k; and some of them
 * must be children, or the check shows nothing.
 */
void
expectSessionsOnTheirDevice(const workload::Scenario& scenario,
                            const serve::ClusterResult& result)
{
    size_t misplaced = 0;
    size_t children = 0;
    for (size_t k = 0; k < result.devices.size(); ++k) {
        const auto& frames = result.devices[k].stats.frames;
        EXPECT_FALSE(frames.empty()) << "device " << k;
        for (const auto& f : frames) {
            const workload::TaskId root = scenario.rootOf(f.task);
            children += root != f.task;
            misplaced += result.assignment[size_t(root)] != int(k);
        }
    }
    EXPECT_EQ(misplaced, 0u);
    EXPECT_GT(children, 0u);
}

TEST(Cluster, SessionsStayOnTheirDevice)
{
    // VR_Gaming has six root tasks and three cascade children, so on
    // three devices every device serves sessions with children.
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario = workload::makeScenario(
        workload::ScenarioPreset::VrGaming, 0.9);
    const auto costs = buildCosts(system, scenario);

    for (const auto router : serve::allRouterPolicies()) {
        SCOPED_TRACE(serve::toString(router));
        serve::ClusterConfig config;
        config.devices = 3;
        config.router = router;
        const auto result =
            runCluster(system, scenario, costs, config, 5e5, 23);
        ASSERT_EQ(result.devices.size(), 3u);
        expectSessionsOnTheirDevice(scenario, result);
    }

    // An intake frame that names no task has no session to join.
    const workload::FrameSource frames(scenario, 23);
    const serve::Cluster::SchedulerFactory fcfs = [] {
        return std::make_unique<sched::FcfsScheduler>();
    };
    for (const auto bad : {workload::TaskId(-1),
                           workload::TaskId(scenario.tasks.size())}) {
        workload::StreamSource intake(frames);
        workload::FrameSpec f;
        f.task = bad;
        intake.push(f);
        intake.close();
        serve::Cluster cluster(system, scenario, costs, {});
        EXPECT_THROW(cluster.run(fcfs, intake), std::invalid_argument);
    }
}

TEST(Cluster, ReplaySessionsStayOnTheirDevice)
{
    // A replay intake carries the recorded cascade children as
    // frames of their own, released at their recorded times; each
    // must join its root's session on the root's device.
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario = workload::makeScenario(
        workload::ScenarioPreset::VrGaming, 0.9);
    const auto costs = buildCosts(system, scenario);
    const double window_us = 5e5;
    const uint64_t seed = 23;

    const auto fcfs = runner::makeScheduler(runner::SchedKind::Fcfs);
    std::istringstream csv(runner::frameTraceCsv(
        runner::runOnce(system, scenario, *fcfs, {window_us, seed}),
        scenario));
    const auto trace = runner::readFrameTraceCsv(csv);
    const workload::ReplaySource replay(scenario, seed, trace);

    for (const auto router : serve::allRouterPolicies()) {
        SCOPED_TRACE(serve::toString(router));
        serve::ClusterConfig config;
        config.devices = 4;
        config.router = router;
        const auto result = runCluster(system, scenario, costs, config,
                                       window_us, seed, &replay);
        ASSERT_EQ(result.devices.size(), 4u);
        expectSessionsOnTheirDevice(scenario, result);
    }
}

TEST(Cluster, FourDeviceRunsReplayIdenticallyUnderEveryRouter)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario = workload::makeScenario(
        workload::ScenarioPreset::VrGaming, 0.9);
    const auto costs = buildCosts(system, scenario);
    const double window_us = 5e5;

    for (const auto router : serve::allRouterPolicies()) {
        serve::ClusterConfig config;
        config.devices = 4;
        config.router = router;
        const auto a = runCluster(system, scenario, costs, config,
                                  window_us, 23);
        const auto b = runCluster(system, scenario, costs, config,
                                  window_us, 23);
        EXPECT_EQ(runner::frameTraceCsv(a.stats, scenario),
                  runner::frameTraceCsv(b.stats, scenario));
        EXPECT_EQ(a.assignment, b.assignment);
        EXPECT_EQ(a.fairnessSpread, b.fairnessSpread);
        ASSERT_EQ(a.devices.size(), 4u);
        for (size_t k = 0; k < 4; ++k) {
            EXPECT_EQ(
                runner::frameTraceCsv(a.devices[k].stats, scenario),
                runner::frameTraceCsv(b.devices[k].stats, scenario))
                << "device " << k;
        }
        // Sessions are pinned: every root task that arrived has a
        // device, and the merged frame tallies match the sum of the
        // per-device tallies.
        uint64_t device_frames = 0;
        for (const auto& device : a.devices)
            device_frames += device.stats.totalFrames();
        EXPECT_EQ(a.stats.totalFrames(), device_frames);
    }
}

TEST(Cluster, MetricsAreDeviceNamespacedWithClusterRollups)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall, 0.5);
    const auto costs = buildCosts(system, scenario);

    obs::MetricsRegistry metrics;
    serve::ClusterConfig config;
    config.devices = 2;
    config.router = serve::RouterPolicy::RoundRobin;
    config.serve.metrics = &metrics;
    const auto result =
        runCluster(system, scenario, costs, config, 5e5, 11);

    const auto& counters = metrics.counters();
    ASSERT_TRUE(counters.count("serve/dev0/frames/offered"));
    ASSERT_TRUE(counters.count("serve/dev1/frames/offered"));
    ASSERT_TRUE(counters.count("serve/frames/offered"));
    EXPECT_EQ(counters.at("serve/frames/offered"),
              counters.at("serve/dev0/frames/offered") +
                  counters.at("serve/dev1/frames/offered"));
    EXPECT_EQ(counters.at("serve/frames/offered"),
              result.admission.offered);

    // The simulator's un-namespaced keys stay detached in cluster
    // mode: their gauges would be last-writer-wins across devices.
    EXPECT_FALSE(counters.count("frames/completed"));

    const auto& gauges = metrics.gauges();
    ASSERT_TRUE(gauges.count("serve/cluster/devices"));
    EXPECT_EQ(gauges.at("serve/cluster/devices"), 2.0);
    ASSERT_TRUE(gauges.count("serve/cluster/fairness_spread"));
    EXPECT_EQ(gauges.at("serve/cluster/fairness_spread"),
              result.fairnessSpread);
}

TEST(Cluster, FairnessRatiosComeFromCompletedFrames)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall, 0.5);
    const auto costs = buildCosts(system, scenario);

    serve::ClusterConfig config;
    config.devices = 2;
    config.router = serve::RouterPolicy::RoundRobin;
    const auto result =
        runCluster(system, scenario, costs, config, 1e6, 11);

    ASSERT_EQ(result.fairnessRatio.size(), 2u);
    for (const double ratio : result.fairnessRatio) {
        if (std::isfinite(ratio)) {
            EXPECT_GT(ratio, 0.0);
        }
    }
    EXPECT_GE(result.fairnessSpread, 1.0);
}

} // namespace
} // namespace dream
