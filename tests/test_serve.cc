/** @file Tests for the serving subsystem: stream-mode parity of a
 *  single-device Cluster with the offline simulator, the incremental
 *  Simulator API, the intake queue, the admission controller's
 *  reject/degrade policies, and rolling-window telemetry vs the
 *  exact LatencyHistogram. */

#include <algorithm>
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "costmodel/cost_table.h"
#include "obs/rolling.h"
#include "runner/experiment.h"
#include "runner/trace.h"
#include "sched/fcfs.h"
#include "serve/cluster.h"
#include "sim/simulator.h"
#include "workload/replay_source.h"
#include "workload/stream_source.h"

#include "test_util.h"

namespace dream {
namespace {

/** Serve @p source through a single-device Cluster, the one serving
 *  path, admission as @p config sets it. */
serve::ServeResult
serveOneDevice(const hw::SystemConfig& system,
               const workload::Scenario& scenario,
               const cost::CostTable& costs,
               const serve::Cluster::SchedulerFactory& make_scheduler,
               const workload::ArrivalSource& source,
               serve::ServeConfig config)
{
    workload::StreamSource intake(source);
    for (auto& frame :
         workload::rootFramesByArrival(source, config.windowUs))
        intake.push(std::move(frame));
    intake.close();
    serve::ClusterConfig cluster_config;
    cluster_config.serve = std::move(config);
    serve::Cluster cluster(system, scenario, costs, cluster_config);
    auto result = cluster.run(make_scheduler, intake);
    return std::move(result.devices.front());
}

/** Serve @p source in stream mode with admission off. */
sim::RunStats
serveStream(const hw::SystemConfig& system,
            const workload::Scenario& scenario,
            const cost::CostTable& costs, runner::SchedKind kind,
            const workload::ArrivalSource& source, double window_us,
            uint64_t seed)
{
    serve::ServeConfig config;
    config.windowUs = window_us;
    config.seed = seed;
    const auto make = [kind] { return runner::makeScheduler(kind); };
    return serveOneDevice(system, scenario, costs, make, source, config)
        .stats;
}

TEST(Serve, StreamedGenerativeRunMatchesOfflineRun)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall, 0.7);
    cost::CostTable costs(system);
    for (const auto& t : scenario.tasks)
        costs.addModel(t.model);
    const double window_us = 1e6;
    const uint64_t seed = 11;

    // Offline: the classic batch run over the same FrameSource.
    const workload::FrameSource frames(scenario, seed);
    sim::SimConfig cfg;
    cfg.windowUs = window_us;
    cfg.seed = seed;
    cfg.arrivals = &frames;
    sim::Simulator simulator(system, scenario, costs, cfg);
    auto sched = runner::makeScheduler(runner::SchedKind::DreamFull);
    const auto offline = simulator.run(*sched);

    // Streamed: the same frames pushed one at a time through the
    // ingest queue (cascade children flow through the delegate).
    const auto streamed =
        serveStream(system, scenario, costs,
                    runner::SchedKind::DreamFull, frames, window_us,
                    seed);
    test::expectStatsBitIdentical(scenario, offline, streamed);
}

TEST(Serve, StreamedTraceReplayMatchesOfflineReplay)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario = workload::makeScenario(
        workload::ScenarioPreset::VrGaming, 0.5);
    cost::CostTable costs(system);
    for (const auto& t : scenario.tasks)
        costs.addModel(t.model);
    const double window_us = 5e5;
    const uint64_t seed = 23;

    // Record a run, then re-load it the way dream_serve --replay
    // does (through the CSV round trip, not in-memory stats).
    auto sched = runner::makeScheduler(runner::SchedKind::Fcfs);
    const auto recorded =
        runner::runOnce(system, scenario, *sched, {window_us, seed});
    const auto csv =
        runner::frameTraceCsv(recorded, scenario);
    std::istringstream is(csv);
    const auto trace = runner::readFrameTraceCsv(is);
    const workload::ReplaySource replay(scenario, seed, trace);

    // Offline replay.
    sim::SimConfig cfg;
    cfg.windowUs = window_us;
    cfg.seed = seed;
    cfg.arrivals = &replay;
    sim::Simulator simulator(system, scenario, costs, cfg);
    auto sched_a = runner::makeScheduler(runner::SchedKind::Fcfs);
    const auto offline = simulator.run(*sched_a);

    // Stream replay must be bit-identical — the dream_serve
    // --verify-offline anchor.
    const auto streamed =
        serveStream(system, scenario, costs, runner::SchedKind::Fcfs,
                    replay, window_us, seed);
    test::expectStatsBitIdentical(scenario, offline, streamed);
    test::expectStatsBitIdentical(scenario, recorded, streamed);
}

TEST(Serve, IncrementalApiMatchesRunWithArbitraryStepping)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    const auto scenario = workload::makeScenario(
        workload::ScenarioPreset::DroneOutdoor, 0.5);
    cost::CostTable costs(system);
    for (const auto& t : scenario.tasks)
        costs.addModel(t.model);
    const double window_us = 4e5;

    sim::SimConfig cfg;
    cfg.windowUs = window_us;
    cfg.seed = 5;
    auto sched_a = runner::makeScheduler(runner::SchedKind::Fcfs);
    sim::Simulator batch(system, scenario, costs, cfg);
    const auto offline = batch.run(*sched_a);

    // Same workload driven through the incremental API: each frame
    // offered right before the clock passes it, with interleaved
    // partial advances at ragged boundaries.
    const workload::FrameSource frames(scenario, cfg.seed);
    const auto arrivals = workload::rootFramesByArrival(frames, window_us);
    auto sched_b = runner::makeScheduler(runner::SchedKind::Fcfs);
    sim::Simulator inc(system, scenario, costs, cfg);
    inc.beginStream(*sched_b);
    double step = 0.0;
    for (const auto& spec : arrivals) {
        // Ragged advances strictly below the next arrival.
        while (step + 7001.0 < spec.arrivalUs) {
            step += 7001.0;
            inc.advanceTo(step);
        }
        inc.offerArrival(spec);
    }
    const auto streamed = inc.finishStream();
    test::expectStatsBitIdentical(scenario, offline, streamed);
    EXPECT_EQ(inc.liveFrames(),
              size_t(std::count_if(
                  streamed.frames.begin(), streamed.frames.end(),
                  [](const sim::FrameRecord& fr) {
                      return !fr.dropped && !fr.isCompleted();
                  })));
}

TEST(Serve, OfferArrivalEnforcesOrdering)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    cost::CostTable costs(system);
    for (const auto& t : scenario.tasks)
        costs.addModel(t.model);
    sim::Simulator sim(system, scenario, costs, {});
    sched::FcfsScheduler fcfs;
    sim.beginStream(fcfs);

    workload::FrameSpec late;
    late.arrivalUs = 1000.0;
    late.path = scenario.tasks[0].model.layers;
    sim.offerArrival(late);
    workload::FrameSpec earlier = late;
    earlier.arrivalUs = 500.0;
    EXPECT_THROW(sim.offerArrival(earlier), std::invalid_argument);

    // Advancing past an arrival and then offering one behind the
    // clock is a contract violation too. Advance far enough that the
    // admitted frame's completion events have moved the clock.
    sim.advanceTo(1e6);
    ASSERT_GT(sim.nowUs(), late.arrivalUs + 1.0);
    workload::FrameSpec behind = late;
    behind.arrivalUs = (late.arrivalUs + sim.nowUs()) / 2.0;
    EXPECT_THROW(sim.offerArrival(behind), std::invalid_argument);
}

TEST(Serve, StreamSourceQueueSemantics)
{
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const workload::FrameSource delegate(scenario, 1);
    workload::StreamSource stream(delegate);
    EXPECT_EQ(&stream.source(), &delegate);

    workload::FrameSpec f;
    f.arrivalUs = 10.0;
    stream.push(f);
    f.arrivalUs = 5.0;
    EXPECT_THROW(stream.push(f), std::invalid_argument);
    f.arrivalUs = 20.0;
    stream.push(f);

    // Serving starts only once the producers have closed the stream.
    EXPECT_THROW(stream.drain(), std::logic_error);
    stream.close();
    EXPECT_THROW(stream.push(f), std::logic_error);

    // drain() moves out everything queued, in push order, once.
    const auto queued = stream.drain();
    ASSERT_EQ(queued.size(), 2u);
    EXPECT_EQ(queued[0].arrivalUs, 10.0);
    EXPECT_EQ(queued[1].arrivalUs, 20.0);
    EXPECT_TRUE(stream.drain().empty());
}

TEST(Serve, AdmissionRejectsWhenQueueDepthExceeded)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    workload::Scenario scenario;
    scenario.name = "burst";
    workload::TaskSpec task;
    task.model = test::toyModel("burst", 4);
    task.fps = 2000.0; // a 2 kHz burst the hardware cannot absorb
    scenario.tasks.push_back(task);
    cost::CostTable costs(system);
    costs.addModel(task.model);

    workload::FrameSource frames(scenario, 3);
    serve::ServeConfig config;
    config.windowUs = 5e4;
    config.seed = 3;
    config.admission.maxQueueDepth = 4;
    const auto result = serveOneDevice(
        system, scenario, costs,
        [] { return std::make_unique<sched::FcfsScheduler>(); }, frames,
        config);

    EXPECT_GT(result.admission.offered, 0u);
    EXPECT_GT(result.admission.rejected, 0u);
    EXPECT_EQ(result.admission.offered,
              result.admission.admitted + result.admission.degraded +
                  result.admission.rejected);
    // Rejected frames never enter the simulator.
    EXPECT_EQ(result.stats.frames.size(),
              size_t(result.admission.admitted +
                     result.admission.degraded));
}

TEST(Serve, AdmissionDegradePicksLightestVariant)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    workload::Scenario scenario;
    scenario.name = "degrade";
    workload::TaskSpec task;
    task.model = test::toySupernet();
    scenario.tasks.push_back(task);
    cost::CostTable costs(system);
    costs.addModel(task.model);

    // Calibrate the bound so exactly one original-path frame fits:
    // the first offer admits, the second (same instant, no drain)
    // overloads and must degrade.
    const double original_cost =
        cost::bestCaseLatencyUs(costs, task.model.layers);
    ASSERT_GT(original_cost, 0.0);

    serve::AdmissionConfig config;
    config.maxBacklogUs = 1.5 * original_cost;
    config.policy = serve::OverloadPolicy::Degrade;
    serve::AdmissionController gate(config, scenario, costs);

    workload::FrameSpec frame;
    frame.task = 0;
    frame.path = task.model.layers;
    EXPECT_EQ(gate.offer(frame, 0.0, 0),
              serve::AdmissionDecision::Admit);

    workload::FrameSpec second;
    second.task = 0;
    second.path = task.model.layers;
    EXPECT_EQ(gate.offer(second, 0.0, 1),
              serve::AdmissionDecision::Degrade);
    // The degraded path is the lightest variant, not the original.
    const auto light = task.model.variantPath(1);
    ASSERT_EQ(second.path.size(), light.size());
    uint64_t degraded_macs = 0;
    for (size_t i = 0; i < light.size(); ++i) {
        EXPECT_EQ(second.path[i].name, light[i].name) << i;
        degraded_macs += second.path[i].macs();
    }
    EXPECT_LT(degraded_macs, models::totalMacs(task.model.layers));
    EXPECT_EQ(gate.stats().degraded, 1u);

    // Every degrade re-points its frame to the controller's one
    // shared path for the task: no layer is copied.
    workload::FrameSpec third;
    third.task = 0;
    third.path = task.model.layers;
    EXPECT_EQ(gate.offer(third, 0.0, 2),
              serve::AdmissionDecision::Degrade);
    EXPECT_NE(second.path.id(), nullptr);
    EXPECT_EQ(third.path.id(), second.path.id());
    EXPECT_EQ(gate.stats().degraded, 2u);

    // A non-supernet task cannot degrade: it falls back to reject.
    workload::Scenario plain;
    plain.name = "plain";
    workload::TaskSpec ptask;
    ptask.model = test::toyModel();
    plain.tasks.push_back(ptask);
    cost::CostTable pcosts(system);
    pcosts.addModel(ptask.model);
    const double plain_cost =
        cost::bestCaseLatencyUs(pcosts, ptask.model.layers);
    ASSERT_GT(plain_cost, 0.0);
    serve::AdmissionConfig pconfig = config;
    pconfig.maxBacklogUs = 1.5 * plain_cost;
    serve::AdmissionController pgate(pconfig, plain, pcosts);
    workload::FrameSpec pframe;
    pframe.task = 0;
    pframe.path = ptask.model.layers;
    EXPECT_EQ(pgate.offer(pframe, 0.0, 0),
              serve::AdmissionDecision::Admit);
    workload::FrameSpec pframe2 = pframe;
    EXPECT_EQ(pgate.offer(pframe2, 0.0, 1),
              serve::AdmissionDecision::Reject);
}

TEST(Serve, AdmissionWithoutBoundsAdmitsEveryFrame)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    workload::Scenario scenario;
    scenario.name = "open";
    workload::TaskSpec task;
    task.model = test::toySupernet();
    scenario.tasks.push_back(task);
    cost::CostTable costs(system);
    costs.addModel(task.model);

    // No bound set: every frame is admitted on its own path, however
    // deep the queue, and no backlog is projected.
    const serve::AdmissionConfig config;
    ASSERT_FALSE(config.enabled());
    serve::AdmissionController gate(config, scenario, costs);
    for (size_t i = 0; i < 100; ++i) {
        workload::FrameSpec frame;
        frame.task = 0;
        frame.path = task.model.layers;
        const void* path = frame.path.id();
        EXPECT_EQ(gate.offer(frame, 0.0, 1000 * i),
                  serve::AdmissionDecision::Admit);
        EXPECT_EQ(frame.path.id(), path);
        EXPECT_EQ(gate.backlogUs(), 0.0);
    }
    gate.advanceTo(1e6);
    EXPECT_EQ(gate.backlogUs(), 0.0);
    EXPECT_EQ(gate.stats().offered, 100u);
    EXPECT_EQ(gate.stats().admitted, 100u);
    EXPECT_EQ(gate.stats().degraded, 0u);
    EXPECT_EQ(gate.stats().rejected, 0u);
}

TEST(Serve, AdmissionBacklogDrainsAtCapacity)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    workload::Scenario scenario;
    scenario.name = "drain";
    workload::TaskSpec task;
    task.model = test::toyModel();
    scenario.tasks.push_back(task);
    cost::CostTable costs(system);
    costs.addModel(task.model);

    serve::AdmissionConfig config;
    config.maxBacklogUs = 1e9; // never rejects; observe the backlog
    serve::AdmissionController gate(config, scenario, costs);
    workload::FrameSpec frame;
    frame.task = 0;
    frame.path = task.model.layers;
    gate.offer(frame, 0.0, 0);
    const double backlog = gate.backlogUs();
    EXPECT_GT(backlog, 0.0);

    const double accels =
        double(system.accelerators.size());
    gate.advanceTo(backlog / (2.0 * accels));
    EXPECT_NEAR(gate.backlogUs(), backlog / 2.0, 1e-9 * backlog);
    gate.advanceTo(backlog); // well past full drain
    EXPECT_EQ(gate.backlogUs(), 0.0);
}

TEST(Serve, RollingQuantilesMatchExactHistogram)
{
    obs::RollingWindow window(1e9);
    obs::LatencyHistogram exact;
    // A deterministic, unsorted sample set with duplicates.
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 500; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const double v = double(x % 100000) / 7.0;
        window.record(double(i), v);
        exact.record(v);
    }
    ASSERT_EQ(window.count(), exact.count());
    const obs::LatencyHistogram snap = window.snapshot();
    for (const double q :
         {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        // Bit-identical, not approximately equal: the rolling window
        // delegates to the same interpolation rule.
        EXPECT_EQ(snap.quantile(q), exact.quantile(q)) << q;
    }
    EXPECT_EQ(snap.mean(), exact.mean());
}

TEST(Serve, RollingWindowEvictsAgedSamples)
{
    obs::RollingWindow window(100.0);
    window.record(0.0, 1.0);
    window.record(50.0, 2.0);
    EXPECT_EQ(window.count(), 2u);
    // record() advances time before pushing: at t=100 the cutoff is
    // 100-100 = 0 and samples at t <= cutoff leave, so the t=0 sample
    // is evicted exactly at the span boundary.
    window.record(100.0, 3.0);
    EXPECT_EQ(window.count(), 2u);
    window.advanceTo(100.0);
    EXPECT_EQ(window.count(), 2u);
    window.advanceTo(149.0);
    EXPECT_EQ(window.count(), 2u);
    window.advanceTo(151.0);
    EXPECT_EQ(window.count(), 1u);
    // Time never moves backwards.
    window.advanceTo(0.0);
    EXPECT_EQ(window.count(), 1u);
    window.advanceTo(1e6);
    EXPECT_EQ(window.count(), 0u);
    EXPECT_TRUE(std::isnan(window.snapshot().quantile(0.5)));

    // A plain event counts and ages out like a valued one, but stays
    // out of the snapshot.
    obs::RollingWindow events(100.0);
    events.record(0.0);
    events.record(90.0, 7.0);
    events.record(95.0);
    EXPECT_EQ(events.count(), 3u);
    EXPECT_EQ(events.snapshot().count(), 1u);
    EXPECT_EQ(events.snapshot().quantile(0.5), 7.0);
    events.advanceTo(120.0);
    EXPECT_EQ(events.count(), 2u);
    EXPECT_EQ(events.snapshot().count(), 1u);
    events.advanceTo(192.0);
    EXPECT_EQ(events.count(), 1u);
    EXPECT_EQ(events.snapshot().count(), 0u);
    events.advanceTo(500.0);
    EXPECT_EQ(events.count(), 0u);
}

TEST(Serve, RollingSnapshotsAreDeterministicAndOrdered)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    cost::CostTable costs(system);
    for (const auto& t : scenario.tasks)
        costs.addModel(t.model);
    const double window_us = 6e5;

    const workload::FrameSource frames(scenario, 9);
    const auto runServe = [&]() {
        serve::ServeConfig config;
        config.windowUs = window_us;
        config.seed = 9;
        config.reportIntervalUs = 1e5;
        config.rollingSpanUs = 2e5;
        return serveOneDevice(
            system, scenario, costs,
            [] { return std::make_unique<sched::FcfsScheduler>(); },
            frames, config);
    };
    const auto a = runServe();
    const auto b = runServe();

    // 5 interval reports (1e5..5e5) plus the final window report.
    ASSERT_EQ(a.snapshots.size(), 6u);
    for (size_t i = 1; i < a.snapshots.size(); ++i)
        EXPECT_GT(a.snapshots[i].tUs, a.snapshots[i - 1].tUs);
    EXPECT_EQ(a.snapshots.back().tUs, window_us);
    ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
    for (size_t i = 0; i < a.snapshots.size(); ++i) {
        EXPECT_EQ(a.snapshots[i].queueDepth,
                  b.snapshots[i].queueDepth);
        EXPECT_EQ(a.snapshots[i].windowSamples,
                  b.snapshots[i].windowSamples);
        // Bit-equal or both NaN.
        EXPECT_TRUE(a.snapshots[i].p99Us == b.snapshots[i].p99Us ||
                    (std::isnan(a.snapshots[i].p99Us) &&
                     std::isnan(b.snapshots[i].p99Us)));
    }
    EXPECT_GT(a.snapshots.back().windowSamples, 0u);
}

} // anonymous namespace
} // namespace dream
