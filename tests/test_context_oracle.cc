/**
 * @file
 * Differential oracle for the scheduler context.
 *
 * The simulator keeps SchedulerContext::live incrementally (appended
 * at admission, swap-removed when a frame completes or is dropped)
 * and `ready` too (a task's entry is refreshed at each event that
 * moves its head or the head's in-flight state). A checking
 * scheduler wraps each stock scheduler and, on every plan() call,
 * compares the context with a reference it keeps from the contexts
 * it has seen: the full-rebuild definition the simulator used before
 * either became incremental. It also checks every live request's
 * cost-cache rows against the cost table's own entries for its path.
 * It is driven over seeded random generated mixes x schedulers x
 * batch and ragged stream stepping x single-device serving with
 * admission off, reject and degrade x a 4-device cluster, whose
 * devices each see only the sessions routed to them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "costmodel/cost_table_cache.h"
#include "runner/experiment.h"
#include "serve/cluster.h"
#include "sim/cost_cache.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "workload/frame_source.h"
#include "workload/scenario_gen.h"
#include "workload/stream_source.h"

namespace dream {
namespace {

/**
 * Forwards to a stock scheduler after checking the context:
 *  - `live` holds no duplicate and no finished frame;
 *  - every frame seen live before that is still unfinished is still
 *    live, and frames new to `live` carry the next admission ids, so
 *    no admitted frame is missing;
 *  - with a simulator attached, live.size() == liveFrames();
 *  - `ready` is, in ascending task order, each task's lowest-id live
 *    frame when it has arrived and is not in flight (the per-task
 *    FIFO head: request ids follow admission order);
 *  - every live request's resolution was built against `ctx.costs`
 *    for the path it holds now, and its rows from `nextLayer` on are
 *    the entries `ctx.costs` holds for `path[i]`. Degrade re-points
 *    paths before admission and DREAM-Full switches variants, so
 *    rows resolved for a re-pointed path are checked too.
 */
class ContextOracle : public sim::Scheduler {
public:
    ContextOracle(runner::SchedKind kind,
                  const sim::Simulator* simulator = nullptr)
        : inner_(runner::makeScheduler(kind)), simulator_(simulator)
    {}

    std::string name() const override { return inner_->name(); }

    void reset(const sim::SchedulerContext& ctx) override
    {
        seen_.clear();
        resolved_.clear();
        nextId_ = 0;
        lastNowUs_ = ctx.nowUs;
        EXPECT_TRUE(ctx.live.empty());
        EXPECT_TRUE(ctx.ready.empty());
        inner_->reset(ctx);
    }

    sim::Plan plan(const sim::SchedulerContext& ctx) override
    {
        ++calls;
        // One located failure is enough; later rounds inherit it.
        if (!::testing::Test::HasFailure())
            check(ctx);
        return inner_->plan(ctx);
    }

    uint64_t calls = 0;
    size_t maxLive = 0;
    /** Row checks (request x round) of a path that a variant switch
     *  re-pointed after admission. */
    uint64_t switchedRows = 0;

private:
    /**
     * The entries `costs` holds for @p req's path layers, found by
     * hashing each layer. Computed once per path the request holds
     * (the held copy keeps the path's identity from being reused), so
     * the per-round check is pointer compares only.
     */
    struct Resolved {
        models::Path path;
        std::vector<const cost::LayerAgg*> entries;
    };

    const std::vector<const cost::LayerAgg*>&
    entriesOf(const sim::Request& req, const cost::CostTable& costs)
    {
        if (size_t(req.id) >= resolved_.size())
            resolved_.resize(size_t(req.id) + 1);
        Resolved& r = resolved_[size_t(req.id)];
        if (r.path.id() != req.path.id()) {
            r.path = req.path;
            r.entries.clear();
            for (const auto& layer : req.path)
                r.entries.push_back(&costs.view(layer).agg());
        }
        return r.entries;
    }

    /** A row addresses an entry: its aggregates are a member of it. */
    void
    checkRows(const sim::SchedulerContext& ctx)
    {
        for (const auto* r : ctx.live) {
            ASSERT_NE(r->resolution, nullptr)
                << "request " << r->id << " has no resolution";
            ASSERT_EQ(r->resolution->table, ctx.costs)
                << "request " << r->id
                << "'s resolution is not bound to ctx.costs";
            ASSERT_EQ(r->resolution->path.id(), r->path.id())
                << "request " << r->id
                << "'s resolution is not for the path it holds";
            const auto& rows = sim::ensureCostCache(*r, *ctx.costs).rows;
            ASSERT_EQ(rows.size(), r->path.size())
                << "request " << r->id;
            const auto& entries = entriesOf(*r, *ctx.costs);
            for (size_t i = r->nextLayer; i < rows.size(); ++i) {
                if (&rows[i].agg() != entries[i])
                    FAIL() << "request " << r->id << " layer " << i
                           << ": row is not ctx.costs' entry for "
                           << r->path[i].name << " at t=" << ctx.nowUs;
            }
            if (r->variant > 0)
                ++switchedRows;
        }
    }

    void
    check(const sim::SchedulerContext& ctx)
    {
        maxLive = std::max(maxLive, ctx.live.size());
        ASSERT_GE(ctx.nowUs, lastNowUs_);
        lastNowUs_ = ctx.nowUs;

        std::vector<int> fresh;
        for (const auto* r : ctx.live) {
            ASSERT_FALSE(r->finished()) << "finished request " << r->id;
            if (size_t(r->id) >= inLive_.size())
                inLive_.resize(size_t(r->id) + 1, 0);
            ASSERT_EQ(inLive_[size_t(r->id)], 0)
                << "request " << r->id << " is live twice";
            inLive_[size_t(r->id)] = 1;
            if (r->id >= nextId_)
                fresh.push_back(r->id);
        }
        std::sort(fresh.begin(), fresh.end());
        for (size_t i = 0; i < fresh.size(); ++i)
            ASSERT_EQ(fresh[i], nextId_ + int(i))
                << "an admitted frame is missing from live";
        nextId_ += int(fresh.size());

        size_t kept = 0;
        for (const auto* r : seen_) {
            if (r->finished())
                continue;
            ++kept;
            ASSERT_EQ(inLive_[size_t(r->id)], 1)
                << "unfinished request " << r->id << " left live";
        }
        EXPECT_EQ(kept + fresh.size(), ctx.live.size());
        if (simulator_) {
            EXPECT_EQ(ctx.live.size(), simulator_->liveFrames());
        }

        std::vector<const sim::Request*> head(ctx.scenario->tasks.size(),
                                              nullptr);
        for (const auto* r : ctx.live) {
            auto& h = head[size_t(r->task)];
            if (!h || r->id < h->id)
                h = r;
        }
        std::vector<const sim::Request*> ready;
        for (const auto* h : head) {
            if (h && !h->inFlight && h->arrivalUs <= ctx.nowUs + 1e-9)
                ready.push_back(h);
        }
        EXPECT_EQ(ctx.ready, ready) << "at t=" << ctx.nowUs;

        for (const auto* r : ctx.live)
            inLive_[size_t(r->id)] = 0;
        seen_ = ctx.live;

        checkRows(ctx);
    }

    std::unique_ptr<sim::Scheduler> inner_;
    const sim::Simulator* simulator_;
    std::vector<const sim::Request*> seen_;
    std::vector<char> inLive_;
    std::vector<Resolved> resolved_;
    int nextId_ = 0;
    double lastNowUs_ = 0.0;
};

/** Forwards to an oracle the test owns, so the oracle's tallies
 *  outlive a Cluster::run that destroys its schedulers. */
class OracleHandle : public sim::Scheduler {
public:
    explicit OracleHandle(ContextOracle& oracle) : oracle_(oracle) {}

    std::string name() const override { return oracle_.name(); }
    void reset(const sim::SchedulerContext& ctx) override
    {
        oracle_.reset(ctx);
    }
    sim::Plan plan(const sim::SchedulerContext& ctx) override
    {
        return oracle_.plan(ctx);
    }

private:
    ContextOracle& oracle_;
};

/** Uniform double in [lo, hi) from a portable generator. */
double
uniform(std::mt19937_64& rng, double lo, double hi)
{
    return lo + (hi - lo) * double(rng() >> 11) * 0x1.0p-53;
}

/** A random generator spec: dynamicity knobs, Supernets, overload. */
workload::ScenarioGenSpec
randomSpec(std::mt19937_64& rng, double window_us)
{
    workload::ScenarioGenSpec spec;
    spec.minTasks = 2;
    spec.maxTasks = 2 + int(rng() % 4);
    spec.horizonUs = window_us;
    spec.chainProb = uniform(rng, 0.2, 0.8);
    spec.activationProb = uniform(rng, 0.0, 0.4);
    spec.skipProbMin = uniform(rng, 0.0, 0.5);
    spec.skipProbMax = spec.skipProbMin + uniform(rng, 0.0, 0.5);
    spec.exitProbMin = uniform(rng, 0.0, 0.5);
    spec.exitProbMax = spec.exitProbMin + uniform(rng, 0.0, 0.5);
    spec.supernetProb = uniform(rng, 0.0, 1.0);
    spec.targetLoad = uniform(rng, 2.0, 8.0);
    return spec;
}

struct Mix {
    hw::SystemConfig system;
    workload::Scenario scenario;
    std::shared_ptr<const cost::CostTable> costs;
    uint64_t seed = 0;
};

/** Mix @p s: @p spec's scenario s on @p preset, rates x @p rate_scale. */
Mix
makeMix(const workload::ScenarioGenSpec& spec, hw::SystemPreset preset,
        uint64_t s, double rate_scale)
{
    Mix mix;
    mix.system = hw::makeSystem(preset);
    mix.scenario = workload::ScenarioGenerator(spec).generate(s + 1);
    for (auto& task : mix.scenario.tasks)
        task.fps *= rate_scale;
    mix.costs = cost::acquireCostTable(mix.system, mix.scenario);
    mix.seed = 100 + s;
    return mix;
}

const runner::SchedKind kScheds[] = {
    runner::SchedKind::Fcfs,
    runner::SchedKind::Planaria,
    runner::SchedKind::Veltair,
    runner::SchedKind::DreamFull,
};

constexpr double kWindowUs = 3e5;

/** Stream @p mix with ragged advances strictly below each arrival. */
sim::RunStats
runChunked(const Mix& mix, runner::SchedKind kind, std::mt19937_64& rng)
{
    sim::SimConfig cfg;
    cfg.windowUs = kWindowUs;
    cfg.seed = mix.seed;
    sim::Simulator simulator(mix.system, mix.scenario, *mix.costs, cfg);
    ContextOracle oracle(kind, &simulator);
    const workload::FrameSource frames(mix.scenario, mix.seed);
    simulator.beginStream(oracle);
    double step = 0.0;
    for (const auto& spec :
         workload::rootFramesByArrival(frames, kWindowUs)) {
        while (true) {
            const double next = step + uniform(rng, 1.0, 3e4);
            if (next >= spec.arrivalUs - 1.0)
                break;
            step = next;
            simulator.advanceTo(step);
            if (rng() % 4 == 0)
                simulator.advanceTo(step); // idempotent
        }
        simulator.offerArrival(spec);
    }
    return simulator.finishStream();
}

/** What serving a mix returns: the cluster's result and each
 *  device's oracle. */
struct Served {
    serve::ClusterResult result;
    std::vector<std::unique_ptr<ContextOracle>> oracles;
};

/** Serve @p mix on @p devices devices routed by @p router under
 *  @p admission, each device's scheduler checked by its own oracle. */
Served
serveMix(const Mix& mix, runner::SchedKind kind, size_t devices,
         serve::RouterPolicy router,
         const serve::AdmissionConfig& admission)
{
    serve::ClusterConfig config;
    config.devices = devices;
    config.router = router;
    config.serve.windowUs = kWindowUs;
    config.serve.seed = mix.seed;
    config.serve.admission = admission;
    const workload::FrameSource frames(mix.scenario, mix.seed);
    workload::StreamSource intake(frames);
    for (auto& spec : workload::rootFramesByArrival(frames, kWindowUs))
        intake.push(std::move(spec));
    intake.close();
    Served served;
    serve::Cluster cluster(mix.system, mix.scenario, *mix.costs, config);
    served.result = cluster.run(
        [&] {
            served.oracles.push_back(
                std::make_unique<ContextOracle>(kind));
            return std::make_unique<OracleHandle>(
                *served.oracles.back());
        },
        intake);
    return served;
}

/** Serve @p mix on one device under @p admission. */
serve::ClusterResult
runServed(const Mix& mix, runner::SchedKind kind,
          const serve::AdmissionConfig& admission)
{
    return serveMix(mix, kind, 1, serve::RouterPolicy::RoundRobin,
                    admission)
        .result;
}

TEST(ContextOracle, IncrementalContextMatchesFullRebuild)
{
    const hw::SystemPreset systems[] = {
        hw::SystemPreset::Sys4k1Ws2Os,
        hw::SystemPreset::Sys4k2Ws,
    };
    serve::AdmissionConfig reject;
    reject.maxQueueDepth = 12;
    reject.policy = serve::OverloadPolicy::Reject;
    serve::AdmissionConfig degrade;
    degrade.maxBacklogUs = 2e4;
    degrade.policy = serve::OverloadPolicy::Degrade;

    size_t max_live = 0;
    uint64_t drops = 0, rejected = 0, degraded = 0, switched_rows = 0;
    for (uint64_t s = 0; s < 6; ++s) {
        std::mt19937_64 rng(0x5eed0000 + s);
        const auto spec = randomSpec(rng, kWindowUs);
        std::string error;
        ASSERT_TRUE(workload::validateGenSpec(spec, &error)) << error;
        const double rate_scale = uniform(rng, 2.0, 6.0);
        const Mix mix = makeMix(spec, systems[s % 2], s, rate_scale);
        for (const auto kind : kScheds) {
            SCOPED_TRACE(mix.scenario.name + " under " +
                         runner::toString(kind));
            sim::SimConfig cfg;
            cfg.windowUs = kWindowUs;
            cfg.seed = mix.seed;
            sim::Simulator simulator(mix.system, mix.scenario,
                                     *mix.costs, cfg);
            ContextOracle oracle(kind, &simulator);
            const auto batch = simulator.run(oracle);
            EXPECT_GT(oracle.calls, 0u);
            max_live = std::max(max_live, oracle.maxLive);
            switched_rows += oracle.switchedRows;
            for (const auto& ts : batch.tasks)
                drops += ts.droppedFrames;

            test::expectStatsBitIdentical(mix.scenario, batch,
                                          runChunked(mix, kind, rng));
            test::expectStatsBitIdentical(
                mix.scenario, batch,
                runServed(mix, kind, serve::AdmissionConfig{}).stats);
            rejected += runServed(mix, kind, reject).admission.rejected;
            degraded += runServed(mix, kind, degrade).admission.degraded;
        }

        // The cluster serves an eight-task draw of the same spec, so
        // every device gets a session and each device's simulator
        // keeps most of its task queues empty. Routers and schedulers
        // rotate across the mixes.
        workload::ScenarioGenSpec wide_spec = spec;
        wide_spec.minTasks = wide_spec.maxTasks = 8;
        const Mix wide = makeMix(wide_spec, systems[s % 2], s, rate_scale);
        const auto router = serve::allRouterPolicies()[s % 3];
        const auto kind = kScheds[s % std::size(kScheds)];
        SCOPED_TRACE(wide.scenario.name + " under " +
                     runner::toString(kind) + " on 4 devices, " +
                     serve::toString(router));
        const auto devices =
            serveMix(wide, kind, 4, router, serve::AdmissionConfig{})
                .oracles;
        ASSERT_EQ(devices.size(), 4u);
        for (size_t k = 0; k < devices.size(); ++k)
            EXPECT_GT(devices[k]->calls, 0u) << "device " << k;
    }
    // The mixes overload their systems: deep live sets, SmartDrop
    // removes frames from them, and both admission policies fire.
    // DREAM-Full switches Supernet variants, so rows resolved for a
    // re-pointed path were checked.
    EXPECT_GT(max_live, 20u);
    EXPECT_GT(drops, 0u);
    EXPECT_GT(switched_rows, 0u);
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(degraded, 0u);
}

} // namespace
} // namespace dream
