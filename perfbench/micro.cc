#include "micro.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "core/dream_config.h"
#include "costmodel/cost_table_cache.h"
#include "core/mapscore.h"
#include "serve/dispatcher.h"

namespace perfbench {

using namespace dream;

namespace {

constexpr size_t kBatches = 2000;

/** Keeps timed results observable, so no loop body is elided. */
volatile double g_sink = 0.0;

/**
 * ns/op over @p batches timed batches: @p prepare(b) runs untimed
 * before batch b and returns its op count, then @p body(i) runs that
 * many times under one clock pair.
 */
template <typename Prepare, typename Body>
std::vector<double>
timeBatches(Prepare&& prepare, Body&& body)
{
    std::vector<double> ns_per_op;
    ns_per_op.reserve(kBatches);
    size_t op = 0;
    for (size_t b = 0; b < kBatches; ++b) {
        const size_t n = prepare(b);
        const int64_t t0 = nowNs();
        for (size_t i = 0; i < n; ++i)
            body(op++);
        const int64_t t1 = nowNs();
        ns_per_op.push_back(double(t1 - t0) / double(n));
    }
    return ns_per_op;
}

void
report(Values& v, const std::string& name,
       const std::vector<double>& ns_per_op)
{
    v[name + "_min"] =
        *std::min_element(ns_per_op.begin(), ns_per_op.end());
    v[name] = quantile(ns_per_op, 0.5);
    v[name + "_p99"] = quantile(ns_per_op, 0.99);
}

} // anonymous namespace

ContextSnapshot::ContextSnapshot(const sim::SchedulerContext& src)
    : scenario(*src.scenario), system(*src.system),
      costs(cost::acquireCostTable(system, scenario)),
      accels(*src.accels), ctx(src)
{
    requests.reserve(src.live.size() + src.ready.size());
    std::unordered_map<const sim::Request*, const sim::Request*> copy_of;
    const auto copied = [&](const sim::Request* r) {
        auto it = copy_of.find(r);
        if (it == copy_of.end()) {
            requests.push_back(*r);
            it = copy_of.emplace(r, &requests.back()).first;
        }
        return it->second;
    };
    for (auto& r : ctx.live)
        r = copied(r);
    for (auto& r : ctx.ready)
        r = copied(r);
    for (size_t i = 0; i < accels.size(); ++i)
        accels[i].config = &system.accelerators[i];
    ctx.system = &system;
    ctx.costs = costs.get();
    ctx.scenario = &scenario;
    ctx.accels = &accels;
    if (src.stats) {
        stats = *src.stats;
        ctx.stats = &stats;
    }
}

void
LargestContext::offer(const sim::SchedulerContext& ctx)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (snapshot_ && snapshot_->ctx.live.size() >= ctx.live.size())
        return;
    snapshot_ = std::make_unique<ContextSnapshot>(ctx);
}

std::vector<workload::FrameSpec>
rootsInArrivalOrder(const workload::FrameSource& source, double window_us)
{
    auto frames = source.rootFrames(window_us);
    std::stable_sort(frames.begin(), frames.end(),
                     [](const auto& a, const auto& b) {
                         return a.arrivalUs < b.arrivalUs;
                     });
    return frames;
}

serve::AdmissionConfig
clusterAdmission()
{
    serve::AdmissionConfig a;
    a.maxQueueDepth = 48;
    a.maxBacklogUs = 1e4;
    a.policy = serve::OverloadPolicy::Degrade;
    return a;
}

void
microTimings(const MicroFixture& f, Values& v)
{
    const ContextSnapshot& snap = *f.context;
    const sim::SchedulerContext& ctx = snap.ctx;
    const size_t n_accels = snap.system.size();
    v["micro.batches"] = double(kBatches);
    v["micro.context_live"] = double(ctx.live.size());

    // Cost-table lookup over every (layer, accelerator) pair of the
    // scenario's models.
    std::vector<const models::Layer*> layers;
    for (const auto& task : snap.scenario.tasks) {
        for (const auto& layer : task.model.layers)
            layers.push_back(&layer);
    }
    report(v, "costmodel.lookup_ns",
           timeBatches([](size_t) { return size_t(256); },
                       [&](size_t i) {
                           const auto& c = snap.costs->cost(
                               *layers[i % layers.size()],
                               (i / layers.size()) % n_accels);
                           g_sink = c.latencyUs;
                       }));

    // One MapScore evaluation (Algorithm 1) per (ready request,
    // accelerator) of the captured context, at DREAM-Full's initial
    // (alpha, beta).
    const auto& candidates = ctx.ready.empty() ? ctx.live : ctx.ready;
    if (!candidates.empty()) {
        const core::DreamConfig full = core::DreamConfig::full();
        const core::MapScoreEngine mapscore(full.alpha, full.beta);
        report(v, "sched.mapscore_ns",
               timeBatches([](size_t) { return size_t(64); },
                           [&](size_t i) {
                               const auto s = mapscore.score(
                                   ctx, *candidates[i % candidates.size()],
                                   i % n_accels);
                               g_sink = s.mapScore;
                           }));
    }

    // One admission decision, offering the workload's root frames in
    // arrival order at the captured queue depth. Frames are copied
    // before each batch (untimed): a degrade rewrites the path. The
    // queue bound is left out: it is one compare, and at a deep
    // context's depth it would reject every frame.
    const std::vector<workload::FrameSpec>& roots = *f.roots;
    serve::AdmissionConfig admission = clusterAdmission();
    admission.maxQueueDepth = 0;
    constexpr size_t kOffers = 64;
    std::unique_ptr<serve::AdmissionController> gate;
    std::vector<workload::FrameSpec> batch;
    size_t next_root = 0;
    report(v, "serve.admit_ns",
           timeBatches(
               [&](size_t) {
                   batch.clear();
                   for (size_t k = 0; k < kOffers; ++k) {
                       if (next_root == 0 || !gate)
                           gate = std::make_unique<
                               serve::AdmissionController>(
                               admission, snap.scenario, *snap.costs);
                       batch.push_back(roots[next_root]);
                       next_root = (next_root + 1) % roots.size();
                   }
                   return kOffers;
               },
               [&](size_t i) {
                   auto& frame = batch[i % kOffers];
                   g_sink = double(gate->offer(frame, frame.arrivalUs,
                                               ctx.live.size()));
               }));

    // One routing decision of the finish-time-fairness dispatcher:
    // every root task routed once, at its first arrival, onto a
    // fresh dispatcher per batch. The gauges split the captured
    // context's live set and best-case backlog across the devices.
    std::vector<std::pair<workload::TaskId, double>> sessions;
    for (const auto& frame : roots) {
        const bool seen = std::any_of(
            sessions.begin(), sessions.end(),
            [&](const auto& s) { return s.first == frame.task; });
        if (!seen)
            sessions.push_back({frame.task, frame.arrivalUs});
    }
    double backlog_us = 0.0;
    for (const sim::Request* r : ctx.live) {
        for (size_t l = r->nextLayer; l < r->path.size(); ++l)
            backlog_us += snap.costs->minLatencyUs(r->path[l]);
    }
    // Device d carries (d + 1) / (1 + 2 + ... + N) of the load.
    constexpr size_t kShares = kClusterDevices * (kClusterDevices + 1) / 2;
    std::vector<serve::DeviceGauges> gauges(kClusterDevices);
    for (size_t d = 0; d < kClusterDevices; ++d) {
        gauges[d].liveFrames = ctx.live.size() * (d + 1) / kShares;
        gauges[d].backlogUs = backlog_us * double(d + 1) / double(kShares);
        gauges[d].violationRate = f.violationRate;
    }
    std::unique_ptr<serve::Dispatcher> router;
    report(v, "serve.route_ns",
           timeBatches(
               [&](size_t) {
                   router = std::make_unique<serve::Dispatcher>(
                       serve::RouterPolicy::FinishTimeFairness,
                       kClusterDevices, snap.scenario, *snap.costs,
                       f.windowUs);
                   return sessions.size();
               },
               [&](size_t i) {
                   const auto& s = sessions[i % sessions.size()];
                   g_sink = double(router->route(s.first, s.second,
                                                 gauges));
               }));
}

} // namespace perfbench
