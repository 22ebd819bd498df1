#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "costmodel/layer_cost.h"
#include "obs/metrics.h"
#include "obs/trace_event.h"
#include "sim/context_switch.h"
#include "sim/cost_cache.h"

namespace dream {
namespace sim {

namespace {

/** Safety bound on scheduler invocations per event (progress guard). */
constexpr int kMaxPlanRounds = 1024;

/** Tolerance for floating error at the window boundary (us). */
constexpr double kWindowEpsilonUs = 1e-3;

/** True if a deadline falls inside the accounting window. */
bool
inWindow(double deadline_us, double window_us)
{
    return deadline_us <= window_us + kWindowEpsilonUs;
}

/** Virtual time for error messages: microseconds to the nanosecond. */
std::string
formatUs(double t_us)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.3f", t_us);
    return buf;
}

/** Histogram @p name of @p metrics, looked up once into @p handle. */
obs::LatencyHistogram&
cachedHistogram(obs::MetricsRegistry& metrics,
                obs::LatencyHistogram*& handle, const char* name)
{
    if (!handle)
        handle = &metrics.histogram(name);
    return *handle;
}

} // anonymous namespace

Simulator::Simulator(const hw::SystemConfig& system,
                     const workload::Scenario& scenario,
                     const cost::CostTable& costs, SimConfig config)
    : system_(system), scenario_(scenario), costs_(costs),
      config_(config)
{}

Request*
Simulator::headOfTask(workload::TaskId task)
{
    auto& q = taskQueues_[task];
    while (!q.empty() && requests_[q.front()]->finished())
        q.pop_front();
    if (q.empty())
        return nullptr;
    return requests_[q.front()].get();
}

void
Simulator::refreshReady(workload::TaskId task)
{
    // ctx_.ready holds at most one entry per task, in ascending task
    // order: the task's head when it is queued, not in flight.
    auto& ready = ctx_.ready;
    const auto it = std::lower_bound(
        ready.begin(), ready.end(), task,
        [](const Request* r, workload::TaskId t) { return r->task < t; });
    const bool listed = it != ready.end() && (*it)->task == task;
    const Request* head = headOfTask(task);
    if (head && !head->inFlight) {
        if (listed)
            *it = head;
        else
            ready.insert(it, head);
    } else if (listed) {
        ready.erase(it);
    }
}

void
Simulator::admitFrame(workload::FrameSpec&& spec)
{
    // Root frames are admitted at their arrival event; a cascade
    // child must arrive by its parent's completion. Every live frame
    // has therefore arrived, which is what lets ctx_.live and
    // ctx_.ready be kept incrementally instead of filtered by arrival
    // on every round.
    if (spec.arrivalUs > nowUs_ + 1e-9)
        throw std::logic_error(
            "frame " + std::to_string(spec.frameIdx) + " of task " +
            std::to_string(spec.task) + " admitted at t=" +
            formatUs(nowUs_) + " us before its arrival at " +
            formatUs(spec.arrivalUs) +
            " us (ArrivalSource::childFrame must release a child no "
            "later than its parent's completion)");
    auto req = std::make_unique<Request>();
    req->id = int(requests_.size());
    req->task = spec.task;
    req->frameIdx = spec.frameIdx;
    req->arrivalUs = spec.arrivalUs;
    req->deadlineUs = spec.deadlineUs;
    req->path = std::move(spec.path);
    req->lastEventUs = spec.arrivalUs;
    req->childTriggers = std::move(spec.childTriggers);

    // Scoring and dispatch read the shared resolution's rows; the
    // task's worst-case energy counts the materialised path's.
    shareResolution(*req);

    FrameRecord& fr = frames_.emplace_back();
    fr.task = spec.task;
    fr.frameIdx = spec.frameIdx;
    fr.arrivalUs = spec.arrivalUs;
    fr.deadlineUs = spec.deadlineUs;
    fr.inWindow = inWindow(spec.deadlineUs, config_.windowUs);
    if (fr.inWindow) {
        TaskStats& ts = stats_.tasks[spec.task];
        ts.totalFrames += 1;
        ts.worstCaseEnergyMj += req->resolution->worstCaseEnergyMj;
    }

    taskQueues_[spec.task].push_back(req->id);
    liveSlot_.push_back(ctx_.live.size());
    ctx_.live.push_back(req.get());

    if (config_.trace) {
        config_.trace->instant(
            framesTid_, "frame_arrival", "frame", nowUs_,
            obs::TraceArgs()
                .integer("task", spec.task)
                .integer("frame", spec.frameIdx)
                .num("arrival_us", spec.arrivalUs)
                .num("deadline_us", spec.deadlineUs));
    }

    requests_.push_back(std::move(req));
    refreshReady(spec.task);
}

void
Simulator::shareResolution(Request& req)
{
    // One table lookup per layer of each distinct path per run; every
    // later request on the path shares the resolution.
    auto& shared = resolutions_[req.path.id()];
    if (!shared)
        shared = resolve(req.path, costs_);
    req.resolution = shared;
}

const models::Path&
Simulator::variantPath(workload::TaskId task, int variant)
{
    auto& paths = variantPaths_[size_t(task)];
    if (paths.empty())
        paths.resize(scenario_.tasks[task].model.variants.size() + 1);
    models::Path& path = paths[size_t(variant)];
    if (path.empty())
        path = scenario_.tasks[task].model.variantPath(size_t(variant));
    return path;
}

void
Simulator::retire(Request& req)
{
    // O(1) swap-remove: the live set's order is unspecified.
    const size_t slot = liveSlot_[size_t(req.id)];
    assert(slot < ctx_.live.size() && ctx_.live[slot] == &req);
    const Request* moved = ctx_.live.back();
    ctx_.live[slot] = moved;
    liveSlot_[size_t(moved->id)] = slot;
    ctx_.live.pop_back();
    // Drop the per-layer handles: settle() reads only the request's
    // scalar fields, so what a finished frame retains does not grow
    // with its path length.
    req.path = models::Path();
    req.resolution.reset();
}

void
Simulator::settle(const Request& req)
{
    // The one place a frame's outcome is decided: at its completion,
    // at its drop, or, for a frame still live, at the window end.
    FrameRecord& fr = frames_[size_t(req.id)];
    fr.completionUs = req.completionUs;
    fr.dropped = req.dropped;
    // A frame unfinished at window end only counts as violated when
    // its deadline lay inside the window — an out-of-window frame cut
    // off mid-flight may still have met its deadline.
    fr.violated = req.dropped ||
                  (req.done && req.completionUs > req.deadlineUs) ||
                  (fr.inWindow && !req.finished());
    fr.variant = req.variant;
    fr.energyMj = req.energyMj;

    // Only in-window frames count; Supernet variant usage is tallied
    // over started frames.
    if (fr.inWindow) {
        TaskStats& ts = stats_.tasks[fr.task];
        if (fr.isCompleted()) {
            ts.completedFrames += 1;
            ts.sumLatencyUs += fr.completionUs - fr.arrivalUs;
        }
        ts.droppedFrames += fr.dropped;
        ts.violatedFrames += fr.violated;
        if (!ts.variantStarts.empty() && req.started())
            ts.variantStarts[size_t(fr.variant)] += 1;
    }

    // A frame still live at the window end leaves no exit event.
    if (!req.finished())
        return;
    if (config_.metrics && fr.isCompleted()) {
        cachedHistogram(*config_.metrics, latencyHist_,
                        "frame/latency_us")
            .record(fr.completionUs - fr.arrivalUs);
    }
    if (config_.trace && fr.dropped) {
        config_.trace->instant(framesTid_, "frame_drop", "frame", nowUs_,
                               obs::TraceArgs()
                                   .integer("task", fr.task)
                                   .integer("frame", fr.frameIdx)
                                   .num("deadline_us", fr.deadlineUs));
    } else if (config_.trace && fr.violated) {
        config_.trace->instant(
            framesTid_, "deadline_violation", "frame", nowUs_,
            obs::TraceArgs()
                .integer("task", fr.task)
                .integer("frame", fr.frameIdx)
                .num("deadline_us", fr.deadlineUs)
                .num("completion_us", fr.completionUs));
    }
    if (config_.outcomes)
        config_.outcomes->onFrameOutcome(nowUs_, fr);
}

void
Simulator::completeJob(const Job& job)
{
    Request& req = *requests_[job.requestId];
    AcceleratorState& acc = accels_[job.accel];

    assert(req.inFlight);
    req.inFlight = false;
    req.nextLayer = job.layerEnd;
    req.lastEventUs = job.endUs;

    acc.freeSlices += job.slices;
    assert(acc.freeSlices <= acc.config->numSlices);
    assert(acc.runningJobs > 0);
    acc.runningJobs -= 1;
    // Close the accelerator's busy interval when its last job ends:
    // accelBusyUs is the union of job intervals (co-located jobs
    // overlap), the same union dream_prof recomputes from job spans.
    if (acc.runningJobs == 0)
        stats_.accelBusyUs[job.accel] +=
            job.endUs - busyStartUs_[job.accel];

    // Record what this job leaves in the on-chip buffer: the input of
    // the request's next layer when unfinished, nothing otherwise.
    if (acc.residentRequestId == req.id) {
        if (req.nextLayer < req.path.size()) {
            const auto& next = req.path[req.nextLayer];
            acc.residentBytes =
                next.inputBytes() / std::max<uint32_t>(1, next.repeat);
        } else {
            acc.residentRequestId = -1;
            acc.residentBytes = 0;
        }
    }

    if (req.nextLayer < req.path.size()) {
        refreshReady(req.task);
        return;
    }

    // Frame complete.
    req.done = true;
    req.completionUs = job.endUs;
    retire(req);
    refreshReady(req.task);
    settle(req);

    // Launch dependent pipeline stages whose cascade gate fired.
    const auto children = scenario_.childrenOf(req.task);
    for (size_t i = 0; i < children.size(); ++i) {
        if (i < req.childTriggers.size() && req.childTriggers[i]) {
            admitFrame(source_->childFrame(children[i], req.frameIdx,
                                           req.completionUs));
        }
    }
}

Request&
Simulator::planRequest(const char* kind, int request_id)
{
    if (request_id < 0 || size_t(request_id) >= requests_.size())
        rejectPlan(kind, request_id,
                   "request id out of range (" +
                       std::to_string(requests_.size()) +
                       " frames admitted)");
    return *requests_[size_t(request_id)];
}

void
Simulator::checkQueued(const char* kind, const Request& req) const
{
    if (req.inFlight)
        rejectPlan(kind, req.id, "the request is in flight");
    if (req.done)
        rejectPlan(kind, req.id, "the request already completed");
    if (req.dropped)
        rejectPlan(kind, req.id, "the request was already dropped");
}

void
Simulator::rejectPlan(const char* kind, int request_id,
                      const std::string& why) const
{
    std::string what = std::string("invalid plan: ") + kind +
                       " of request " + std::to_string(request_id);
    if (request_id >= 0 && size_t(request_id) < requests_.size()) {
        const Request& req = *requests_[size_t(request_id)];
        what += " (task " + std::to_string(req.task) + ", frame " +
                std::to_string(req.frameIdx) + ")";
    }
    throw std::logic_error(what + " at t=" + formatUs(nowUs_) +
                           " us: " + why);
}

void
Simulator::applySwitch(const VariantSwitch& sw)
{
    Request& req = planRequest("switch", sw.requestId);
    const models::Model& model = scenario_.tasks[req.task].model;
    checkQueued("switch", req);
    if (!model.isSupernet())
        rejectPlan("switch", req.id, "the task's model is not a Supernet");
    if (req.nextLayer > model.supernetSwitchPoint)
        rejectPlan("switch", req.id,
                   "next layer " + std::to_string(req.nextLayer) +
                       " is past the Supernet switch point " +
                       std::to_string(model.supernetSwitchPoint));
    if (sw.variant < 0 || size_t(sw.variant) > model.variants.size())
        rejectPlan("switch", req.id,
                   "variant " + std::to_string(sw.variant) +
                       " out of range [0, " +
                       std::to_string(model.variants.size()) + "]");
    req.path = variantPath(req.task, sw.variant);
    req.variant = sw.variant;
    shareResolution(req);

    if (config_.trace) {
        config_.trace->instant(
            framesTid_, "variant_switch", "frame", nowUs_,
            obs::TraceArgs()
                .integer("task", req.task)
                .integer("frame", req.frameIdx)
                .integer("variant", sw.variant));
    }
}

void
Simulator::applyDrop(const FrameDrop& drop)
{
    Request& req = planRequest("drop", drop.requestId);
    checkQueued("drop", req);
    req.dropped = true;
    retire(req);
    refreshReady(req.task);
    // Dropping a frame suppresses its dependent stages: dependency-
    // chain condition 3 restricts drops to leaf models, but guard
    // regardless by clearing the triggers.
    req.childTriggers.assign(req.childTriggers.size(), 0);
    settle(req);
}

void
Simulator::applyDispatch(const Dispatch& d)
{
    Request& req = planRequest("dispatch", d.requestId);
    if (d.accel < 0 || size_t(d.accel) >= accels_.size())
        rejectPlan("dispatch", req.id,
                   "accelerator index " + std::to_string(d.accel) +
                       " out of range (" +
                       std::to_string(accels_.size()) +
                       " accelerators)");
    AcceleratorState& acc = accels_[size_t(d.accel)];
    const uint32_t slices =
        d.slices == 0 ? acc.config->numSlices : d.slices;

    checkQueued("dispatch", req);
    const Request* head = headOfTask(req.task);
    if (head != &req)
        rejectPlan("dispatch", req.id,
                   "per-task FIFO order: the head of its task's queue "
                   "is request " +
                       std::to_string(head->id));
    if (d.numLayers < 1 || d.numLayers > req.remainingLayers())
        rejectPlan("dispatch", req.id,
                   "layer count " + std::to_string(d.numLayers) +
                       " out of range [1, " +
                       std::to_string(req.remainingLayers()) + "]");
    if (slices < 1 || slices > acc.freeSlices)
        rejectPlan("dispatch", req.id,
                   "slice count " + std::to_string(slices) +
                       " out of range [1, " +
                       std::to_string(acc.freeSlices) +
                       "] on accelerator " + std::to_string(d.accel));

    Job job;
    job.requestId = req.id;
    job.layerBegin = req.nextLayer;
    job.layerEnd = req.nextLayer + d.numLayers;
    job.accel = d.accel;
    job.slices = slices;
    job.startUs = nowUs_;

    double latency_us = 0.0;
    double energy_mj = 0.0;
    const auto& rows = ensureCostCache(req, costs_).rows;
    for (size_t i = job.layerBegin; i < job.layerEnd; ++i) {
        const auto& c = rows[i].cost(size_t(d.accel), slices);
        latency_us += c.latencyUs;
        energy_mj += c.energyMj;
    }

    // Context switch: flush the resident activations of the previous
    // request, fetch this request's live activations (Section 3.4).
    const SwitchTraffic cs = switchTraffic(acc, req);
    double cs_latency_us = 0.0;
    if (cs.any()) {
        const double cs_energy =
            cost::contextSwitchEnergyMj(cs.flushBytes, cs.fetchBytes);
        energy_mj += cs_energy;
        cs_latency_us = cost::contextSwitchLatencyUs(cs.total(),
                                                     *acc.config,
                                                     slices);
        latency_us += cs_latency_us;
        stats_.contextSwitches += 1;
        stats_.contextSwitchEnergyMj += cs_energy;
    }

    job.endUs = nowUs_ + latency_us;
    req.inFlight = true;
    refreshReady(req.task);
    req.energyMj += energy_mj;
    stats_.tasks[req.task].energyMj += energy_mj;

    acc.freeSlices -= slices;
    // An idle accelerator turns busy: open its busy interval.
    if (acc.runningJobs == 0)
        busyStartUs_[d.accel] = nowUs_;
    acc.runningJobs += 1;
    acc.busyUntilUs = std::max(acc.busyUntilUs, job.endUs);
    acc.residentRequestId = req.id;

    // Queue wait: arrival to first layer dispatch.
    if (config_.metrics && job.layerBegin == 0) {
        cachedHistogram(*config_.metrics, queueWaitHist_,
                        "frame/queue_wait_us")
            .record(nowUs_ - req.arrivalUs);
    }
    if (config_.trace) {
        obs::TraceEventSink& trace = *config_.trace;
        obs::TraceArgs args;
        args.integer("task", req.task)
            .integer("frame", req.frameIdx)
            .integer("request", req.id)
            .str("layers", std::to_string(job.layerBegin) + ':' +
                               std::to_string(job.layerEnd))
            .integer("slices", (long long) slices);
        if (cs.any())
            args.num("cs_us", cs_latency_us);
        trace.span(d.accel, scenario_.tasks[req.task].model.name, "job",
                   nowUs_, latency_us, args);
        // The context-switch cost nests as a child span at the start
        // of the job it delays (emitted after the longer enclosing
        // span so same-ts slices nest correctly).
        if (cs.any()) {
            trace.span(d.accel, "context_switch", "cs", nowUs_,
                       cs_latency_us,
                       obs::TraceArgs()
                           .integer("flush_bytes",
                                    (long long) cs.flushBytes)
                           .integer("fetch_bytes",
                                    (long long) cs.fetchBytes));
        }
    }

    completions_.push(JobEvent{job.endUs, job});
}

bool
Simulator::applyPlan(const Plan& plan)
{
    // Arm the optional re-invocation timer. Contract (sim/scheduler.h):
    // only a strictly-future wake-up is honoured; stale (past or
    // present) wake-ups are dropped here, otherwise a scheduler that
    // keeps requesting one would pin virtual time and the event loop
    // would never reach the end of the window.
    // A wake-up equal to the earliest armed one is already armed:
    // equal times pop together at one event, so a scheduler that
    // repeats its request every round arms it once.
    if (plan.wakeUpUs > nowUs_ &&
        (wakeups_.empty() || plan.wakeUpUs != wakeups_.top()))
        wakeups_.push(plan.wakeUpUs);
    assert((wakeups_.empty() || wakeups_.top() > nowUs_) &&
           "stale wake-ups must never be armed");

    bool progress = false;
    for (const auto& sw : plan.switches) {
        applySwitch(sw);
        progress = true;
    }
    for (const auto& dr : plan.drops) {
        applyDrop(dr);
        progress = true;
    }
    for (const auto& d : plan.dispatches) {
        applyDispatch(d);
        progress = true;
    }
    return progress;
}

void
Simulator::invokeScheduler(Scheduler& sched)
{
    // Wall-clock decision timing is only taken when a trace or a
    // registry records it; the result is inherently host-dependent,
    // so it rides on the trace event (`wall_ns`) and a volatile
    // histogram — never in the canonical --metrics dump.
    const bool timed = config_.trace || config_.metrics;
    const auto t0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};

    int rounds = 0;
    bool converged = false;
    for (int round = 0; round < kMaxPlanRounds; ++round) {
        Plan plan = sched.plan(ctx_);
        stats_.schedulerInvocations += 1;
        ++rounds;
        if (!applyPlan(plan)) {
            converged = true;
            break;
        }
    }
    if (!converged)
        throw std::logic_error(
            "invalid plan: scheduler '" + sched.name() +
            "' returned a non-empty plan in each of " +
            std::to_string(kMaxPlanRounds) + " rounds at t=" +
            formatUs(nowUs_) + " us (it must converge to an empty plan)");

    if (!timed)
        return;
    const double wall_ns =
        double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - t0)
                   .count());
    if (config_.metrics) {
        cachedHistogram(*config_.metrics, planRoundsHist_,
                        "sched/plan_rounds")
            .record(double(rounds));
        if (!decisionWallHist_)
            config_.metrics->markVolatile("sched/decision_wall_ns");
        cachedHistogram(*config_.metrics, decisionWallHist_,
                        "sched/decision_wall_ns")
            .record(wall_ns);
    }
    if (config_.trace) {
        config_.trace->span(schedTid_, "schedule", "sched", nowUs_, 0.0,
                            obs::TraceArgs()
                                .integer("rounds", rounds)
                                .num("wall_ns", wall_ns));
    }
}

RunStats
Simulator::run(Scheduler& sched)
{
    beginStream(sched);
    for (auto& spec :
         workload::rootFramesByArrival(*source_, config_.windowUs))
        offerArrival(std::move(spec));
    return finishStream();
}

void
Simulator::beginStream(Scheduler& sched)
{
    // Reset per-run state.
    requests_.clear();
    resolutions_.clear();
    variantPaths_.assign(scenario_.tasks.size(), {});
    taskQueues_.assign(scenario_.tasks.size(), {});
    liveSlot_.clear();
    ctx_.live.clear();
    ctx_.ready.clear();
    accels_.clear();
    for (const auto& cfg : system_.accelerators) {
        AcceleratorState st;
        st.config = &cfg;
        st.freeSlices = cfg.numSlices;
        accels_.push_back(st);
    }
    completions_ = {};
    wakeups_ = {};
    nowUs_ = 0.0;
    stats_ = RunStats{};
    frames_.clear();
    stats_.windowUs = config_.windowUs;
    stats_.accelBusyUs.assign(accels_.size(), 0.0);
    busyStartUs_.assign(accels_.size(), 0.0);
    schedTid_ = int64_t(accels_.size());
    framesTid_ = schedTid_ + 1;
    planRoundsHist_ = decisionWallHist_ = nullptr;
    latencyHist_ = queueWaitHist_ = nullptr;
    stats_.tasks.resize(scenario_.tasks.size());
    for (size_t t = 0; t < scenario_.tasks.size(); ++t) {
        stats_.tasks[t].model = scenario_.tasks[t].model.name;
        const auto& m = scenario_.tasks[t].model;
        if (m.isSupernet())
            stats_.tasks[t].variantStarts.assign(m.variants.size() + 1,
                                                 0);
    }

    if (config_.arrivals) {
        ownedSource_.reset();
        source_ = config_.arrivals;
    } else {
        ownedSource_ = std::make_unique<workload::FrameSource>(
            scenario_, config_.seed);
        source_ = ownedSource_.get();
    }
    if (config_.trace) {
        // Track naming: tid 0..N-1 = accelerators (paired with the
        // Table 2 config name), then the scheduler and the frame-
        // lifecycle instants. dream_prof keys its utilization table
        // off the "accel" prefix.
        obs::TraceEventSink& trace = *config_.trace;
        for (size_t i = 0; i < accels_.size(); ++i)
            trace.threadName(int64_t(i),
                             "accel" + std::to_string(i) + ' ' +
                                 accels_[i].config->name);
        trace.threadName(schedTid_, "scheduler");
        trace.threadName(framesTid_, "frames");
    }

    pendingArrivals_.clear();
    streamSched_ = &sched;
    streaming_ = true;

    // The context's bindings are fixed for the stream; from here on
    // the events keep its clock, live set and ready heads current.
    ctx_.nowUs = nowUs_;
    ctx_.windowUs = config_.windowUs;
    ctx_.system = &system_;
    ctx_.costs = &costs_;
    ctx_.scenario = &scenario_;
    ctx_.accels = &accels_;
    ctx_.stats = &stats_;
    sched.reset(ctx_);
}

void
Simulator::offerArrival(workload::FrameSpec spec)
{
    assert(streaming_ && "offerArrival outside a stream");
    if (!pendingArrivals_.empty() &&
        spec.arrivalUs < pendingArrivals_.back().arrivalUs)
        throw std::invalid_argument(
            "stream arrivals must be offered in nondecreasing "
            "arrival order");
    if (spec.arrivalUs < nowUs_ - 1e-9)
        throw std::invalid_argument(
            "stream arrival offered behind the stream clock");
    pendingArrivals_.push_back(std::move(spec));
}

void
Simulator::advanceTo(double limit_us)
{
    assert(streaming_ && "advanceTo outside a stream");
    const double limit = std::min(limit_us, config_.windowUs);
    // With limit == windowUs this is exactly run()'s event loop: the
    // break test `t >= limit` degenerates to `t >= windowUs`, so a
    // stream that offers every arrival before advancing past it
    // replays the offline run event-for-event.
    while (true) {
        double t = config_.windowUs;
        if (!pendingArrivals_.empty())
            t = std::min(t, pendingArrivals_.front().arrivalUs);
        if (!completions_.empty())
            t = std::min(t, completions_.top().endUs);
        if (!wakeups_.empty())
            t = std::min(t, wakeups_.top());
        if (t >= limit)
            break;

        nowUs_ = t;
        ctx_.nowUs = t;
        while (!completions_.empty() &&
               completions_.top().endUs <= nowUs_ + 1e-9) {
            const Job job = completions_.top().job;
            completions_.pop();
            completeJob(job);
        }
        while (!pendingArrivals_.empty() &&
               pendingArrivals_.front().arrivalUs <= nowUs_ + 1e-9) {
            admitFrame(std::move(pendingArrivals_.front()));
            pendingArrivals_.pop_front();
        }
        while (!wakeups_.empty() && wakeups_.top() <= nowUs_ + 1e-9)
            wakeups_.pop();

        invokeScheduler(*streamSched_);
    }
}

RunStats
Simulator::finishStream()
{
    // Idempotent: a finished stream just returns its stats again, so
    // N-device serve loops may be finalized defensively in any order.
    if (!streaming_)
        return stats_;
    advanceTo(config_.windowUs);
    finalizeStats();
    streaming_ = false;
    streamSched_ = nullptr;
    return stats_;
}

void
Simulator::finalizeStats()
{
    // Close busy intervals still open at window end (jobs running
    // past the window count up to the window boundary, so
    // utilization = busy / window stays <= 1).
    for (size_t i = 0; i < accels_.size(); ++i) {
        if (accels_[i].runningJobs > 0)
            stats_.accelBusyUs[i] +=
                config_.windowUs - busyStartUs_[i];
        stats_.accelBusyUs[i] =
            std::min(stats_.accelBusyUs[i], config_.windowUs);
    }

    // Every finished frame has settled; the ones still live settle
    // now (in any order: settling a live frame only fills its record
    // and tallies counts). Every admitted frame is recorded, in
    // admission order — frames whose deadline falls beyond the window
    // (inWindow == false) still contended for accelerator time, and a
    // trace that omitted them could not be replayed faithfully.
    for (const Request* req : ctx_.live)
        settle(*req);
    stats_.frames = std::move(frames_);

    // End-of-run metrics: deterministic sim-time aggregates only
    // (everything here derives from RunStats, which is byte-identical
    // for any worker count).
    if (config_.metrics) {
        obs::MetricsRegistry& m = *config_.metrics;
        uint64_t total = 0, completed = 0, violated = 0, dropped = 0;
        for (const auto& ts : stats_.tasks) {
            total += ts.totalFrames;
            completed += ts.completedFrames;
            violated += ts.violatedFrames;
            dropped += ts.droppedFrames;
        }
        m.count("frames/total", total);
        m.count("frames/completed", completed);
        m.count("frames/violated", violated);
        m.count("frames/dropped", dropped);
        m.count("frames/admitted", requests_.size());
        m.count("sim/context_switches", stats_.contextSwitches);
        m.count("sched/invocations", stats_.schedulerInvocations);
        m.gaugeAdd("sim/window_us", config_.windowUs);
        m.gaugeAdd("sim/energy_mj", stats_.totalEnergyMj());
        for (size_t i = 0; i < accels_.size(); ++i) {
            const std::string prefix =
                "accel/" + std::to_string(i) + '/';
            m.gaugeAdd(prefix + "busy_us", stats_.accelBusyUs[i]);
            m.gaugeAdd(prefix + "idle_us",
                       config_.windowUs - stats_.accelBusyUs[i]);
        }
    }
}

} // namespace sim
} // namespace dream
