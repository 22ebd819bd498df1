/**
 * @file
 * The sim<->scheduler seam under scripted and rogue schedulers.
 *
 * The Plan contract (sim/scheduler.h) lets a scheduler drop any
 * queued frame that is not in flight, not only a ready head; the
 * first test drives that path, which no stock scheduler takes. The
 * second scripts one event of each kind that can move a task's head
 * and checks `ready` in the context that follows it. The rest hand
 * the simulator one invalid plan entry each: every one must be
 * rejected with a located std::logic_error before it is applied, in
 * Release builds too, instead of corrupting state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "test_util.h"
#include "workload/frame_source.h"

namespace dream {
namespace {

/** Hands every context to a callback and returns its plan. */
class ScriptedScheduler : public sim::Scheduler {
public:
    using Step = std::function<sim::Plan(const sim::SchedulerContext&)>;

    explicit ScriptedScheduler(Step step) : step_(std::move(step)) {}

    std::string name() const override { return "Scripted"; }

    sim::Plan plan(const sim::SchedulerContext& ctx) override
    {
        return step_(ctx);
    }

private:
    Step step_;
};

/** A plan that dispatches @p layers layers of request @p id. */
sim::Plan
dispatchOf(int id, size_t layers, int accel = 0, uint32_t slices = 0)
{
    sim::Plan p;
    p.dispatches.push_back({id, layers, accel, slices});
    return p;
}

/** A plan that drops requests @p ids, in order. */
sim::Plan
dropOf(std::initializer_list<int> ids)
{
    sim::Plan p;
    for (const int id : ids)
        p.drops.push_back({id});
    return p;
}

/** A plan that switches request @p id to @p variant. */
sim::Plan
switchOf(int id, int variant)
{
    sim::Plan p;
    p.switches.push_back({id, variant});
    return p;
}

/** Ids of @p reqs in ascending order. */
std::vector<int>
sortedIds(const std::vector<const sim::Request*>& reqs)
{
    std::vector<int> ids;
    for (const auto* r : reqs)
        ids.push_back(r->id);
    std::sort(ids.begin(), ids.end());
    return ids;
}

TEST(PlanContract, NonHeadDropKeepsHeadAndFifoOrder)
{
    test::SingleAccelFixture f;
    int dropped = -1;
    bool checked_next_context = false;
    std::vector<int> dispatched;
    ScriptedScheduler sched([&](const sim::SchedulerContext& ctx) {
        const std::vector<int> live = sortedIds(ctx.live);
        if (dropped < 0) {
            // Queue three frames of the one task, then drop the
            // middle one: it is neither in flight nor the head.
            if (live.size() < 3)
                return sim::Plan{};
            EXPECT_EQ(sortedIds(ctx.ready), std::vector<int>{live[0]});
            dropped = live[1];
            return dropOf({dropped});
        }
        if (!checked_next_context) {
            checked_next_context = true;
            EXPECT_EQ(live, (std::vector<int>{0, 2}));
            EXPECT_EQ(sortedIds(ctx.ready), std::vector<int>{0});
        }
        for (const int id : live)
            EXPECT_NE(id, dropped);
        if (ctx.ready.empty() || !ctx.accel(0).idle())
            return sim::Plan{};
        const sim::Request& head = *ctx.ready[0];
        dispatched.push_back(head.id);
        return dispatchOf(head.id, head.remainingLayers());
    });
    const auto stats = f.run(sched, 1e6);

    ASSERT_EQ(dropped, 1);
    EXPECT_TRUE(checked_next_context);
    // FIFO dispatch skips the dropped frame and keeps id order.
    ASSERT_GE(dispatched.size(), 3u);
    EXPECT_EQ(dispatched[0], 0);
    EXPECT_EQ(dispatched[1], 2);
    for (size_t i = 2; i < dispatched.size(); ++i)
        EXPECT_EQ(dispatched[i], dispatched[i - 1] + 1);

    // The dropped frame counts once, as dropped and violated.
    ASSERT_GT(stats.frames.size(), 2u);
    EXPECT_TRUE(stats.frames[1].dropped);
    EXPECT_TRUE(stats.frames[1].violated);
    EXPECT_TRUE(std::isnan(stats.frames[1].completionUs));
    const auto& ts = stats.tasks[0];
    EXPECT_EQ(ts.droppedFrames, 1u);
    uint64_t dropped_records = 0, violated_records = 0;
    for (const auto& fr : stats.frames) {
        dropped_records += fr.dropped ? 1 : 0;
        violated_records += fr.inWindow && fr.violated ? 1 : 0;
    }
    EXPECT_EQ(dropped_records, 1u);
    EXPECT_EQ(ts.violatedFrames, violated_records);
    EXPECT_EQ(ts.completedFrames + ts.droppedFrames, ts.totalFrames);
}

/** (task, frame) of each ready head, in context order. */
using Heads = std::vector<std::pair<int, int>>;

Heads
headsOf(const sim::SchedulerContext& ctx)
{
    Heads heads;
    for (const auto* r : ctx.ready)
        heads.emplace_back(r->task, r->frameIdx);
    return heads;
}

/** Request id of frame @p frame of task @p task; -1 if not live. */
int
liveId(const sim::SchedulerContext& ctx, int task, int frame)
{
    for (const auto* r : ctx.live) {
        if (r->task == task && r->frameIdx == frame)
            return r->id;
    }
    return -1;
}

TEST(PlanContract, ReadyFollowsEveryHeadChange)
{
    // Roots 0 and 1 arrive every 100 ms, task 0 offset by 1 ms. Task
    // 2 is task 0's cascade child, launched by every frame, and heavy
    // enough to outlast a task-0 frame that runs beside it.
    test::SingleAccelFixture f(test::toyModel("a"));
    f.scenario.tasks[0].startUs = 1e3;
    workload::TaskSpec b;
    b.model = test::toyModel("b");
    b.fps = 10.0;
    f.scenario.tasks.push_back(b);
    workload::TaskSpec c;
    c.model = test::toyModel("c", 4);
    c.fps = 10.0;
    c.dependsOn = 0;
    c.triggerProb = 1.0;
    f.scenario.tasks.push_back(c);
    f.costs->addModel(f.scenario.tasks[1].model);
    f.costs->addModel(f.scenario.tasks[2].model);

    using Step = ScriptedScheduler::Step;
    const auto dispatch = [](int task, int frame, size_t layers) -> Step {
        return [=](const sim::SchedulerContext& ctx) {
            return dispatchOf(liveId(ctx, task, frame), layers);
        };
    };
    const auto drop = [](int task, int frame) -> Step {
        return [=](const sim::SchedulerContext& ctx) {
            return dropOf({liveId(ctx, task, frame)});
        };
    };
    // Half the slices each, so both jobs run at once.
    const Step side_by_side = [](const sim::SchedulerContext& ctx) {
        sim::Plan p = dispatchOf(liveId(ctx, 0, 1), 3, 0, 2);
        p.dispatches.push_back({liveId(ctx, 2, 0), 3, 0, 2});
        return p;
    };

    // One line per plan call: the event the context follows (frames
    // are named task/frame), the heads it must list, and the plan
    // that causes the next event (none: an empty plan).
    struct Line {
        const char* after;
        Heads ready;
        Step plan;
    };
    const std::vector<Line> script = {
        {"1/0 is admitted", {{1, 0}}, nullptr},
        {"0/0 is admitted", {{0, 0}, {1, 0}}, dispatch(0, 0, 1)},
        {"head 0/0 is dispatched", {{1, 0}}, nullptr},
        {"a non-final layer of 0/0 completes", {{0, 0}, {1, 0}}, nullptr},
        {"1/1 is queued behind its head", {{0, 0}, {1, 0}}, nullptr},
        {"0/1 is queued behind its head", {{0, 0}, {1, 0}},
         dispatch(0, 0, 2)},
        {"0/0's last layers are dispatched", {{1, 0}}, nullptr},
        {"0/0 completes, 0/1 queued, child 2/0 admitted",
         {{0, 1}, {1, 0}, {2, 0}}, drop(1, 0)},
        {"head 1/0 is dropped, 1/1 queued", {{0, 1}, {1, 1}, {2, 0}},
         side_by_side},
        {"heads 0/1 and 2/0 are dispatched", {{1, 1}}, nullptr},
        {"0/1 completes, child 2/1 admitted behind running 2/0",
         {{1, 1}}, nullptr},
        {"2/0 completes, 2/1 queued", {{1, 1}, {2, 1}}, nullptr},
        {"1/2 is queued behind its head", {{1, 1}, {2, 1}}, drop(1, 2)},
        {"non-head 1/2 is dropped", {{1, 1}, {2, 1}}, nullptr},
    };

    size_t next = 0;
    bool derailed = false;
    ScriptedScheduler sched([&](const sim::SchedulerContext& ctx) {
        if (derailed || next == script.size())
            return sim::Plan{};
        const Line& line = script[next++];
        const Heads heads = headsOf(ctx);
        EXPECT_EQ(heads, line.ready)
            << "(task, frame) ready heads after line " << next << ", "
            << line.after << ", at t=" << ctx.nowUs << " us";
        // Off script, later lines would name frames that are not
        // where the script expects them.
        derailed = heads != line.ready;
        return derailed || !line.plan ? sim::Plan{} : line.plan(ctx);
    });
    f.run(sched, 3e5);
    EXPECT_EQ(next, script.size()) << "the run ended before the script";
}

/** What a run under @p step throws as std::logic_error ("" if none). */
std::string
rejection(test::SingleAccelFixture& f, ScriptedScheduler::Step step)
{
    ScriptedScheduler sched(std::move(step));
    try {
        f.run(sched, 1e6);
    } catch (const std::logic_error& e) {
        return e.what();
    }
    return "";
}

/** @p what names the plan entry, the request and the time. */
void
expectRejected(const std::string& what, const std::string& entry,
               const std::string& why)
{
    EXPECT_EQ(what.rfind("invalid plan: " + entry, 0), 0u) << what;
    EXPECT_NE(what.find(" at t="), std::string::npos) << what;
    EXPECT_NE(what.find(why), std::string::npos) << what;
}

/** Answers the first context that has a ready frame with @p plan of
 *  that frame, and every other context with an empty plan. */
ScriptedScheduler::Step
firstReady(std::function<sim::Plan(const sim::Request&)> plan)
{
    return [plan, done = false](const sim::SchedulerContext& ctx) mutable {
        if (done || ctx.ready.empty())
            return sim::Plan{};
        done = true;
        return plan(*ctx.ready[0]);
    };
}

TEST(PlanContract, RejectsOutOfRangeRequestIds)
{
    test::SingleAccelFixture f;
    const auto dispatch = [](const sim::Request&) {
        return dispatchOf(99, 1);
    };
    const auto drop = [](const sim::Request&) { return dropOf({-1}); };
    const auto next = [](const sim::Request& r) {
        return switchOf(r.id + 1, 0);
    };
    expectRejected(rejection(f, firstReady(dispatch)),
                   "dispatch of request 99 at t=",
                   "request id out of range");
    expectRejected(rejection(f, firstReady(drop)), "drop of request -1",
                   "request id out of range");
    expectRejected(rejection(f, firstReady(next)), "switch of request 1",
                   "request id out of range");
}

TEST(PlanContract, RejectsOutOfRangeAccelerator)
{
    test::SingleAccelFixture f;
    const auto elsewhere = [](const sim::Request& r) {
        return dispatchOf(r.id, 1, 1);
    };
    expectRejected(rejection(f, firstReady(elsewhere)),
                   "dispatch of request 0 (task 0, frame 0)",
                   "accelerator index 1 out of range (1 accelerators)");
}

TEST(PlanContract, RejectsEntriesOnInFlightFrames)
{
    test::SingleAccelFixture f;
    for (const bool drop : {false, true}) {
        // Dispatch the head's first layer, then name the head again
        // in the next round of the same event, while it runs.
        int round = 0;
        const auto step = [&](const sim::SchedulerContext& ctx) {
            if (round == 0 && !ctx.ready.empty()) {
                round = 1;
                return dispatchOf(ctx.ready[0]->id, 1);
            }
            if (round != 1)
                return sim::Plan{};
            round = 2;
            return drop ? dropOf({0}) : dispatchOf(0, 1);
        };
        expectRejected(rejection(f, step),
                       drop ? "drop of request 0" : "dispatch of request 0",
                       "the request is in flight");
    }
}

TEST(PlanContract, RejectsEntriesOnFinishedFrames)
{
    test::SingleAccelFixture f;
    // Dropped twice in one plan: the second entry sees the first.
    const auto twice = [](const sim::Request& r) {
        return dropOf({r.id, r.id});
    };
    expectRejected(rejection(f, firstReady(twice)), "drop of request 0",
                   "the request was already dropped");

    // Entries apply in order switches, drops, dispatches: a plan
    // that drops a frame and dispatches it fails at the dispatch.
    const auto both = [](const sim::Request& r) {
        sim::Plan p = dispatchOf(r.id, 1);
        p.drops = dropOf({r.id}).drops;
        return p;
    };
    expectRejected(rejection(f, firstReady(both)), "dispatch of request 0",
                   "the request was already dropped");

    // A completed frame is named again once its job has finished.
    int round = 0;
    const auto reuse = [&](const sim::SchedulerContext& ctx) {
        if (round == 0 && !ctx.ready.empty()) {
            round = 1;
            return dispatchOf(ctx.ready[0]->id, 3);
        }
        if (round != 1 || !ctx.accel(0).idle())
            return sim::Plan{};
        round = 2;
        return switchOf(0, 0);
    };
    expectRejected(rejection(f, reuse), "switch of request 0",
                   "the request already completed");
}

TEST(PlanContract, RejectsDispatchOutOfFifoOrder)
{
    test::SingleAccelFixture f;
    const auto second = [](const sim::SchedulerContext& ctx) {
        return ctx.live.size() == 2 ? dispatchOf(1, 1) : sim::Plan{};
    };
    expectRejected(rejection(f, second),
                   "dispatch of request 1 (task 0, frame 1)",
                   "per-task FIFO order: the head of its task's queue "
                   "is request 0");
}

TEST(PlanContract, RejectsBadLayerCount)
{
    test::SingleAccelFixture f;
    const auto none = [](const sim::Request& r) {
        return dispatchOf(r.id, 0);
    };
    const auto extra = [](const sim::Request& r) {
        return dispatchOf(r.id, 4);
    };
    expectRejected(rejection(f, firstReady(none)), "dispatch of request 0",
                   "layer count 0 out of range [1, 3]");
    expectRejected(rejection(f, firstReady(extra)),
                   "dispatch of request 0",
                   "layer count 4 out of range [1, 3]");
}

TEST(PlanContract, RejectsBadSliceCount)
{
    test::SingleAccelFixture f;
    const uint32_t slices = f.system.accelerators[0].numSlices;
    const auto wide = [=](const sim::Request& r) {
        return dispatchOf(r.id, 1, 0, slices + 1);
    };
    expectRejected(rejection(f, firstReady(wide)), "dispatch of request 0",
                   "slice count " + std::to_string(slices + 1) +
                       " out of range [1, " + std::to_string(slices) +
                       "] on accelerator 0");
}

TEST(PlanContract, RejectsSwitchOnPlainModel)
{
    test::SingleAccelFixture f;
    const auto light = [](const sim::Request& r) {
        return switchOf(r.id, 1);
    };
    expectRejected(rejection(f, firstReady(light)), "switch of request 0",
                   "the task's model is not a Supernet");
}

TEST(PlanContract, RejectsSwitchToUnknownVariant)
{
    test::SingleAccelFixture f(test::toySupernet());
    for (const int variant : {-1, 2}) {
        const auto bad = [=](const sim::Request& r) {
            return switchOf(r.id, variant);
        };
        expectRejected(rejection(f, firstReady(bad)),
                       "switch of request 0",
                       "variant " + std::to_string(variant) +
                           " out of range [0, 1]");
    }
}

TEST(PlanContract, RejectsSwitchPastSwitchPoint)
{
    // Two layers run (the switch point is 1), then the head switches.
    test::SingleAccelFixture f(test::toySupernet());
    int round = 0;
    const auto late = [&](const sim::SchedulerContext& ctx) {
        if (ctx.ready.empty())
            return sim::Plan{};
        const int id = ctx.ready[0]->id;
        return round++ == 0 ? dispatchOf(id, 2) : switchOf(id, 1);
    };
    expectRejected(rejection(f, late), "switch of request 0",
                   "next layer 2 is past the Supernet switch point 1");
}

TEST(PlanContract, RejectsSchedulerThatNeverConverges)
{
    // A valid switch is progress, so re-issuing it forever never
    // yields the empty plan that ends a scheduling event.
    test::SingleAccelFixture f(test::toySupernet());
    int calls = 0;
    const auto forever = [&](const sim::SchedulerContext& ctx) {
        ++calls;
        if (ctx.ready.empty())
            return sim::Plan{};
        return switchOf(ctx.ready[0]->id, 0);
    };
    const std::string what = rejection(f, forever);
    EXPECT_EQ(what.rfind("invalid plan: scheduler 'Scripted' returned "
                         "a non-empty plan in each of 1024 rounds at "
                         "t=",
                         0),
              0u)
        << what;
    EXPECT_EQ(calls, 1024);
}

/** Releases every cascade child 1 ms after its parent completed. */
class LateChildSource : public workload::ArrivalSource {
public:
    explicit LateChildSource(const workload::FrameSource& frames)
        : frames_(frames)
    {}

    std::vector<workload::FrameSpec>
    rootFrames(double window_us) const override
    {
        return frames_.rootFrames(window_us);
    }

    workload::FrameSpec
    childFrame(workload::TaskId child, int frame_idx,
               double parent_completion_us) const override
    {
        return frames_.childFrame(child, frame_idx,
                                  parent_completion_us + 1e3);
    }

private:
    const workload::FrameSource& frames_;
};

TEST(PlanContract, RejectsAdmissionBeforeArrival)
{
    // A frame is admitted only once it has arrived, so every live
    // frame is dispatchable as far as time goes.
    test::SingleAccelFixture f;
    workload::TaskSpec child;
    child.model = test::toyModel("child");
    child.fps = 10.0;
    child.dependsOn = 0;
    f.scenario.tasks.push_back(child);
    f.costs->addModel(f.scenario.tasks[1].model);
    const workload::FrameSource frames(f.scenario, 1);
    const LateChildSource late(frames);

    sim::SimConfig cfg;
    cfg.windowUs = 1e6;
    cfg.arrivals = &late;
    sim::Simulator simulator(f.system, f.scenario, *f.costs, cfg);
    ScriptedScheduler sched([](const sim::SchedulerContext& ctx) {
        if (ctx.ready.empty() || !ctx.accel(0).idle())
            return sim::Plan{};
        const sim::Request& head = *ctx.ready[0];
        return dispatchOf(head.id, head.remainingLayers());
    });
    try {
        simulator.run(sched);
        ADD_FAILURE() << "a child arriving after admission was queued";
    } catch (const std::logic_error& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("frame 0 of task 1 admitted at t=", 0), 0u)
            << what;
        EXPECT_NE(what.find("before its arrival"), std::string::npos)
            << what;
    }
}

} // namespace
} // namespace dream
