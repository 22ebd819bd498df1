/** @file Unit tests for the Smart Frame Drop engine's 4 conditions. */

#include <gtest/gtest.h>

#include <random>

#include "core/frame_drop.h"
#include "test_util.h"

namespace dream {
namespace {

/** The evaluation's 20% drop-rate cap (the bound's window is a
 *  fixed 10 frames). */
constexpr double kMaxDropRate = 0.2;

/**
 * SmartDrop in Section 4.2's order, over the engine's own condition
 * helpers: condition 2 over every live frame, then conditions 1, 3
 * and 4 over the ready heads; the worst minimum_to_go / slack ratio
 * is dropped, the first head winning a tie.
 */
const sim::Request*
referenceDrop(const sim::SchedulerContext& ctx,
              const core::MapScoreEngine& scores,
              const core::FrameDropEngine& drop)
{
    int violators = 0;
    for (const sim::Request* req : ctx.live)
        violators += drop.expectedViolation(ctx, scores, *req);
    if (violators < 2)
        return nullptr;
    const sim::Request* victim = nullptr;
    double worst_ratio = 0.0;
    for (const sim::Request* req : ctx.ready) {
        if (!drop.expectedViolation(ctx, scores, *req) ||
            !ctx.scenario->isLeaf(req->task) ||
            !drop.dropBudgetAvailable(ctx, req->task))
            continue;
        const double slack = std::max(req->deadlineUs - ctx.nowUs, 1.0);
        const double ratio = scores.minToGoBestVariantUs(ctx, *req) / slack;
        if (ratio > worst_ratio) {
            worst_ratio = ratio;
            victim = req;
        }
    }
    return victim;
}

TEST(FrameDrop, NoDropWhenEveryoneMeetsDeadlines)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toyModel());
    cb.addRequest(t, 0.0, 1e6);
    cb.addRequest(cb.addTask(test::toyModel("toy2")), 0.0, 1e6);
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(kMaxDropRate);
    EXPECT_EQ(drop.selectDrop(cb.context(0.0), engine), nullptr);
}

TEST(FrameDrop, Condition2NoDropForSingleViolation)
{
    test::ContextBuilder cb;
    const auto t1 = cb.addTask(test::toyModel("doomed"));
    const auto t2 = cb.addTask(test::toyModel("fine"));
    cb.addRequest(t1, 0.0, 1.0); // hopeless deadline
    cb.addRequest(t2, 0.0, 1e6);
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(kMaxDropRate);
    // Only one expected violation: dropping would be redundant.
    EXPECT_EQ(drop.selectDrop(cb.context(0.0), engine), nullptr);
}

TEST(FrameDrop, DropsWorstRatioWhenMultipleViolations)
{
    test::ContextBuilder cb;
    const auto t1 = cb.addTask(test::toyModel("late1"));
    const auto t2 = cb.addTask(test::toyModel("late2", 2));
    auto* r1 = cb.addRequest(t1, 0.0, 2000.0);
    auto* r2 = cb.addRequest(t2, 0.0, 2000.0);
    (void)r1;
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(kMaxDropRate);
    const auto victim = drop.selectDrop(cb.context(1900.0), engine);
    ASSERT_NE(victim, nullptr);
    // late2 is the heavier model: higher minToGo / slack ratio.
    EXPECT_EQ(victim, r2);
}

TEST(FrameDrop, Condition3OnlyLeavesDroppable)
{
    test::ContextBuilder cb;
    const auto parent = cb.addTask(test::toyModel("parent", 2));
    const auto child =
        cb.addTask(test::toyModel("child", 2), 30.0, parent);
    (void)child;
    auto* rp = cb.addRequest(parent, 0.0, 100.0);
    // A second doomed frame so condition 2 passes.
    const auto other = cb.addTask(test::toyModel("other", 2));
    auto* ro = cb.addRequest(other, 0.0, 100.0);
    (void)rp;
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(kMaxDropRate);
    const auto victim = drop.selectDrop(cb.context(50.0), engine);
    ASSERT_NE(victim, nullptr);
    // The parent is not a leaf; only `other` may be dropped.
    EXPECT_EQ(victim, ro);
}

TEST(FrameDrop, Condition4BudgetCapsDropRate)
{
    test::ContextBuilder cb;
    const auto t1 = cb.addTask(test::toyModel("a", 2));
    const auto t2 = cb.addTask(test::toyModel("b", 2));
    cb.addRequest(t1, 0.0, 100.0);
    auto* r2 = cb.addRequest(t2, 0.0, 100.0);
    // Task t1 already at the cap: 2 drops in 10 finished frames.
    cb.stats().tasks[size_t(t1)].droppedFrames = 2;
    cb.stats().tasks[size_t(t1)].completedFrames = 8;
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(kMaxDropRate);
    ASSERT_FALSE(
        drop.dropBudgetAvailable(cb.context(50.0), t1));
    EXPECT_TRUE(drop.dropBudgetAvailable(cb.context(50.0), t2));
    const auto victim = drop.selectDrop(cb.context(50.0), engine);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim, r2);
}

TEST(FrameDrop, InFlightFramesAreNotDroppable)
{
    test::ContextBuilder cb;
    const auto t1 = cb.addTask(test::toyModel("a", 2));
    const auto t2 = cb.addTask(test::toyModel("b", 2));
    auto* r1 = cb.addRequest(t1, 0.0, 100.0);
    auto* r2 = cb.addRequest(t2, 0.0, 100.0);
    r1->inFlight = true; // running: cannot be pre-empted/dropped
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(kMaxDropRate);
    const auto victim = drop.selectDrop(cb.context(50.0), engine);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim, r2);
}

TEST(FrameDrop, ExpectedViolationUsesBestVariant)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toySupernet());
    auto* req = cb.addRequest(t, 0.0, 0.0);
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(kMaxDropRate);
    // Pick a deadline between the light and heavy variants' minToGo:
    // the frame must NOT count as an expected violation because
    // switching can still save it.
    auto& ctx = cb.context(0.0);
    const double heavy = engine.minToGoUs(ctx, *req);
    const double best = engine.minToGoBestVariantUs(ctx, *req);
    ASSERT_LT(best, heavy);
    req->deadlineUs = (best + heavy) / 2.0;
    EXPECT_FALSE(drop.expectedViolation(ctx, engine, *req));
    req->deadlineUs = best / 2.0;
    EXPECT_TRUE(drop.expectedViolation(ctx, engine, *req));
}

TEST(FrameDrop, MatchesFourConditionReference)
{
    constexpr double kNowUs = 5000.0;
    int drops = 0;
    int cond2_vetoes = 0;
    int ties = 0;
    for (uint32_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937 rng(seed);
        auto uniform = [&](double lo, double hi) {
            return std::uniform_real_distribution<double>(lo, hi)(rng);
        };
        auto pick = [&](int lo, int hi) {
            return std::uniform_int_distribution<int>(lo, hi)(rng);
        };

        // 2-6 tasks; the Supernet is one of them, and a later task
        // may chain onto an earlier one, which is then no leaf.
        test::ContextBuilder cb;
        const int num_tasks = pick(2, 6);
        const int supernet = pick(0, num_tasks - 1);
        for (int t = 0; t < num_tasks; ++t) {
            workload::TaskId parent = workload::kNoParent;
            if (t > 0 && pick(0, 2) == 0)
                parent = workload::TaskId(pick(0, t - 1));
            const std::string name(1, char('a' + t));
            const auto scale = uint32_t(pick(1, 3));
            cb.addTask(t == supernet ? test::toySupernet()
                                     : test::toyModel(name, scale),
                       30.0, parent);
            // Completed/dropped counts on both sides of the budget.
            auto& ts = cb.stats().tasks.back();
            ts.completedFrames = uint64_t(pick(0, 20));
            ts.droppedFrames = uint64_t(pick(0, 5));
        }

        // 1-3 frames per task at a random next layer, deadlines
        // drawn around their to-go (some already past; a context's
        // laxity sets how many are met), some in flight, and now and
        // then an exact copy of the previous frame, so two heads tie
        // on the ratio.
        core::MapScoreEngine engine(1.0, 1.0);
        const double laxity = uniform(1.5, 6.0);
        std::vector<sim::Request*> reqs;
        for (int t = 0; t < num_tasks; ++t) {
            const int frames = pick(1, 3);
            for (int f = 0; f < frames; ++f) {
                auto* req = cb.addRequest(workload::TaskId(t), 0.0, 0.0);
                if (f > 0 && pick(0, 4) == 0) {
                    req->nextLayer = reqs.back()->nextLayer;
                    req->deadlineUs = reqs.back()->deadlineUs;
                } else {
                    req->nextLayer = size_t(pick(0, 2));
                    const double to_go = engine.minToGoBestVariantUs(
                        cb.context(kNowUs), *req);
                    req->deadlineUs =
                        kNowUs + to_go * uniform(-0.5, laxity);
                }
                req->inFlight = pick(0, 3) == 0;
                reqs.push_back(req);
            }
        }

        const auto& ctx = cb.context(kNowUs);
        core::FrameDropEngine drop(kMaxDropRate);
        const auto want = referenceDrop(ctx, engine, drop);
        EXPECT_EQ(drop.selectDrop(ctx, engine), want);

        // Tally what the draw covered.
        drops += want != nullptr;
        int violators = 0;
        bool candidate = false;
        for (const sim::Request* req : ctx.live)
            violators += drop.expectedViolation(ctx, engine, *req);
        for (const sim::Request* req : ctx.ready) {
            candidate = candidate ||
                        (drop.expectedViolation(ctx, engine, *req) &&
                         ctx.scenario->isLeaf(req->task) &&
                         drop.dropBudgetAvailable(ctx, req->task));
        }
        cond2_vetoes += candidate && violators < 2;
        for (size_t i = 1; i < reqs.size(); ++i) {
            ties += !reqs[i]->inFlight && !reqs[i - 1]->inFlight &&
                    reqs[i]->task == reqs[i - 1]->task &&
                    reqs[i]->deadlineUs == reqs[i - 1]->deadlineUs &&
                    drop.expectedViolation(ctx, engine, *reqs[i]);
        }
    }
    // The draw reaches every outcome: drops, no drops, condition 2
    // alone vetoing a candidate, and tied candidates.
    EXPECT_GE(drops, 20);
    EXPECT_LE(drops, 180);
    EXPECT_GE(cond2_vetoes, 5);
    EXPECT_GE(ties, 5);
}

TEST(FrameDrop, NoDropWhenEveryReadyViolatorIsOutOfBudget)
{
    test::ContextBuilder cb;
    const auto capped = cb.addTask(test::toyModel("capped", 2));
    const auto running = cb.addTask(test::toyModel("running", 2));
    cb.addRequest(capped, 0.0, 100.0);
    cb.addRequest(running, 0.0, 100.0)->inFlight = true;
    // Two live violators, but the only ready one is at its cap.
    cb.stats().tasks[size_t(capped)].droppedFrames = 2;
    cb.stats().tasks[size_t(capped)].completedFrames = 8;
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(kMaxDropRate);
    const auto& ctx = cb.context(50.0);
    ASSERT_EQ(ctx.live.size(), 2u);
    for (const sim::Request* req : ctx.live)
        ASSERT_TRUE(drop.expectedViolation(ctx, engine, *req));
    EXPECT_EQ(drop.selectDrop(ctx, engine), nullptr);
}

TEST(FrameDrop, NoDropForTheOnlyLiveViolator)
{
    test::ContextBuilder cb;
    const auto doomed = cb.addTask(test::toyModel("doomed", 2));
    const auto fine = cb.addTask(test::toyModel("fine"));
    const auto busy = cb.addTask(test::toyModel("busy"));
    auto* head = cb.addRequest(doomed, 0.0, 100.0);
    cb.addRequest(fine, 0.0, 1e6);
    cb.addRequest(busy, 0.0, 1e6)->inFlight = true;
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(kMaxDropRate);
    const auto& ctx = cb.context(50.0);
    // The head passes conditions 1, 3 and 4 ...
    ASSERT_TRUE(drop.expectedViolation(ctx, engine, *head));
    ASSERT_TRUE(ctx.scenario->isLeaf(doomed));
    ASSERT_TRUE(drop.dropBudgetAvailable(ctx, doomed));
    // ... but no other live frame is expected to violate.
    EXPECT_EQ(drop.selectDrop(ctx, engine), nullptr);
}

} // namespace
} // namespace dream
