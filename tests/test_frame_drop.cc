/** @file Unit tests for the Smart Frame Drop engine's 4 conditions. */

#include <gtest/gtest.h>

#include "core/frame_drop.h"
#include "test_util.h"

namespace dream {
namespace {

/** The evaluation's 20% drop-rate cap (the bound's window is a
 *  fixed 10 frames). */
constexpr double kMaxDropRate = 0.2;

TEST(FrameDrop, NoDropWhenEveryoneMeetsDeadlines)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toyModel());
    cb.addRequest(t, 0.0, 1e6);
    cb.addRequest(cb.addTask(test::toyModel("toy2")), 0.0, 1e6);
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(kMaxDropRate);
    EXPECT_FALSE(drop.selectDrop(cb.context(0.0), engine).has_value());
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
    EXPECT_FALSE(drop.selectDrop(cb.context(0.0), engine).has_value());
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
    ASSERT_TRUE(victim.has_value());
    // late2 is the heavier model: higher minToGo / slack ratio.
    EXPECT_EQ(*victim, r2->id);
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
    ASSERT_TRUE(victim.has_value());
    // The parent is not a leaf; only `other` may be dropped.
    EXPECT_EQ(*victim, ro->id);
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
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, r2->id);
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
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, r2->id);
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

} // namespace
} // namespace dream
