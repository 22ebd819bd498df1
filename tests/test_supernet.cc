/** @file Unit tests for the Supernet switching engine. */

#include <gtest/gtest.h>

#include "core/supernet_switch.h"
#include "test_util.h"

namespace dream {
namespace {

TEST(Supernet, KeepsOriginalWhenRelaxed)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toySupernet());
    auto* req = cb.addRequest(t, 0.0, 1e6);
    core::MapScoreEngine engine(1.0, 1.0);
    const core::SupernetSwitchEngine sw{};
    // Huge slack, idle system: stay on the Original subnet.
    EXPECT_FALSE(
        sw.chooseVariant(cb.context(0.0), engine, *req).has_value());
}

TEST(Supernet, SwitchesLighterWhenSlackTight)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toySupernet());
    auto* req = cb.addRequest(t, 0.0, 0.0);
    core::MapScoreEngine engine(1.0, 1.0);
    const core::SupernetSwitchEngine sw{};
    auto& ctx = cb.context(0.0);
    const double heavy = engine.minToGoUs(ctx, *req);
    req->deadlineUs = heavy * 0.5; // heavy cannot finish in time
    const auto variant = sw.chooseVariant(ctx, engine, *req);
    ASSERT_TRUE(variant.has_value());
    EXPECT_GT(*variant, 0);
}

TEST(Supernet, SwitchesLighterUnderBacklog)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toySupernet());
    auto* req = cb.addRequest(t, 0.0, 0.0);
    core::MapScoreEngine engine(1.0, 1.0);
    const core::SupernetSwitchEngine sw{};
    auto& ctx = cb.context(0.0);
    const double heavy = engine.minToGoUs(ctx, *req);
    req->deadlineUs = heavy * 1.5; // fits when the system is idle
    EXPECT_FALSE(sw.chooseVariant(ctx, engine, *req).has_value());
    // Pile committed work onto both accelerators: the expected
    // queueing delay eats the slack and a lighter subnet deploys.
    cb.accels()[0].runningJobs = 1;
    cb.accels()[0].freeSlices = 0;
    cb.accels()[0].busyUntilUs = ctx.nowUs + heavy * 4.0;
    cb.accels()[1].runningJobs = 1;
    cb.accels()[1].freeSlices = 0;
    cb.accels()[1].busyUntilUs = ctx.nowUs + heavy * 4.0;
    const auto variant = sw.chooseVariant(ctx, engine, *req);
    ASSERT_TRUE(variant.has_value());
    EXPECT_GT(*variant, 0);
}

TEST(Supernet, NoSwitchPastSwitchPoint)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toySupernet());
    auto* req = cb.addRequest(t, 0.0, 1.0); // hopeless
    req->nextLayer =
        cb.scenario().tasks[t].model.supernetSwitchPoint + 1;
    core::MapScoreEngine engine(1.0, 1.0);
    const core::SupernetSwitchEngine sw{};
    EXPECT_FALSE(
        sw.chooseVariant(cb.context(0.0), engine, *req).has_value());
}

TEST(Supernet, NonSupernetModelsAreIgnored)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toyModel());
    auto* req = cb.addRequest(t, 0.0, 1.0);
    core::MapScoreEngine engine(1.0, 1.0);
    const core::SupernetSwitchEngine sw{};
    EXPECT_FALSE(
        sw.chooseVariant(cb.context(0.0), engine, *req).has_value());
}

} // namespace
} // namespace dream
