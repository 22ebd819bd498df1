/** @file Unit tests for the MapScore engine (Algorithm 1). */

#include <cmath>

#include <gtest/gtest.h>

#include "core/mapscore.h"
#include "test_util.h"

namespace dream {
namespace {

TEST(MapScore, UrgencyGrowsAsSlackShrinks)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toyModel());
    auto* relaxed = cb.addRequest(t, 0.0, 50000.0);
    auto* urgent = cb.addRequest(t, 0.0, 5000.0);
    auto& ctx = cb.context(0.0);
    core::MapScoreEngine engine(1.0, 1.0);
    const auto s_relaxed = engine.score(ctx, *relaxed, 0);
    const auto s_urgent = engine.score(ctx, *urgent, 0);
    EXPECT_GT(s_urgent.urgency, s_relaxed.urgency);
}

TEST(MapScore, UrgencySaturatesWhenOverdue)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toyModel());
    auto* overdue = cb.addRequest(t, 0.0, 100.0);
    auto& ctx = cb.context(10000.0); // way past the deadline
    core::MapScoreEngine engine(1.0, 1.0);
    const auto s = engine.score(ctx, *overdue, 0);
    EXPECT_TRUE(std::isfinite(s.urgency));
    EXPECT_GT(s.urgency, 0.0);
}

TEST(MapScore, LatencyPreferenceFavoursFasterAccelerator)
{
    test::ContextBuilder cb;
    models::Model m;
    m.name = "fc-heavy";
    m.layers.push_back(models::rnn("lstm", 2048, 4096, 16));
    const auto t = cb.addTask(std::move(m));
    auto* req = cb.addRequest(t, 0.0, 1e5);
    auto& ctx = cb.context(0.0);
    core::MapScoreEngine engine(1.0, 1.0);
    // Accelerator 0 is WS (faster for RNN), 1 is OS.
    const auto s_ws = engine.score(ctx, *req, 0);
    const auto s_os = engine.score(ctx, *req, 1);
    EXPECT_GT(s_ws.latPref, s_os.latPref);
    // latPref is the inverse latency significance: sum/lat.
    const auto& next = req->path[0];
    EXPECT_DOUBLE_EQ(s_ws.latPref,
                     cb.costs().view(next).agg().sumLatencyUs /
                         cb.costs().cost(next, 0).latencyUs);
}

TEST(MapScore, StarvationGrowsWithQueueTime)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toyModel());
    auto* req = cb.addRequest(t, 0.0, 1e6);
    core::MapScoreEngine engine(1.0, 1.0);
    const auto s_fresh = engine.score(cb.context(0.0), *req, 0);
    const auto s_waited = engine.score(cb.context(20000.0), *req, 0);
    EXPECT_DOUBLE_EQ(s_fresh.starvation, 0.0);
    EXPECT_GT(s_waited.starvation, 0.0);
}

TEST(MapScore, StarvationPrefersLightLayers)
{
    // Same wait time: the lighter next layer starves faster.
    test::ContextBuilder cb;
    models::Model heavy;
    heavy.name = "heavy";
    heavy.layers.push_back(models::conv("h", 112, 112, 64, 128, 3, 1));
    models::Model light;
    light.name = "light";
    light.layers.push_back(models::fc("l", 64, 64));
    const auto th = cb.addTask(std::move(heavy));
    const auto tl = cb.addTask(std::move(light));
    auto* rh = cb.addRequest(th, 0.0, 1e6);
    auto* rl = cb.addRequest(tl, 0.0, 1e6);
    auto& ctx = cb.context(10000.0);
    core::MapScoreEngine engine(1.0, 1.0);
    EXPECT_GT(engine.score(ctx, *rl, 0).starvation,
              engine.score(ctx, *rh, 0).starvation);
}

TEST(MapScore, SwitchCostZeroWhenResident)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toyModel());
    auto* req = cb.addRequest(t, 0.0, 1e6);
    req->nextLayer = 1; // mid-model
    auto& ctx = cb.context(0.0);
    // Mark the request resident on accelerator 0.
    cb.accels()[0].residentRequestId = req->id;
    core::MapScoreEngine engine(1.0, 1.0);
    EXPECT_DOUBLE_EQ(engine.score(ctx, *req, 0).costSwitch, 0.0);
    // On the other accelerator its activations must be fetched.
    EXPECT_GT(engine.score(ctx, *req, 1).costSwitch, 0.0);
}

TEST(MapScore, AlphaBetaScaleTheirTerms)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toyModel());
    auto* req = cb.addRequest(t, 0.0, 1e5);
    auto& ctx = cb.context(5000.0); // some queue time accrued
    core::MapScoreEngine base(0.0, 0.0);
    core::MapScoreEngine alpha(2.0, 0.0);
    core::MapScoreEngine beta(0.0, 2.0);
    const auto s0 = base.score(ctx, *req, 0);
    const auto sa = alpha.score(ctx, *req, 0);
    const auto sb = beta.score(ctx, *req, 0);
    EXPECT_DOUBLE_EQ(s0.mapScore, s0.urgency * s0.latPref);
    EXPECT_NEAR(sa.mapScore - s0.mapScore, 2.0 * sa.starvation, 1e-9);
    EXPECT_NEAR(sb.mapScore - s0.mapScore, 2.0 * sb.energy, 1e-9);
}

TEST(MapScore, ToGoIsAverageAcrossAccelerators)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toyModel());
    auto* req = cb.addRequest(t, 0.0, 1e6);
    auto& ctx = cb.context(0.0);
    core::MapScoreEngine engine(1.0, 1.0);
    double expected = 0.0;
    for (const auto& l : req->path)
        expected += cb.costs().avgLatencyUs(l);
    EXPECT_NEAR(engine.score(ctx, *req, 0).toGoUs, expected, 1e-9);
}

TEST(MapScore, MinToGoUsesBestAcceleratorPerLayer)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toyModel());
    auto* req = cb.addRequest(t, 0.0, 1e6);
    auto& ctx = cb.context(0.0);
    core::MapScoreEngine engine(1.0, 1.0);
    double expected = 0.0;
    for (const auto& l : req->path)
        expected += cb.costs().minLatencyUs(l);
    EXPECT_NEAR(engine.minToGoUs(ctx, *req), expected, 1e-9);
    EXPECT_LE(engine.minToGoUs(ctx, *req),
              engine.score(ctx, *req, 0).toGoUs);
}

TEST(MapScore, BestVariantMinToGoNotWorseThanCurrent)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toySupernet());
    auto* req = cb.addRequest(t, 0.0, 1e6);
    auto& ctx = cb.context(0.0);
    core::MapScoreEngine engine(1.0, 1.0);
    EXPECT_LE(engine.minToGoBestVariantUs(ctx, *req),
              engine.minToGoUs(ctx, *req));
}

} // namespace
} // namespace dream
