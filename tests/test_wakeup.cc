/**
 * @file
 * Regression tests for the Plan::wakeUpUs contract: only
 * strictly-future wake-ups are honoured. A scheduler that keeps
 * requesting a stale (past or present) wake-up must not stall
 * virtual time or prevent the run from reaching the window end,
 * and wake-ups at or beyond the window end never fire.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "costmodel/cost_table_cache.h"
#include "runner/experiment.h"
#include "sim/scheduler.h"
#include "test_util.h"

namespace dream {
namespace {

/** Never dispatches; requests wake-ups and records invocations. */
class WakeupProbe : public sim::Scheduler {
public:
    enum class Mode {
        Stale,  ///< always request nowUs - 50 (in the past)
        Now,    ///< always request exactly nowUs
        Future, ///< request a fixed future time until it passes
        None,   ///< never request a wake-up
    };

    explicit WakeupProbe(Mode mode, double target_us = -1.0)
        : mode_(mode), targetUs_(target_us)
    {}

    std::string name() const override { return "WakeupProbe"; }

    sim::Plan plan(const sim::SchedulerContext& ctx) override
    {
        invocationTimes.push_back(ctx.nowUs);
        sim::Plan p;
        switch (mode_) {
          case Mode::Stale:
            p.wakeUpUs = ctx.nowUs - 50.0;
            break;
          case Mode::Now:
            p.wakeUpUs = ctx.nowUs;
            break;
          case Mode::Future:
            if (ctx.nowUs < targetUs_)
                p.wakeUpUs = targetUs_;
            break;
          case Mode::None:
            break;
        }
        return p;
    }

    std::vector<double> invocationTimes;

private:
    Mode mode_;
    double targetUs_;
};

using Fixture = test::SingleAccelFixture;

TEST(Wakeup, StaleWakeupIsIgnoredAndRunTerminates)
{
    // Regression: a perpetually-stale wake-up used to be armable in
    // principle; if armed it would pull virtual time backwards and
    // the event loop would never reach the window end.
    Fixture f;
    WakeupProbe probe(WakeupProbe::Mode::Stale);
    const auto stats = f.run(probe);

    EXPECT_GE(stats.totalFrames(), 1u);
    ASSERT_FALSE(probe.invocationTimes.empty());
    // Virtual time never moved backwards across invocations.
    for (size_t i = 1; i < probe.invocationTimes.size(); ++i)
        EXPECT_GE(probe.invocationTimes[i],
                  probe.invocationTimes[i - 1]);
    // Only real events (frame arrivals) triggered the scheduler: one
    // invocation per arrival, no wake-up-driven re-invocations.
    EXPECT_EQ(probe.invocationTimes.size(), size_t(stats.totalFrames()));
}

TEST(Wakeup, PresentTimeWakeupIsIgnored)
{
    Fixture f;
    WakeupProbe probe(WakeupProbe::Mode::Now);
    const auto stats = f.run(probe);
    EXPECT_GE(stats.totalFrames(), 1u);
    EXPECT_EQ(probe.invocationTimes.size(), size_t(stats.totalFrames()));
}

TEST(Wakeup, FutureWakeupFiresAtRequestedTime)
{
    Fixture f;
    const double target = 12345.0;
    WakeupProbe probe(WakeupProbe::Mode::Future, target);
    f.run(probe);

    bool fired = false;
    for (const double t : probe.invocationTimes)
        fired = fired || t == target;
    EXPECT_TRUE(fired) << "scheduler was not re-invoked at its "
                          "requested wake-up time";
}

TEST(Wakeup, WakeupBeyondWindowNeverFires)
{
    Fixture f;
    const double window = 1e5;
    WakeupProbe probe(WakeupProbe::Mode::Future, 2e5);
    f.run(probe, window);

    for (const double t : probe.invocationTimes)
        EXPECT_LT(t, window);
}

/** Forwards to FCFS and asks to be woken at the next multiple of a
 *  fixed tick: on every call, or only when the tick has moved. */
class TickingFcfs : public sim::Scheduler {
public:
    explicit TickingFcfs(bool every_call) : everyCall_(every_call) {}

    std::string name() const override { return inner_->name(); }
    void reset(const sim::SchedulerContext& ctx) override
    {
        inner_->reset(ctx);
    }
    sim::Plan plan(const sim::SchedulerContext& ctx) override
    {
        invocationTimes.push_back(ctx.nowUs);
        sim::Plan p = inner_->plan(ctx);
        const double tick = (std::floor(ctx.nowUs / kTickUs) + 1.0) *
                            kTickUs;
        if (everyCall_ || tick != lastTickUs_) {
            p.wakeUpUs = tick;
            lastTickUs_ = tick;
        }
        return p;
    }

    static constexpr double kTickUs = 7000.0;
    std::vector<double> invocationTimes;

private:
    std::unique_ptr<sim::Scheduler> inner_ =
        runner::makeScheduler(runner::SchedKind::Fcfs);
    bool everyCall_;
    double lastTickUs_ = -1.0;
};

TEST(Wakeup, RepeatedRequestIsArmedOnce)
{
    // Repeating a wake-up every round must not change when the
    // scheduler runs: equal times are one event either way.
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArSocial);
    const auto costs = cost::acquireCostTable(system, scenario);
    sim::SimConfig cfg;
    cfg.windowUs = 3e5;
    cfg.seed = 5;
    TickingFcfs every(true), once(false);
    const auto a = sim::Simulator(system, scenario, *costs, cfg).run(every);
    const auto b = sim::Simulator(system, scenario, *costs, cfg).run(once);

    EXPECT_EQ(every.invocationTimes, once.invocationTimes);
    test::expectStatsBitIdentical(scenario, a, b);
    size_t on_tick = 0;
    for (const double t : every.invocationTimes)
        on_tick += std::fmod(t, TickingFcfs::kTickUs) == 0.0 ? 1 : 0;
    EXPECT_GT(on_tick, size_t(cfg.windowUs / TickingFcfs::kTickUs) / 2)
        << "the ticks did not drive re-invocations";
}

} // namespace
} // namespace dream
