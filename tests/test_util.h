/**
 * @file
 * Shared fixtures for unit tests: a tiny synthetic scenario/system
 * pair plus a hand-buildable SchedulerContext, so scoring, frame-drop
 * and Supernet logic can be tested without running the simulator; a
 * one-task, one-accelerator simulator fixture; a bit-identity
 * check of two runs' stats; a serial (alpha, beta) search cost; and
 * gtest parameter names.
 */

#ifndef DREAM_TESTS_TEST_UTIL_H
#define DREAM_TESTS_TEST_UTIL_H

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptivity.h"
#include "costmodel/cost_table.h"
#include "hw/system.h"
#include "models/model.h"
#include "runner/trace.h"
#include "sim/request.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "workload/scenario.h"

namespace dream {
namespace test {

/** A three-layer toy model with a distinctive conv/fc mix. */
inline models::Model
toyModel(const std::string& name = "toy", uint32_t scale = 1)
{
    models::Model m;
    m.name = name;
    m.layers.push_back(
        models::conv(name + ".conv", 56, 56, 32 * scale, 64 * scale,
                     3, 1));
    m.layers.push_back(
        models::dwConv(name + ".dw", 56, 56, 64 * scale, 3, 2));
    m.layers.push_back(models::fc(name + ".fc", 64 * scale, 128));
    return m;
}

/** A toy Supernet: shared 1-layer stem + heavy/light bodies. */
inline models::Model
toySupernet()
{
    models::Model m = toyModel("supernet", 2);
    m.supernetSwitchPoint = 1;
    models::SupernetVariant light;
    light.name = "light";
    light.bodyLayers.push_back(
        models::dwConv("supernet.lite.dw", 56, 56, 32, 3, 2));
    light.bodyLayers.push_back(models::fc("supernet.lite.fc", 32, 64));
    m.variants.push_back(light);
    return m;
}

/** A test accelerator: @p num_pes PEs of @p dataflow. */
inline hw::AcceleratorConfig
accelerator(const std::string& name, hw::Dataflow dataflow,
            uint32_t num_pes = 2048)
{
    hw::AcceleratorConfig acc;
    acc.name = name;
    acc.numPes = num_pes;
    acc.dataflow = dataflow;
    return acc;
}

/** One WS and one OS accelerator of 2048 PEs. */
inline std::vector<hw::AcceleratorConfig>
wsAndOs()
{
    return {accelerator("WS", hw::Dataflow::WeightStationary),
            accelerator("OS", hw::Dataflow::OutputStationary)};
}

/**
 * Hand-buildable scheduler context over a synthetic scenario and a
 * system of the given accelerators (by default 1 WS + 1 OS).
 * Requests added via addRequest() appear in `live`, and in `ready`
 * unless in flight.
 */
class ContextBuilder {
public:
    explicit ContextBuilder(
        std::vector<hw::AcceleratorConfig> accelerators = wsAndOs())
    {
        system_.name = "test";
        for (const auto& acc : accelerators)
            system_.name += "-" + acc.name;
        system_.accelerators = std::move(accelerators);
        costs_ = std::make_unique<cost::CostTable>(system_);
        for (const auto& acc : system_.accelerators) {
            sim::AcceleratorState st;
            st.config = &acc;
            st.freeSlices = acc.numSlices;
            accels_.push_back(st);
        }
    }

    /** Add a task (model at @p fps); returns the task id. */
    workload::TaskId
    addTask(models::Model model, double fps = 30.0,
            workload::TaskId depends_on = workload::kNoParent)
    {
        workload::TaskSpec spec;
        spec.model = std::move(model);
        spec.fps = fps;
        spec.dependsOn = depends_on;
        scenario_.tasks.push_back(std::move(spec));
        costs_->addModel(scenario_.tasks.back().model);
        stats_.tasks.emplace_back();
        stats_.tasks.back().model = scenario_.tasks.back().model.name;
        return workload::TaskId(scenario_.tasks.size() - 1);
    }

    /** Add a ready request for @p task; returns a mutable pointer. */
    sim::Request*
    addRequest(workload::TaskId task, double arrival_us,
               double deadline_us)
    {
        auto req = std::make_unique<sim::Request>();
        req->id = int(requests_.size());
        req->task = task;
        req->arrivalUs = arrival_us;
        req->deadlineUs = deadline_us;
        req->lastEventUs = arrival_us;
        req->path = scenario_.tasks[task].model.layers;
        requests_.push_back(std::move(req));
        return requests_.back().get();
    }

    /** Build the context snapshot at @p now_us. */
    sim::SchedulerContext&
    context(double now_us = 0.0)
    {
        ctx_.nowUs = now_us;
        ctx_.windowUs = 2e6;
        ctx_.system = &system_;
        ctx_.costs = costs_.get();
        ctx_.scenario = &scenario_;
        ctx_.accels = &accels_;
        ctx_.stats = &stats_;
        ctx_.ready.clear();
        ctx_.live.clear();
        for (const auto& r : requests_) {
            if (r->finished())
                continue;
            ctx_.live.push_back(r.get());
            if (!r->inFlight)
                ctx_.ready.push_back(r.get());
        }
        return ctx_;
    }

    hw::SystemConfig& system() { return system_; }
    workload::Scenario& scenario() { return scenario_; }
    cost::CostTable& costs() { return *costs_; }
    std::vector<sim::AcceleratorState>& accels() { return accels_; }
    sim::RunStats& stats() { return stats_; }

private:
    hw::SystemConfig system_;
    workload::Scenario scenario_;
    std::unique_ptr<cost::CostTable> costs_;
    std::vector<sim::AcceleratorState> accels_;
    std::vector<std::unique_ptr<sim::Request>> requests_;
    sim::RunStats stats_;
    sim::SchedulerContext ctx_;
};

/** One task (@p model at @p fps) on a single-accelerator system. */
struct SingleAccelFixture {
    explicit SingleAccelFixture(models::Model model = toyModel(),
                                double fps = 10.0)
    {
        system.name = "test-1WS";
        system.accelerators = {
            accelerator("WS", hw::Dataflow::WeightStationary)};

        workload::TaskSpec task;
        task.model = std::move(model);
        task.fps = fps;
        scenario.name = "single-accel-test";
        scenario.tasks.push_back(std::move(task));

        costs = std::make_unique<cost::CostTable>(system);
        costs->addModel(scenario.tasks[0].model);
    }

    sim::RunStats
    run(sim::Scheduler& sched, double window_us = 1e5)
    {
        sim::SimConfig cfg;
        cfg.windowUs = window_us;
        cfg.seed = 1;
        sim::Simulator simulator(system, scenario, *costs, cfg);
        return simulator.run(sched);
    }

    hw::SystemConfig system;
    workload::Scenario scenario;
    std::unique_ptr<cost::CostTable> costs;
};

/** Bit-identity of two runs' stats, every frame included. */
inline void
expectStatsBitIdentical(const workload::Scenario& scenario,
                        const sim::RunStats& a, const sim::RunStats& b)
{
    // The frame-trace CSV serialises every admitted frame's exact
    // doubles (shortest-round-trip), so string equality is
    // bit-identity of the per-frame stats.
    EXPECT_EQ(runner::frameTraceCsv(a, scenario),
              runner::frameTraceCsv(b, scenario));
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
    EXPECT_EQ(a.contextSwitchEnergyMj, b.contextSwitchEnergyMj);
    EXPECT_EQ(a.schedulerInvocations, b.schedulerInvocations);
    EXPECT_EQ(a.accelBusyUs, b.accelBusyUs);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (size_t t = 0; t < a.tasks.size(); ++t) {
        EXPECT_EQ(a.tasks[t].energyMj, b.tasks[t].energyMj);
        EXPECT_EQ(a.tasks[t].sumLatencyUs, b.tasks[t].sumLatencyUs);
        EXPECT_EQ(a.tasks[t].variantStarts, b.tasks[t].variantStarts);
    }
}

/** A search cost that evaluates @p cost(alpha, beta) point by point. */
template <class Cost>
core::BatchCostFn
serialBatch(Cost cost)
{
    return [cost](const std::vector<std::pair<double, double>>& pts) {
        std::vector<double> out;
        for (const auto& [a, b] : pts)
            out.push_back(cost(a, b));
        return out;
    };
}

/** @p name with each character gtest rejects in a parameter name
 *  replaced by '_'. */
inline std::string
paramName(std::string name)
{
    for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

} // namespace test
} // namespace dream

#endif // DREAM_TESTS_TEST_UTIL_H
