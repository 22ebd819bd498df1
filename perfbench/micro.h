/**
 * @file
 * Micro timings of the boundaries the workloads cross inside one
 * call: a cost-table lookup, one MapScore evaluation, one admission
 * decision and one dispatcher route. Each is timed in batches on the
 * serve workloads' own scenario and cost table, against a scheduler
 * context captured during the traced run.
 */

#ifndef PERFBENCH_MICRO_H
#define PERFBENCH_MICRO_H

#include <memory>
#include <mutex>
#include <vector>

#include "bench.h"
#include "costmodel/cost_table.h"
#include "hw/system.h"
#include "serve/admission.h"
#include "sim/scheduler.h"
#include "workload/frame_source.h"
#include "workload/scenario.h"

namespace perfbench {

/**
 * A deep copy of one SchedulerContext taken during a run: its live
 * requests, accelerator states, run stats, scenario and system, and a
 * cost table for them, with the context pointing at the copies. It
 * outlives the run it came from. Not copyable (the context points
 * into it).
 */
struct ContextSnapshot {
    dream::workload::Scenario scenario;
    dream::hw::SystemConfig system;
    std::shared_ptr<const dream::cost::CostTable> costs;
    std::vector<dream::sim::Request> requests;
    std::vector<dream::sim::AcceleratorState> accels;
    dream::sim::RunStats stats;
    dream::sim::SchedulerContext ctx;

    explicit ContextSnapshot(const dream::sim::SchedulerContext& src);
    ContextSnapshot(const ContextSnapshot&) = delete;
    ContextSnapshot& operator=(const ContextSnapshot&) = delete;
};

/** Keeps the largest context (by live set) it is offered; probes on
 *  several threads may offer at once. */
class LargestContext {
public:
    void offer(const dream::sim::SchedulerContext& ctx);
    /** The kept snapshot, or null when nothing was offered. */
    const ContextSnapshot* get() const { return snapshot_.get(); }

private:
    std::mutex mu_;
    std::unique_ptr<ContextSnapshot> snapshot_;
};

/** Every root frame of @p source in [0, @p window_us), in arrival
 *  order — what a serve intake is filled with. */
std::vector<dream::workload::FrameSpec>
rootsInArrivalOrder(const dream::workload::FrameSource& source,
                    double window_us);

/** The cluster workload's device count and admission bounds. The
 *  micro timings route and admit with them on every workload. */
constexpr size_t kClusterDevices = 4;
dream::serve::AdmissionConfig clusterAdmission();

/** Inputs of the micro timings. */
struct MicroFixture {
    /** Context, scenario, system and cost table of the timings. */
    const ContextSnapshot* context = nullptr;
    /** The scenario's root frames, in arrival order. */
    const std::vector<dream::workload::FrameSpec>* roots = nullptr;
    double windowUs = 0.0;
    /** Rolling violation rate the router's gauges carry. */
    double violationRate = 0.0;
};

/** Fill the micro.* / *_ns metrics of @p f into @p values. */
void microTimings(const MicroFixture& f, Values& values);

} // namespace perfbench

#endif // PERFBENCH_MICRO_H
