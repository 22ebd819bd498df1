/**
 * @file
 * The scheduler plug-in interface of the simulator.
 *
 * At every scheduling event (frame arrival, job completion) the
 * simulator hands the scheduler a SchedulerContext snapshot and asks
 * for a Plan: Supernet variant switches, proactive frame drops and
 * job dispatches. The simulator applies the plan and re-invokes the
 * scheduler until it returns an empty plan, letting it fill every
 * idle accelerator.
 *
 * The simulator checks every plan entry just before applying it, in
 * application order (switches, drops, dispatches), in every build
 * type. An entry that breaks the contract below, or a scheduler that
 * does not reach an empty plan within 1024 rounds of one event,
 * throws std::logic_error naming the entry kind, the request's id,
 * task and frame, and the virtual time.
 */

#ifndef DREAM_SIM_SCHEDULER_H
#define DREAM_SIM_SCHEDULER_H

#include <string>
#include <vector>

#include "costmodel/cost_table.h"
#include "hw/system.h"
#include "sim/request.h"
#include "sim/stats.h"
#include "workload/scenario.h"

namespace dream {
namespace sim {

/**
 * Dispatch @p numLayers layers of a request onto an accelerator. The
 * request must be queued (not in flight, not finished) and the head
 * of its task's FIFO queue; 1 <= numLayers <= its remaining layers,
 * and the slice count must fit the accelerator's free slices.
 */
struct Dispatch {
    int requestId = -1;
    size_t numLayers = 1;
    int accel = -1;
    /** Slice allocation; 0 means "all slices of the accelerator". */
    uint32_t slices = 0;
};

/**
 * Proactively drop a queued frame: any frame that is neither in
 * flight nor finished, not only a task's head.
 */
struct FrameDrop {
    int requestId = -1;
};

/**
 * Switch a queued Supernet request to a (lighter) variant, at or
 * before the model's switch point; variant 0 is the Original.
 */
struct VariantSwitch {
    int requestId = -1;
    int variant = 0;
};

/** One round of scheduling decisions. */
struct Plan {
    std::vector<VariantSwitch> switches;
    std::vector<FrameDrop> drops;
    std::vector<Dispatch> dispatches;
    /**
     * Optional timer: ask the simulator to re-invoke the scheduler at
     * this time even if no arrival/completion event fires (used by
     * timetable replay and windowed online tuning). Honoured only if
     * strictly in the future; stale (past or present) values are
     * ignored by Simulator::applyPlan, and wake-ups at or beyond the
     * window end never fire. Negative means "no timer" (the default).
     */
    double wakeUpUs = -1.0;

    bool
    empty() const
    {
        return switches.empty() && drops.empty() && dispatches.empty();
    }
};

/**
 * Read-only snapshot handed to the scheduler.
 *
 * `ready` holds, per task queue and in ascending task order, the head
 * frame if it is schedulable (unfinished, not in flight); DREAM
 * breaks MapScore ties by that order. `live` holds every admitted,
 * unfinished frame (for multi-violation checks and frame-drop
 * policies). The simulator's events maintain both, so a round
 * rebuilds neither. A frame is appended to `live` when it is
 * admitted and swap-removed when it completes or is dropped, so the
 * order of `live` is unspecified, though deterministic. A task's
 * `ready` entry is refreshed whenever its head changes or goes into
 * or out of flight.
 */
struct SchedulerContext {
    double nowUs = 0.0;
    double windowUs = 0.0;
    const hw::SystemConfig* system = nullptr;
    const cost::CostTable* costs = nullptr;
    const workload::Scenario* scenario = nullptr;
    std::vector<const Request*> ready;
    std::vector<const Request*> live;
    const std::vector<AcceleratorState>* accels = nullptr;
    /** Cumulative stats of the run so far (for online adaptivity). */
    const RunStats* stats = nullptr;

    /** Number of accelerators. */
    size_t numAccels() const { return accels->size(); }
    /** Occupancy state of accelerator @p i. */
    const AcceleratorState& accel(size_t i) const
    {
        return (*accels)[i];
    }
};

/** Abstract scheduler. */
class Scheduler {
public:
    virtual ~Scheduler() = default;

    /** Human-readable name used in benches and tables. */
    virtual std::string name() const = 0;

    /** Called once before a run starts. */
    virtual void reset(const SchedulerContext& ctx) { (void)ctx; }

    /** Produce the next round of decisions. */
    virtual Plan plan(const SchedulerContext& ctx) = 0;
};

} // namespace sim
} // namespace dream

#endif // DREAM_SIM_SCHEDULER_H
