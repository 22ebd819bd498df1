/**
 * @file
 * Run-time entities of the multi-accelerator simulator: inference
 * requests (materialised frames), accelerator occupancy state and
 * executing jobs.
 */

#ifndef DREAM_SIM_REQUEST_H
#define DREAM_SIM_REQUEST_H

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "costmodel/cost_table.h"
#include "hw/accelerator.h"
#include "models/path.h"
#include "workload/scenario.h"

namespace dream {
namespace sim {

/**
 * A path's resolution under one CostTable: the table's row for each
 * layer, suffix sums over the rows and the path's worst-case energy.
 * The simulator builds one per distinct path per run and every
 * request on that path shares it (sim/cost_cache.h); it is immutable
 * once built.
 */
struct Resolution {
    /** The resolved path. Holding it keeps the path's identity from
     *  being reused while the resolution lives. */
    models::Path path;
    /** Table the rows point into, compared by address (the rows are
     *  valid while it lives). */
    const cost::CostTable* table = nullptr;
    /** rows[i]: the table entry of path[i]. */
    std::vector<cost::CostTable::LayerView> rows;
    /** suffixAvg[i]: mean-across-accels latency of layers [i..). */
    std::vector<double> suffixAvg;
    /** suffixMin[i]: best-accel-per-layer latency of layers [i..). */
    std::vector<double> suffixMin;
    /** suffixByAcc[a][i]: full-slice latency on accel a of [i..). */
    std::vector<std::vector<double>> suffixByAcc;
    /** Front-to-back sum of the rows' maxEnergyMj: the worst
     *  layer-accelerator pairing per layer (Algorithm 2 L5
     *  denominator). */
    double worstCaseEnergyMj = 0.0;
};

/**
 * One live inference request: a materialised frame of a task working
 * through its layer queue. Mirrors the paper's per-task inference
 * request queues; the simulator keeps frames of one task in FIFO
 * order and schedules the head frame's next layer(s).
 *
 * Copying a request copies references to its shared path and
 * resolution, not layers or rows, and the copy stays readable after
 * the run (and the source that built the path) is gone. Once the
 * request completes or is dropped, the simulator drops both handles
 * and keeps only the fields its frame record is built from, so
 * per-layer memory is bounded by the live set and the run's distinct
 * paths.
 */
struct Request {
    int id = -1;
    workload::TaskId task = 0;
    int frameIdx = 0;
    double arrivalUs = 0.0;
    double deadlineUs = 0.0;

    /** Execution path, shared and immutable; a Supernet switch
     *  re-points it. Empty once the request is finished. */
    models::Path path;
    /** Next layer index awaiting dispatch. */
    size_t nextLayer = 0;
    /** True while a job for this request occupies an accelerator. */
    bool inFlight = false;

    /** Supernet variant in effect (0 == Original). */
    int variant = 0;
    /** Completion time of the lastly finished layer (Tcmpl), or the
     *  arrival time before any layer ran. Drives the queue-time term
     *  of the starvation score. */
    double lastEventUs = 0.0;

    /** Resolution of `path`: the run's shared one, set at admission
     *  and on a switch; ensureCostCache re-points it when it does not
     *  match the path or the table being read. Null once the request
     *  is finished. */
    mutable std::shared_ptr<const Resolution> resolution;

    bool dropped = false;
    bool done = false;
    /** Completion time; NaN until done (matches FrameRecord). */
    double completionUs = std::numeric_limits<double>::quiet_NaN();
    /** Energy actually spent on this frame so far (mJ). */
    double energyMj = 0.0;
    /** Cascade-gate outcomes, aligned with childrenOf(task). */
    std::vector<char> childTriggers;

    /** Finished in any way (completed or dropped). */
    bool finished() const { return done || dropped; }
    /** Layers still to dispatch (0 once finished). */
    size_t remainingLayers() const
    {
        return finished() ? 0 : path.size() - nextLayer;
    }
    /** True once any layer has been dispatched. */
    bool started() const { return nextLayer > 0 || inFlight; }
};

/** A block of layers executing on (a slice allocation of) an accel. */
struct Job {
    int requestId = -1;
    size_t layerBegin = 0;  ///< first layer index of the block
    size_t layerEnd = 0;    ///< one past the last layer of the block
    int accel = -1;
    uint32_t slices = 0;
    double startUs = 0.0;
    double endUs = 0.0;
};

/** Dynamic occupancy state of one accelerator. */
struct AcceleratorState {
    const hw::AcceleratorConfig* config = nullptr;
    uint32_t freeSlices = 0;
    /** Number of jobs currently running. */
    uint32_t runningJobs = 0;
    /** Completion time of the job finishing last on this accel. */
    double busyUntilUs = 0.0;
    /** Request whose live activations sit in the on-chip buffer. */
    int residentRequestId = -1;
    /** Size of those live activations in bytes. */
    uint64_t residentBytes = 0;

    bool idle() const { return runningJobs == 0; }
};

} // namespace sim
} // namespace dream

#endif // DREAM_SIM_REQUEST_H
