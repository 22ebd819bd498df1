/**
 * @file
 * Cluster serving, the one serving path for one device or N: N
 * per-device DREAM instances behind one dispatcher. Each device slot
 * is a full serving pipeline — its own ServeLoop, AdmissionController
 * and Simulator — and every session (one root task plus its cascade
 * descendants) is served on exactly one device. The cluster drains
 * the closed intake StreamSource once and offers each frame, in
 * global arrival order, straight to its device's loop: a session's first frame is
 * routed by the Dispatcher, its later frames follow the session
 * table, and its cascade children materialise inside that device's
 * simulator. All device loops advance in virtual-time lock step:
 * before a session is routed, every device has advanced to the
 * routing instant, so the dispatcher's gauges are pure functions of
 * virtual time and an N-device run replays bit-for-bit
 * (ARCHITECTURE.md invariant 7).
 */

#ifndef DREAM_SERVE_CLUSTER_H
#define DREAM_SERVE_CLUSTER_H

#include <functional>
#include <memory>
#include <vector>

#include "costmodel/cost_table.h"
#include "hw/system.h"
#include "serve/dispatcher.h"
#include "serve/serve_loop.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "workload/scenario.h"
#include "workload/stream_source.h"

namespace dream {
namespace serve {

struct ClusterConfig {
    /** Device slots (>= 1). Every slot serves the same system preset
     *  with its own simulator. */
    size_t devices = 1;
    RouterPolicy router = RouterPolicy::FinishTimeFairness;
    /**
     * Every device's serve settings. With devices > 1 device k's loop
     * publishes under "serve/dev<k>/", tags its log lines
     * "[serve/dev<k>]" and detaches the simulator's un-namespaced
     * metric hooks, and the cluster publishes "serve/" rollups; a
     * single device publishes and logs as plain "serve"
     * (ServeLoop's constructor).
     */
    ServeConfig serve;
};

struct ClusterResult {
    /** Per-device results, in device order. */
    std::vector<ServeResult> devices;
    /** Merged run stats: per-task tallies summed (sessions are
     *  disjoint across devices), frames concatenated in device
     *  order, per-accelerator busy time concatenated. For a
     *  single device this is bit-identical to its own stats. */
    sim::RunStats stats;
    /** Summed admission tallies. */
    AdmissionStats admission;
    /** Root-task -> device routing table (-1 = never arrived). */
    std::vector<int> assignment;
    /**
     * Per-device finish-time-fairness ratio: the sum of completed
     * frames' latencies over the sum of their best-case (default
     * path, fastest accelerator) service demands. 1.0 = every frame
     * finished as if alone on an ideal device; NaN = the device
     * completed nothing.
     */
    std::vector<double> fairnessRatio;
    /** max/min of the finite per-device ratios (1.0 when fewer than
     *  two devices completed frames) — the bench/cluster_route
     *  fairness metric. */
    double fairnessSpread = 1.0;
};

/**
 * The cluster. One instance runs one (system, scenario, cost table)
 * across N simulated devices; run() serves every frame of a closed
 * intake StreamSource.
 */
class Cluster {
public:
    /** Builds one scheduler per device (each device schedules
     *  independently). */
    using SchedulerFactory =
        std::function<std::unique_ptr<sim::Scheduler>()>;

    Cluster(const hw::SystemConfig& system,
            const workload::Scenario& scenario,
            const cost::CostTable& costs, ClusterConfig config);

    /** Serve the intake stream to the window end. Every producer
     *  pushes and closes @p intake first. Throws
     *  std::invalid_argument on a frame that names no task, and
     *  std::logic_error on an intake still open. */
    ClusterResult run(const SchedulerFactory& make_scheduler,
                      workload::StreamSource& intake);

private:
    void mergeStats(ClusterResult& result) const;
    void computeFairness(ClusterResult& result) const;
    void publishClusterMetrics(const ClusterResult& result) const;

    const hw::SystemConfig& system_;
    const workload::Scenario& scenario_;
    const cost::CostTable& costs_;
    ClusterConfig config_;
    /** Per task: best-case own-path service demand (us), the
     *  fairness denominator. */
    std::vector<double> idealFrameUs_;
};

} // namespace serve
} // namespace dream

#endif // DREAM_SERVE_CLUSTER_H
