/**
 * @file
 * Discrete-event multi-accelerator simulator.
 *
 * Executes a Scenario's materialised frames on a SystemConfig under a
 * pluggable Scheduler. Layer jobs are non-preemptive; accelerators
 * are slice-divisible so spatial-fission schedulers can co-locate
 * jobs. Latency/energy of every job comes from the CostTable; context
 * switches between tasks on an accelerator charge the activation
 * flush/fetch energy and DRAM transfer latency.
 */

#ifndef DREAM_SIM_SIMULATOR_H
#define DREAM_SIM_SIMULATOR_H

#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "costmodel/cost_table.h"
#include "hw/system.h"
#include "sim/request.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "workload/frame_source.h"
#include "workload/scenario.h"

namespace dream {

namespace obs {
class LatencyHistogram;
class MetricsRegistry;
class TraceEventSink;
}

namespace sim {

/**
 * Receives each frame's outcome as it settles: one call per completed
 * or dropped frame, at the virtual time @p t_us of that event, with
 * the frame's record as RunStats::frames will hold it. Frames still
 * live at the window end produce no outcome. The serve loop's rolling
 * SLO windows hang off this hook; like the other hooks, attaching one
 * observes the run without perturbing it.
 */
class FrameOutcomeSink {
public:
    virtual ~FrameOutcomeSink() = default;
    virtual void onFrameOutcome(double t_us, const FrameRecord& frame) = 0;
};

/** Run parameters. */
struct SimConfig {
    /** Execution window Texec in microseconds (paper example: 2 s). */
    double windowUs = 2e6;
    /** Workload randomness seed. */
    uint64_t seed = 1;
    /**
     * Optional externally-owned arrival source. When set, the
     * simulator draws its frames from it (e.g. a
     * workload::ReplaySource re-injecting a recorded trace's exact
     * arrival sequence) instead of constructing a periodic
     * FrameSource from the scenario and @ref seed. Must outlive every
     * run() call; the caller keeps ownership.
     */
    const workload::ArrivalSource* arrivals = nullptr;
    /**
     * Optional externally-owned hooks (src/obs/), each tested at its
     * own hook sites: the trace-event sink, the metrics registry and
     * the frame-outcome sink. Null — the default — records nothing;
     * the run itself is bit-identical either way (the hooks only
     * observe), and the decision wall time is read only when a trace
     * or a registry records it. Each must outlive every run() call.
     */
    obs::TraceEventSink* trace = nullptr;
    obs::MetricsRegistry* metrics = nullptr;
    FrameOutcomeSink* outcomes = nullptr;
};

/**
 * The simulator. One instance runs one (system, scenario) pair; call
 * run() with different schedulers for comparisons — each run starts
 * from a clean state and an identical materialised workload.
 */
class Simulator {
public:
    Simulator(const hw::SystemConfig& system,
              const workload::Scenario& scenario,
              const cost::CostTable& costs, SimConfig config = {});

    /** Execute the window under @p sched and return the run stats. */
    RunStats run(Scheduler& sched);

    /**
     * Incremental (streaming) execution. run() is exactly
     *
     *     beginStream(sched);
     *     for (frame : workload::rootFramesByArrival(source, window))
     *         offerArrival(std::move(frame));
     *     return finishStream();
     *
     * so a serve loop that offers each arrival before advancing past
     * its arrival time produces bit-identical RunStats to the offline
     * run — the determinism anchor of stream-mode replay. Between
     * beginStream() and finishStream() the caller may interleave
     * offerArrival() and advanceTo() freely, subject to the ordering
     * contracts below.
     */

    /** Reset per-run state and bind @p sched for this stream. */
    void beginStream(Scheduler& sched);

    /**
     * Queue one externally-released frame. Arrivals must be offered
     * in nondecreasing arrival order and before the stream clock has
     * advanced past them (offer, then advanceTo); violating either
     * throws std::invalid_argument. Cascade children are still
     * materialised internally via ArrivalSource::childFrame. The
     * frame is taken by value and moved on into its request: pass
     * an rvalue (std::move) so nothing of it is copied.
     */
    void offerArrival(workload::FrameSpec spec);

    /**
     * Process every event strictly before min(@p limit_us, window):
     * the same event loop as run(), with the window bound replaced by
     * the limit. Idempotent for a fixed limit; the stream clock never
     * moves backwards.
     */
    void advanceTo(double limit_us);

    /** Drain remaining events to the window end and finalize stats.
     *  Idempotent: calling again after the stream has finished
     *  returns the same finalized stats without re-running. */
    RunStats finishStream();

    /** Virtual time of the last processed event (us). */
    double nowUs() const { return nowUs_; }

    /** Admitted frames (root + cascade) not yet finished. */
    size_t liveFrames() const { return ctx_.live.size(); }

private:
    struct JobEvent {
        double endUs;
        Job job;

        bool operator>(const JobEvent& o) const { return endUs > o.endUs; }
    };

    void admitFrame(workload::FrameSpec&& spec);
    void shareResolution(Request& req);
    const models::Path& variantPath(workload::TaskId task, int variant);
    void retire(Request& req);
    void settle(const Request& req);
    void completeJob(const Job& job);
    void invokeScheduler(Scheduler& sched);
    bool applyPlan(const Plan& plan);
    void applySwitch(const VariantSwitch& sw);
    void applyDrop(const FrameDrop& drop);
    void applyDispatch(const Dispatch& d);
    Request& planRequest(const char* kind, int request_id);
    void checkQueued(const char* kind, const Request& req) const;
    [[noreturn]] void rejectPlan(const char* kind, int request_id,
                                 const std::string& why) const;
    void finalizeStats();
    Request* headOfTask(workload::TaskId task);
    void refreshReady(workload::TaskId task);

    const hw::SystemConfig& system_;
    const workload::Scenario& scenario_;
    const cost::CostTable& costs_;
    SimConfig config_;

    // Per-run state.
    std::unique_ptr<workload::FrameSource> ownedSource_;
    const workload::ArrivalSource* source_ = nullptr;
    std::vector<std::unique_ptr<Request>> requests_;
    /** One resolution per distinct path, keyed by the path's identity
     *  (each resolution holds its path, so no identity is reused
     *  during the run). */
    std::unordered_map<const void*, std::shared_ptr<const Resolution>>
        resolutions_;
    /** [task][variant]: the path a Supernet switch re-points to,
     *  built on the first switch to it. */
    std::vector<std::vector<models::Path>> variantPaths_;
    std::vector<std::deque<int>> taskQueues_;  ///< FIFO req ids per task
    /** Index of each live request in ctx_.live, by request id (stale
     *  once the request finishes). ctx_.live is the live set itself:
     *  admitFrame appends, retire() swap-removes. ctx_.ready is kept
     *  by refreshReady() at each event that moves a task's head or
     *  the head's in-flight state. */
    std::vector<size_t> liveSlot_;
    std::vector<AcceleratorState> accels_;
    std::priority_queue<JobEvent, std::vector<JobEvent>,
                        std::greater<JobEvent>> completions_;
    std::priority_queue<double, std::vector<double>,
                        std::greater<double>> wakeups_;
    double nowUs_ = 0.0;
    RunStats stats_;
    /** One record per admitted frame, by request id (admission
     *  order): created at admission, its outcome filled by settle(),
     *  moved into RunStats::frames at the window end. Kept out of
     *  stats_ so a scheduler copying *ctx.stats copies no records. */
    std::vector<FrameRecord> frames_;
    SchedulerContext ctx_;
    /** Stream state: offered-but-unadmitted arrivals (FIFO, popped
     *  as they are admitted) and the bound scheduler. */
    std::deque<workload::FrameSpec> pendingArrivals_;
    Scheduler* streamSched_ = nullptr;
    bool streaming_ = false;
    /** Start of the current busy interval per accelerator (valid
     *  while runningJobs > 0) — feeds RunStats::accelBusyUs. */
    std::vector<double> busyStartUs_;
    /** Scheduler/frame-lifecycle track ids of the trace sink. */
    int64_t schedTid_ = 0;
    int64_t framesTid_ = 0;
    /** The --metrics histograms the per-event hooks record into,
     *  looked up on first use in a stream, so a stream without
     *  events creates none. */
    obs::LatencyHistogram* planRoundsHist_ = nullptr;
    obs::LatencyHistogram* decisionWallHist_ = nullptr;
    obs::LatencyHistogram* latencyHist_ = nullptr;
    obs::LatencyHistogram* queueWaitHist_ = nullptr;
};

} // namespace sim
} // namespace dream

#endif // DREAM_SIM_SIMULATOR_H
