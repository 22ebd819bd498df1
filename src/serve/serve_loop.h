/**
 * @file
 * One device's serve loop: drives its simulator incrementally as
 * serve::Cluster offers it frames — no end-of-window barrier. Each
 * offered frame passes the admission gate, then the simulator is
 * advanced to its arrival time before the frame is offered, which
 * preserves the offline event order exactly: with no admission bound
 * set, the final RunStats is bit-identical to Simulator::run() over
 * the same frames. Rolling-window telemetry (p50/p99 latency,
 * SLO-violation/drop/reject rates) is reported at fixed virtual-time
 * intervals and published through obs::MetricsRegistry; the reports
 * and the dispatcher's gauges read the same rolling windows.
 *
 * serve::Cluster is the only caller, for one device or N: it builds
 * the loop ready to serve, calls offer() for each frame routed to
 * this device and advanceTo() to keep the devices in virtual-time
 * lock step, then finish().
 */

#ifndef DREAM_SERVE_SERVE_LOOP_H
#define DREAM_SERVE_SERVE_LOOP_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "costmodel/cost_table.h"
#include "hw/system.h"
#include "obs/metrics.h"
#include "obs/rolling.h"
#include "serve/admission.h"
#include "serve/dispatcher.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "workload/frame_source.h"
#include "workload/scenario.h"

namespace dream {
namespace serve {

struct ServeConfig {
    /** Execution window Texec in microseconds. */
    double windowUs = 2e6;
    /** Workload randomness seed (cascade children etc.). */
    uint64_t seed = 1;
    /** Virtual-time spacing of rolling reports (0 = final only). */
    double reportIntervalUs = 2e5;
    /** Span of the rolling telemetry windows. */
    double rollingSpanUs = 5e5;
    AdmissionConfig admission;
    /** Optional metrics registry for the canonical serve schema
     *  (src/obs/README.md) plus the simulator's own hooks. */
    obs::MetricsRegistry* metrics = nullptr;
    /** Optional stream for one human-readable line per report. */
    std::ostream* log = nullptr;
};

/** One rolling-telemetry report, taken at virtual time tUs. */
struct ServeSnapshot {
    double tUs = 0.0;
    size_t queueDepth = 0;     ///< live frames in the simulator
    uint64_t windowSamples = 0;  ///< completions in the rolling span
    double p50Us = 0.0;        ///< NaN when the span has no samples
    double p99Us = 0.0;        ///< NaN when the span has no samples
    double violationRate = 0.0;  ///< violations / outcomes in span
    double dropRate = 0.0;       ///< scheduler drops / outcomes
    double rejectRate = 0.0;     ///< admission rejects / offers
    double backlogUs = 0.0;      ///< admission backlog projection
};

struct ServeResult {
    sim::RunStats stats;
    AdmissionStats admission;
    std::vector<ServeSnapshot> snapshots;
};

/**
 * One device's serving session over one (system, scenario, cost
 * table). Deterministic: every decision keys off virtual arrival
 * times, never wall time.
 */
class ServeLoop : public sim::FrameOutcomeSink {
public:
    /**
     * A loop ready to serve: its simulator is bound to @p sched and
     * its stream is open. @p arrivals materialises cascade children;
     * it and @p sched must outlive finish().
     *
     * @p device tags the loop: empty for a single device, "dev<k>"
     * for device k of a cluster. A single device publishes under
     * "serve/", logs as "[serve]" and attaches the simulator's own
     * metric hooks (the frames/, sim/ and accel/ keys); device k
     * publishes under "serve/dev<k>/", logs as "[serve/dev<k>]" and
     * leaves those hooks detached, since they are not
     * device-namespaced and their gauges would be last-writer-wins
     * across devices (src/obs/README.md).
     */
    ServeLoop(const hw::SystemConfig& system,
              const workload::Scenario& scenario,
              const cost::CostTable& costs, ServeConfig config,
              const std::string& device, sim::Scheduler& sched,
              const workload::ArrivalSource& arrivals);
    /** The simulator reports outcomes to this loop: it stays put. */
    ServeLoop(const ServeLoop&) = delete;
    ServeLoop& operator=(const ServeLoop&) = delete;

    /** Advance to just short of the frame's arrival, gate it through
     *  admission, and offer it to the simulator. Frames must be
     *  offered in nondecreasing arrival order. */
    AdmissionDecision offer(workload::FrameSpec frame);

    /** Drive the event loop, taking the rolling reports due, up to
     *  min(@p t_us, window). The clock never moves backwards. */
    void advanceTo(double t_us);

    /** Drain to the window end, take the final snapshot, publish
     *  metrics, and return the result. */
    ServeResult finish();

    /** Live load gauges the cluster's dispatcher routes on — pure
     *  functions of virtual time. Advances the rolling windows (and
     *  the admission backlog projection) to @p t_us, which must be
     *  nondecreasing across calls. */
    DeviceGauges pollGauges(double t_us);

    /** FrameOutcomeSink: feeds the rolling windows. */
    void onFrameOutcome(double t_us,
                        const sim::FrameRecord& frame) override;

private:
    /** The rolling view at @p t_us: advances the admission backlog
     *  projection and every window to @p t_us first. */
    ServeSnapshot measure(double t_us);
    /** Take, log and keep the snapshot at @p t_us. */
    void report(double t_us);
    void publishMetrics(const ServeResult& result, double wall_ms);

    ServeConfig config_;
    /** "serve" or "serve/dev<k>": the log-line tag; the metric key
     *  prefix is this plus '/'. */
    std::string label_;
    std::chrono::steady_clock::time_point wall0_;
    sim::Simulator sim_;
    AdmissionController admission_;
    /** Completed or dropped frames; a completed one carries its
     *  latency. */
    obs::RollingWindow outcomes_;
    obs::RollingWindow violations_;
    obs::RollingWindow drops_;
    obs::RollingWindow offers_;
    obs::RollingWindow rejects_;
    std::vector<ServeSnapshot> snapshots_;
    double nextReportUs_;
};

} // namespace serve
} // namespace dream

#endif // DREAM_SERVE_SERVE_LOOP_H
