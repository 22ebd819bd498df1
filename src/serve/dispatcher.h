/**
 * @file
 * Cluster session router: decides which of N per-device DREAM
 * instances an arriving session (one root task and every cascade
 * descendant it triggers) is served on. Three pluggable policies:
 *
 *   round_robin            sessions cycle through devices in arrival
 *                          order;
 *   least_loaded           the device with the smallest projected
 *                          backlog (admission backlog + the best-case
 *                          work its committed sessions still have in
 *                          the window);
 *   finish_time_fairness   Shockwave-style: pick the device that
 *                          minimizes the worst ratio of projected
 *                          shared finish time to a session's ideal
 *                          isolated finish time, inflated by the
 *                          device's rolling SLO-violation rate.
 *
 * The determinism contract (ARCHITECTURE.md invariant 7): every
 * decision is a pure function of virtual time, the session's spec
 * (costed on the shared table), and gauges that are themselves pure
 * functions of virtual time — never wall clock, thread timing or
 * RNG. A cluster run therefore replays bit-for-bit.
 */

#ifndef DREAM_SERVE_DISPATCHER_H
#define DREAM_SERVE_DISPATCHER_H

#include <cstddef>
#include <string>
#include <vector>

#include "costmodel/cost_table.h"
#include "workload/scenario.h"

namespace dream {
namespace serve {

enum class RouterPolicy {
    RoundRobin,
    LeastLoaded,
    FinishTimeFairness,
};

/** CLI name: "round_robin", "least_loaded", "finish_time_fairness". */
std::string toString(RouterPolicy policy);

/** All policies, in a fixed comparison order. */
std::vector<RouterPolicy> allRouterPolicies();

/** Per-device live load, read from ServeLoop::pollGauges at the
 *  routing instant (all values are functions of virtual time). */
struct DeviceGauges {
    double backlogUs = 0.0;    ///< admission backlog projection (us)
    size_t liveFrames = 0;     ///< frames live in the device's sim
    double violationRate = 0.0;  ///< rolling SLO-violation rate
};

/**
 * The router. Stateful only in deterministic ways: the round-robin
 * cursor and the committed-session table advance once per routed
 * session, in arrival order.
 */
class Dispatcher {
public:
    Dispatcher(RouterPolicy policy, size_t devices,
               const workload::Scenario& scenario,
               const cost::CostTable& costs, double window_us);

    /**
     * Route the session of root task @p session arriving at
     * @p now_us. @p gauges has one entry per device; a list of any
     * other size throws std::invalid_argument. A single device is
     * always the answer 0, and nothing is recorded for it; otherwise
     * the assignment is recorded, so each session is routed once.
     */
    size_t route(workload::TaskId session, double now_us,
                 const std::vector<DeviceGauges>& gauges);

private:
    /** Best-case service demand @p session still generates in
     *  [now_us, window): frame rate x expected per-frame work. */
    double remainingDemandUs(workload::TaskId session,
                             double now_us) const;
    double sharedFinishUs(double committed_us,
                          const DeviceGauges& gauge) const;

    RouterPolicy policy_;
    size_t devices_;
    const workload::Scenario* scenario_;
    double windowUs_;
    /** Aggregate drain rate: microseconds of best-case work retired
     *  per microsecond of virtual time (= accelerator count), the
     *  same capacity model as serve::AdmissionController. */
    double capacityUs_;
    /** Per task: expected per-frame work including descendants. */
    std::vector<double> frameWorkUs_;
    /** Committed sessions per device, in assignment order. */
    std::vector<std::vector<workload::TaskId>> assigned_;
    /** Per session: ideal isolated finish time recorded at
     *  assignment (Shockwave's denominator), us. */
    std::vector<double> isoFinishUs_;
    size_t nextRoundRobin_ = 0;
};

} // namespace serve
} // namespace dream

#endif // DREAM_SERVE_DISPATCHER_H
