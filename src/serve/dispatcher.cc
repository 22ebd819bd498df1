#include "serve/dispatcher.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

namespace dream {
namespace serve {

std::string
toString(RouterPolicy policy)
{
    switch (policy) {
    case RouterPolicy::RoundRobin: return "round_robin";
    case RouterPolicy::LeastLoaded: return "least_loaded";
    case RouterPolicy::FinishTimeFairness:
        return "finish_time_fairness";
    }
    return "?";
}

std::vector<RouterPolicy>
allRouterPolicies()
{
    return {RouterPolicy::RoundRobin, RouterPolicy::LeastLoaded,
            RouterPolicy::FinishTimeFairness};
}

Dispatcher::Dispatcher(RouterPolicy policy, size_t devices,
                       const workload::Scenario& scenario,
                       const cost::CostTable& costs, double window_us)
    : policy_(policy), devices_(devices), scenario_(&scenario),
      windowUs_(window_us),
      capacityUs_(double(costs.system().accelerators.size())),
      assigned_(devices)
{
    if (devices_ == 0)
        throw std::invalid_argument(
            "Dispatcher needs at least one device");
    if (capacityUs_ <= 0.0)
        throw std::invalid_argument(
            "Dispatcher needs at least one accelerator per device");

    // Per-task best-case work of one frame: the default-path layers
    // on the fastest accelerator each, plus the trigger-probability
    // weighted expected work of the cascade descendants — the same
    // cost vocabulary as the admission gate's backlog model. Tasks
    // form a forest, so children have larger indices than their
    // roots only by construction of the generators; recurse via
    // childrenOf instead of assuming an order.
    const size_t n_tasks = scenario.tasks.size();
    frameWorkUs_.assign(n_tasks, -1.0);
    // Iterative post-order over the dependency forest (memoized).
    const std::function<double(workload::TaskId)> expected =
        [&](workload::TaskId task) -> double {
        double& memo = frameWorkUs_[size_t(task)];
        if (memo >= 0.0)
            return memo;
        double work = cost::bestCaseLatencyUs(
            costs, scenario.tasks[size_t(task)].model.layers);
        for (const workload::TaskId child :
             scenario.childrenOf(task)) {
            work += scenario.tasks[size_t(child)].triggerProb *
                    expected(child);
        }
        memo = work;
        return work;
    };
    for (size_t t = 0; t < n_tasks; ++t)
        expected(workload::TaskId(t));
    isoFinishUs_.assign(n_tasks, 0.0);
}

double
Dispatcher::remainingDemandUs(workload::TaskId session,
                              double now_us) const
{
    const workload::TaskSpec& spec =
        scenario_->tasks[size_t(session)];
    const double until = std::min(windowUs_, spec.endUs);
    const double from = std::max(now_us, spec.startUs);
    const double span = std::max(0.0, until - from);
    return span / spec.periodUs() * frameWorkUs_[size_t(session)];
}

double
Dispatcher::sharedFinishUs(double committed_us,
                           const DeviceGauges& gauge) const
{
    return (gauge.backlogUs + committed_us) / capacityUs_;
}

size_t
Dispatcher::route(workload::TaskId session, double now_us,
                  const std::vector<DeviceGauges>& gauges)
{
    if (session < 0 || size_t(session) >= frameWorkUs_.size())
        throw std::invalid_argument(
            "Dispatcher: session id out of range");
    if (gauges.size() != devices_)
        throw std::invalid_argument(
            "Dispatcher: one gauge entry per device is required");

    if (devices_ == 1)
        return 0;

    size_t device = 0;
    switch (policy_) {
    case RouterPolicy::RoundRobin:
        device = nextRoundRobin_++ % devices_;
        break;
    case RouterPolicy::LeastLoaded: {
        // Projected backlog: the admission gate's live backlog
        // plus the best-case work the device's committed
        // sessions still generate this window. Ties keep the
        // lower index — deterministic.
        double best = std::numeric_limits<double>::infinity();
        for (size_t d = 0; d < devices_; ++d) {
            double committed = gauges[d].backlogUs;
            for (const workload::TaskId s : assigned_[d])
                committed += remainingDemandUs(s, now_us);
            if (committed < best) {
                best = committed;
                device = d;
            }
        }
        break;
    }
    case RouterPolicy::FinishTimeFairness: {
        // Shockwave-style greedy with a load guardrail. Pass 1
        // projects every device's shared finish time (admission
        // backlog + committed best-case demand + the new
        // session, over capacity), inflated by the device's
        // rolling SLO-violation rate — live telemetry closing
        // the loop on queueing the linear model misses. Pass 2
        // considers only devices within kLoadSlack of the
        // lightest projection and, among those, minimises the
        // device's worst post-placement finish-time-fairness
        // ratio (projected shared finish over the smallest
        // isolated finish recorded at assignment). The
        // guardrail matters: unconstrained worst-ratio greedy
        // co-locates heavy sessions (stacking heavies never
        // hurts the worst ratio as much as slowing a light
        // session), and the deadline-driven devices punish that
        // with queueing blowup the fractional-sharing model
        // never sees.
        const double demand_new = std::max(
            remainingDemandUs(session, now_us),
            frameWorkUs_[size_t(session)]);
        const double iso_new = std::max(demand_new / capacityUs_, 1e-9);
        std::vector<double> shared(devices_, 0.0);
        std::vector<double> iso_min(devices_, iso_new);
        double lightest = std::numeric_limits<double>::infinity();
        for (size_t d = 0; d < devices_; ++d) {
            double committed = demand_new;
            for (const workload::TaskId s : assigned_[d]) {
                committed += remainingDemandUs(s, now_us);
                iso_min[d] = std::min(iso_min[d], isoFinishUs_[size_t(s)]);
            }
            shared[d] = (1.0 + gauges[d].violationRate) *
                        sharedFinishUs(committed, gauges[d]);
            lightest = std::min(lightest, shared[d]);
        }
        constexpr double kLoadSlack = 1.25;
        double best = std::numeric_limits<double>::infinity();
        for (size_t d = 0; d < devices_; ++d) {
            if (shared[d] > lightest * kLoadSlack)
                continue;
            const double rho = shared[d] / iso_min[d];
            if (rho < best) {
                best = rho;
                device = d;
            }
        }
        isoFinishUs_[size_t(session)] = iso_new;
        break;
    }
    }
    assigned_[device].push_back(session);
    return device;
}

} // namespace serve
} // namespace dream
