#include "serve/cluster.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace dream {
namespace serve {

Cluster::Cluster(const hw::SystemConfig& system,
                 const workload::Scenario& scenario,
                 const cost::CostTable& costs, ClusterConfig config)
    : system_(system), scenario_(scenario), costs_(costs),
      config_(std::move(config))
{
    if (config_.devices == 0)
        throw std::invalid_argument(
            "Cluster needs at least one device");
    for (const auto& task : scenario.tasks)
        idealFrameUs_.push_back(
            cost::bestCaseLatencyUs(costs, task.model.layers));
}

ClusterResult
Cluster::run(const SchedulerFactory& make_scheduler,
             workload::StreamSource& intake)
{
    const size_t n = config_.devices;

    std::vector<std::unique_ptr<sim::Scheduler>> scheds;
    std::vector<std::unique_ptr<ServeLoop>> loops;
    scheds.reserve(n);
    loops.reserve(n);
    for (size_t k = 0; k < n; ++k) {
        scheds.push_back(make_scheduler());
        if (!scheds.back())
            throw std::invalid_argument(
                "Cluster: scheduler factory returned null");
        loops.push_back(std::make_unique<ServeLoop>(
            system_, scenario_, costs_, config_.serve,
            n > 1 ? "dev" + std::to_string(k) : "", *scheds.back(),
            intake.source()));
    }

    Dispatcher dispatcher(config_.router, n, scenario_, costs_,
                          config_.serve.windowUs);
    ClusterResult result;
    // The session table: root task -> device, -1 until routed.
    result.assignment.assign(scenario_.tasks.size(), -1);
    std::vector<DeviceGauges> gauges(n);
    // Each frame leaves the intake as it is served, so the intake's
    // memory goes back while the devices' live sets grow.
    std::deque<workload::FrameSpec> frames = intake.drain();
    for (; !frames.empty(); frames.pop_front()) {
        workload::FrameSpec& frame = frames.front();
        if (frame.task < 0 ||
            size_t(frame.task) >= result.assignment.size())
            throw std::invalid_argument(
                "Cluster: intake frame names no task");
        const double t_route = frame.arrivalUs - 1e-9;
        // Lock step: every device reaches the routing instant before
        // the decision reads any gauge, so the decision depends only
        // on virtual time. The 1e-9 margin is the event loop's
        // grouping epsilon (serve_loop.cc).
        for (size_t k = 0; k < n; ++k)
            loops[k]->advanceTo(t_route);
        // A replay intake carries recorded cascade children as frames
        // of their own: each joins its root's session.
        const workload::TaskId session = scenario_.rootOf(frame.task);
        int& device = result.assignment[size_t(session)];
        if (device < 0) {
            if (n > 1) {
                for (size_t k = 0; k < n; ++k)
                    gauges[k] = loops[k]->pollGauges(t_route);
            }
            device =
                int(dispatcher.route(session, frame.arrivalUs, gauges));
        }
        loops[size_t(device)]->offer(std::move(frame));
    }

    result.devices.reserve(n);
    for (size_t k = 0; k < n; ++k)
        result.devices.push_back(loops[k]->finish());

    for (const auto& device : result.devices) {
        result.admission.offered += device.admission.offered;
        result.admission.admitted += device.admission.admitted;
        result.admission.degraded += device.admission.degraded;
        result.admission.rejected += device.admission.rejected;
    }
    mergeStats(result);
    computeFairness(result);
    if (n > 1)
        publishClusterMetrics(result);
    return result;
}

void
Cluster::mergeStats(ClusterResult& result) const
{
    sim::RunStats merged;
    const sim::RunStats& first = result.devices.front().stats;
    merged.windowUs = first.windowUs;
    merged.tasks = first.tasks;
    for (size_t k = 1; k < result.devices.size(); ++k) {
        const sim::RunStats& s = result.devices[k].stats;
        for (size_t t = 0; t < merged.tasks.size(); ++t) {
            sim::TaskStats& into = merged.tasks[t];
            const sim::TaskStats& from = s.tasks[t];
            into.totalFrames += from.totalFrames;
            into.completedFrames += from.completedFrames;
            into.violatedFrames += from.violatedFrames;
            into.droppedFrames += from.droppedFrames;
            into.energyMj += from.energyMj;
            into.worstCaseEnergyMj += from.worstCaseEnergyMj;
            into.sumLatencyUs += from.sumLatencyUs;
            for (size_t v = 0; v < into.variantStarts.size(); ++v)
                into.variantStarts[v] += from.variantStarts[v];
        }
    }
    for (const auto& device : result.devices) {
        const sim::RunStats& s = device.stats;
        merged.frames.insert(merged.frames.end(), s.frames.begin(),
                             s.frames.end());
        merged.contextSwitches += s.contextSwitches;
        merged.contextSwitchEnergyMj += s.contextSwitchEnergyMj;
        merged.schedulerInvocations += s.schedulerInvocations;
        merged.accelBusyUs.insert(merged.accelBusyUs.end(),
                                  s.accelBusyUs.begin(),
                                  s.accelBusyUs.end());
    }
    result.stats = std::move(merged);
}

void
Cluster::computeFairness(ClusterResult& result) const
{
    result.fairnessRatio.assign(result.devices.size(),
                                std::nan(""));
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0.0;
    size_t finite = 0;
    for (size_t k = 0; k < result.devices.size(); ++k) {
        double latency_us = 0.0;
        double ideal_us = 0.0;
        for (const auto& f : result.devices[k].stats.frames) {
            if (!f.isCompleted())
                continue;
            latency_us += f.completionUs - f.arrivalUs;
            ideal_us += idealFrameUs_[size_t(f.task)];
        }
        if (ideal_us <= 0.0)
            continue;
        const double ratio = latency_us / ideal_us;
        result.fairnessRatio[k] = ratio;
        lo = std::min(lo, ratio);
        hi = std::max(hi, ratio);
        ++finite;
    }
    result.fairnessSpread =
        (finite >= 2 && lo > 0.0) ? hi / lo : 1.0;
}

void
Cluster::publishClusterMetrics(const ClusterResult& result) const
{
    obs::MetricsRegistry* m = config_.serve.metrics;
    if (!m)
        return;
    // Cluster rollups under the un-namespaced serve/* keys — the
    // same schema a single-device run publishes, so dream_prof's
    // aggregate serve table renders either way — plus the cluster
    // gauges (src/obs/README.md).
    const std::string p = "serve/";
    const AdmissionStats& a = result.admission;
    m->count(p + "frames/offered", a.offered);
    m->count(p + "frames/admitted", a.admitted);
    m->count(p + "frames/degraded", a.degraded);
    m->count(p + "frames/rejected", a.rejected);
    size_t reports = 0;
    double backlog_us = 0.0;
    for (const auto& device : result.devices) {
        reports += device.snapshots.size();
        for (const auto& s : device.snapshots) {
            m->histogram(p + "queue_depth")
                .record(double(s.queueDepth));
            m->histogram(p + "rolling/p99_us").record(s.p99Us);
        }
        if (!device.snapshots.empty())
            backlog_us += device.snapshots.back().backlogUs;
    }
    m->count(p + "reports", reports);
    m->gaugeSet(p + "backlog_us", backlog_us);
    m->gaugeSet(p + "cluster/devices",
                double(result.devices.size()));
    m->gaugeSet(p + "cluster/fairness_spread",
                result.fairnessSpread);
    for (size_t k = 0; k < result.fairnessRatio.size(); ++k) {
        if (std::isfinite(result.fairnessRatio[k]))
            m->gaugeSet(p + "dev" + std::to_string(k) +
                            "/fairness_ratio",
                        result.fairnessRatio[k]);
    }
}

} // namespace serve
} // namespace dream
