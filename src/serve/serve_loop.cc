#include "serve/serve_loop.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <utility>

namespace dream {
namespace serve {

namespace {

sim::SimConfig
simConfig(const ServeConfig& config, const std::string& device,
          const workload::ArrivalSource& arrivals,
          sim::FrameOutcomeSink* outcomes)
{
    sim::SimConfig c;
    c.windowUs = config.windowUs;
    c.seed = config.seed;
    c.arrivals = &arrivals;
    c.metrics = device.empty() ? config.metrics : nullptr;
    c.outcomes = outcomes;
    return c;
}

} // anonymous namespace

ServeLoop::ServeLoop(const hw::SystemConfig& system,
                     const workload::Scenario& scenario,
                     const cost::CostTable& costs, ServeConfig config,
                     const std::string& device, sim::Scheduler& sched,
                     const workload::ArrivalSource& arrivals)
    : config_(std::move(config)),
      label_(device.empty() ? "serve" : "serve/" + device),
      wall0_(std::chrono::steady_clock::now()),
      sim_(system, scenario, costs,
           simConfig(config_, device, arrivals, this)),
      admission_(config_.admission, scenario, costs),
      outcomes_(config_.rollingSpanUs),
      violations_(config_.rollingSpanUs),
      drops_(config_.rollingSpanUs), offers_(config_.rollingSpanUs),
      rejects_(config_.rollingSpanUs),
      nextReportUs_(config_.reportIntervalUs > 0.0
                        ? config_.reportIntervalUs
                        : std::numeric_limits<double>::infinity())
{
    sim_.beginStream(sched);
}

void
ServeLoop::onFrameOutcome(double t_us, const sim::FrameRecord& frame)
{
    if (frame.dropped) {
        outcomes_.record(t_us);
        drops_.record(t_us);
    } else {
        outcomes_.record(t_us, frame.completionUs - frame.arrivalUs);
    }
    if (frame.violated)
        violations_.record(t_us);
}

ServeSnapshot
ServeLoop::measure(double t_us)
{
    admission_.advanceTo(t_us);
    for (obs::RollingWindow* w :
         {&outcomes_, &violations_, &drops_, &offers_, &rejects_})
        w->advanceTo(t_us);

    const double nan = std::nan("");
    const obs::LatencyHistogram h = outcomes_.snapshot();
    ServeSnapshot s;
    s.tUs = t_us;
    s.queueDepth = sim_.liveFrames();
    s.windowSamples = h.count();
    s.p50Us = h.quantile(0.5);
    s.p99Us = h.quantile(0.99);
    const uint64_t n_out = outcomes_.count();
    s.violationRate =
        n_out ? double(violations_.count()) / double(n_out) : nan;
    s.dropRate = n_out ? double(drops_.count()) / double(n_out) : nan;
    const uint64_t n_off = offers_.count();
    s.rejectRate =
        n_off ? double(rejects_.count()) / double(n_off) : nan;
    s.backlogUs = admission_.backlogUs();
    return s;
}

void
ServeLoop::report(double t_us)
{
    const ServeSnapshot s = measure(t_us);
    if (config_.log) {
        char buf[224];
        std::snprintf(buf, sizeof buf,
                      "[%s] t=%.0fus live=%zu p50=%.1fus "
                      "p99=%.1fus viol=%.1f%% drop=%.1f%% "
                      "rej=%.1f%% backlog=%.0fus",
                      label_.c_str(), s.tUs, s.queueDepth, s.p50Us,
                      s.p99Us, 100.0 * s.violationRate, 100.0 * s.dropRate,
                      100.0 * s.rejectRate, s.backlogUs);
        *config_.log << buf << '\n';
    }
    snapshots_.push_back(s);
}

void
ServeLoop::advanceTo(double t_us)
{
    const double limit = std::min(t_us, config_.windowUs);
    while (nextReportUs_ < limit) {
        sim_.advanceTo(nextReportUs_);
        report(nextReportUs_);
        nextReportUs_ += config_.reportIntervalUs;
    }
    sim_.advanceTo(limit);
}

AdmissionDecision
ServeLoop::offer(workload::FrameSpec frame)
{
    // Advance the simulator to just short of the arrival before
    // offering it. The margin matches the event loop's 1e-9 grouping
    // epsilon: a completion that lands within epsilon before the
    // arrival must still find the arrival pending, so both are
    // handled as one event group exactly like the offline run.
    advanceTo(frame.arrivalUs - 1e-9);
    offers_.record(frame.arrivalUs);
    const AdmissionDecision decision =
        admission_.offer(frame, frame.arrivalUs, sim_.liveFrames());
    if (decision == AdmissionDecision::Reject)
        rejects_.record(frame.arrivalUs);
    else
        sim_.offerArrival(std::move(frame));
    return decision;
}

ServeResult
ServeLoop::finish()
{
    advanceTo(config_.windowUs);

    ServeResult result;
    result.stats = sim_.finishStream();
    report(config_.windowUs);
    result.admission = admission_.stats();
    result.snapshots = std::move(snapshots_);

    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall0_)
            .count();
    publishMetrics(result, wall_ms);
    return result;
}

DeviceGauges
ServeLoop::pollGauges(double t_us)
{
    const ServeSnapshot s = measure(t_us);
    DeviceGauges g;
    g.backlogUs = s.backlogUs;
    g.liveFrames = s.queueDepth;
    g.violationRate =
        std::isfinite(s.violationRate) ? s.violationRate : 0.0;
    return g;
}

void
ServeLoop::publishMetrics(const ServeResult& result, double wall_ms)
{
    if (!config_.metrics)
        return;
    obs::MetricsRegistry& m = *config_.metrics;
    const std::string p = label_ + '/';
    const AdmissionStats& a = result.admission;
    m.count(p + "frames/offered", a.offered);
    m.count(p + "frames/admitted", a.admitted);
    m.count(p + "frames/degraded", a.degraded);
    m.count(p + "frames/rejected", a.rejected);
    m.count(p + "reports", result.snapshots.size());
    for (const auto& s : result.snapshots) {
        m.histogram(p + "queue_depth").record(double(s.queueDepth));
        // NaN-valued snapshots (empty spans) are dropped by record().
        m.histogram(p + "rolling/p99_us").record(s.p99Us);
    }
    const ServeSnapshot& last = result.snapshots.back();
    if (std::isfinite(last.p50Us))
        m.gaugeSet(p + "rolling/latency_p50_us", last.p50Us);
    if (std::isfinite(last.p99Us))
        m.gaugeSet(p + "rolling/latency_p99_us", last.p99Us);
    if (std::isfinite(last.violationRate))
        m.gaugeSet(p + "rolling/violation_rate",
                   last.violationRate);
    if (std::isfinite(last.dropRate))
        m.gaugeSet(p + "rolling/drop_rate", last.dropRate);
    if (std::isfinite(last.rejectRate))
        m.gaugeSet(p + "rolling/reject_rate", last.rejectRate);
    m.gaugeSet(p + "backlog_us", last.backlogUs);
    // Wall clock is host-dependent: volatile, like the scheduler's
    // decision-latency histogram.
    m.gaugeSet(p + "wall_ms", wall_ms);
    m.markVolatile(p + "wall_ms");
}

} // namespace serve
} // namespace dream
