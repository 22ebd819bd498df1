#include "serve/admission.h"

#include <algorithm>
#include <stdexcept>

namespace dream {
namespace serve {

AdmissionController::AdmissionController(
    const AdmissionConfig& config,
    const workload::Scenario& scenario, const cost::CostTable& costs)
    : config_(config), costs_(&costs),
      capacity_(double(costs.system().accelerators.size()))
{
    if (capacity_ <= 0.0)
        throw std::invalid_argument(
            "admission control needs at least one accelerator");

    // Precompute each task's degraded path: the lightest Supernet
    // variant by MACs (ties keep the lower index — deterministic).
    degradePath_.resize(scenario.tasks.size());
    for (size_t t = 0; t < scenario.tasks.size(); ++t) {
        const models::Model& model = scenario.tasks[t].model;
        if (!model.isSupernet())
            continue;
        size_t best = 0;
        uint64_t best_macs = 0;
        for (size_t v = 1; v <= model.variants.size(); ++v) {
            const uint64_t macs =
                models::totalMacs(model.variantPath(v));
            if (best == 0 || macs < best_macs) {
                best = v;
                best_macs = macs;
            }
        }
        degradePath_[t] = model.variantPath(best);
    }
}

double
AdmissionController::pathLatencyUs(const models::Path& path)
{
    auto [it, fresh] = latencyUs_.try_emplace(path.id(), path, 0.0);
    if (fresh)
        it->second.second = cost::bestCaseLatencyUs(*costs_, path);
    return it->second.second;
}

void
AdmissionController::advanceTo(double now_us)
{
    // Drain the projected backlog at aggregate service capacity over
    // the virtual time elapsed since the last update.
    if (now_us > lastNowUs_) {
        backlogUs_ = std::max(
            0.0, backlogUs_ - (now_us - lastNowUs_) * capacity_);
        lastNowUs_ = now_us;
    }
}

AdmissionDecision
AdmissionController::offer(workload::FrameSpec& frame, double now_us,
                           size_t queue_depth)
{
    advanceTo(now_us);
    stats_.offered += 1;

    // A gate with no bound admits everything and projects no backlog.
    if (!config_.enabled()) {
        stats_.admitted += 1;
        return AdmissionDecision::Admit;
    }

    // A full queue rejects outright: degrading shrinks work, not the
    // number of live frames.
    if (config_.maxQueueDepth > 0 &&
        queue_depth >= config_.maxQueueDepth) {
        stats_.rejected += 1;
        return AdmissionDecision::Reject;
    }

    const double cost = pathLatencyUs(frame.path);
    const bool fits = config_.maxBacklogUs <= 0.0 ||
                      backlogUs_ + cost <= config_.maxBacklogUs;
    if (fits) {
        stats_.admitted += 1;
        backlogUs_ += cost;
        return AdmissionDecision::Admit;
    }

    if (config_.policy == OverloadPolicy::Degrade &&
        !degradePath_[frame.task].empty()) {
        frame.path = degradePath_[frame.task];
        stats_.degraded += 1;
        backlogUs_ += pathLatencyUs(frame.path);
        return AdmissionDecision::Degrade;
    }

    stats_.rejected += 1;
    return AdmissionDecision::Reject;
}

} // namespace serve
} // namespace dream
