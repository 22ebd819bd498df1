#include "core/supernet_switch.h"

#include <algorithm>

namespace dream {
namespace core {

namespace {

/**
 * Load term, added beyond Algorithm 1: how strongly the committed
 * accelerator work biases switching towards lighter subnets (it
 * scales the expected queueing delay; 0 would disable the term).
 */
constexpr double kSupernetLoadSensitivity = 5.0;
/** Safety margin, added beyond Algorithm 1: a variant is feasible
 *  when its minimum to-go fits kSupernetSlackMargin x the
 *  load-discounted slack. */
constexpr double kSupernetSlackMargin = 1.0;

} // anonymous namespace

std::optional<int>
SupernetSwitchEngine::chooseVariant(const sim::SchedulerContext& ctx,
                                    const MapScoreEngine& scores,
                                    const sim::Request& req) const
{
    const models::Model& model =
        ctx.scenario->tasks[req.task].model;
    if (!model.isSupernet())
        return std::nullopt;
    if (req.nextLayer > model.supernetSwitchPoint)
        return std::nullopt; // past the switch point; path is fixed

    const double slack = req.deadlineUs - ctx.nowUs;

    // System-load pressure (Figure 6: "based on the system load and
    // slack"): the work already committed to the accelerators plus
    // the optimistic demand of every queued request, spread across
    // the accelerators, delays this frame's layers. Discounting the
    // slack by that expected delay deploys lighter subnets
    // proactively under heavy load, not just when this frame is
    // already critical.
    double committed_us = 0.0;
    for (size_t a = 0; a < ctx.numAccels(); ++a) {
        const auto& acc = ctx.accel(a);
        if (!acc.idle())
            committed_us += std::max(0.0, acc.busyUntilUs - ctx.nowUs);
    }
    for (const auto* other : ctx.ready) {
        if (other->id != req.id)
            committed_us += scores.minToGoUs(ctx, *other);
    }
    const double expected_delay =
        kSupernetLoadSensitivity * committed_us /
        double(ctx.numAccels());
    const double budget =
        (slack - expected_delay) * kSupernetSlackMargin;

    // Variants are ordered heaviest (0 == Original) to lightest.
    // Pick the heaviest one whose optimistic remaining time fits the
    // load-discounted budget; fall back to the lightest. The scratch-
    // cached to-go replaces the former per-variant path
    // materialisation (a vector<Layer> allocation per candidate per
    // scheduling event).
    const int num_variants = int(model.variants.size()) + 1;
    int chosen = num_variants - 1;
    for (int v = 0; v < num_variants; ++v) {
        const double min_to_go =
            scores.minToGoVariantUs(ctx, req, size_t(v));
        if (min_to_go <= budget) {
            chosen = v;
            break;
        }
    }
    if (chosen == req.variant)
        return std::nullopt;
    return chosen;
}

} // namespace core
} // namespace dream
