#include "core/adaptivity.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "metrics/uxcost.h"

namespace dream {
namespace core {

namespace {

/** Section 3.6: the first search radius in (alpha, beta) space. */
constexpr double kInitialRadius = 0.5;
/** Section 3.6: the radius halves each step until it falls below
 *  this threshold. */
constexpr double kRadiusThreshold = 0.05;
/** Section 3.6: alpha and beta range over [kParamMin, kParamMax]. */
constexpr double kParamMin = 0.0;
constexpr double kParamMax = 2.0;
/** Section 4.4: length of one online-tuning trial window (us). */
constexpr double kTrialWindowUs = 1.5e5;
/**
 * Noise guard, added beyond Algorithm 1: the tuner moves only when a
 * candidate beats the current point's measured windowed cost by
 * this factor.
 */
constexpr double kOnlineImprovementFactor = 0.93;
/**
 * Load re-trigger, added beyond Algorithm 1: an idle tuner starts a
 * new round when the run's violation fraction has moved by more than
 * this since its last check.
 */
constexpr double kViolationRetrigger = 0.15;

double
clamp(double v)
{
    return std::min(kParamMax, std::max(kParamMin, v));
}

} // anonymous namespace

SearchResult
ParamSearch::optimize(const BatchCostFn& cost, double a0,
                      double b0) const
{
    const auto eval1 = [&cost](double a, double b) {
        return cost({{a, b}}).front();
    };

    SearchResult result;
    double a = clamp(a0);
    double b = clamp(b0);
    double c = eval1(a, b);
    ++result.evaluations;
    result.trajectory.push_back({a, b, c, kInitialRadius, 0});

    double best_a = a, best_b = b, best_c = c;
    int step = 0;
    for (double radius = kInitialRadius; radius >= kRadiusThreshold;
         radius *= 0.5) {
        ++step;
        // Neighbouring pairs at the radius plus distant pairs at twice
        // the radius (diagonals), Section 3.6. The candidates of one
        // step are independent: evaluate them as one batch.
        const double r2 = 2.0 * radius;
        std::vector<std::pair<double, double>> pts = {
            {clamp(a + radius), clamp(b)}, {clamp(a - radius), clamp(b)},
            {clamp(a), clamp(b + radius)}, {clamp(a), clamp(b - radius)},
            {clamp(a + r2), clamp(b + r2)}, {clamp(a - r2), clamp(b + r2)},
            {clamp(a + r2), clamp(b - r2)}, {clamp(a - r2), clamp(b - r2)},
        };
        const std::vector<double> costs = cost(pts);
        assert(costs.size() == pts.size());
        result.evaluations += int(pts.size());

        // Current + candidates; keep the two minima in batch order.
        double c1a = a, c1b = b, c1c = c;
        double c2a = a, c2b = b, c2c = std::numeric_limits<double>::max();
        for (size_t i = 0; i < pts.size(); ++i) {
            const double pa = pts[i].first;
            const double pb = pts[i].second;
            const double pc = costs[i];
            if (pc < c1c) {
                c2a = c1a; c2b = c1b; c2c = c1c;
                c1a = pa; c1b = pb; c1c = pc;
            } else if (pc < c2c) {
                c2a = pa; c2b = pb; c2c = pc;
            }
        }

        // Move to the interpolation of the two minimum pairs.
        const double ia = clamp(0.5 * (c1a + c2a));
        const double ib = clamp(0.5 * (c1b + c2b));
        const double ic = eval1(ia, ib);
        ++result.evaluations;
        if (ic <= c1c) {
            a = ia; b = ib; c = ic;
        } else {
            a = c1a; b = c1b; c = c1c;
        }
        if (c < best_c) {
            best_a = a; best_b = b; best_c = c;
        }
        result.trajectory.push_back({a, b, c, radius, step});
    }

    result.alpha = best_a;
    result.beta = best_b;
    result.cost = best_c;
    result.simulated = result.evaluations;
    return result;
}

double
windowedObjective(const sim::RunStats& begin, const sim::RunStats& end)
{
    assert(begin.tasks.size() == end.tasks.size());
    sim::RunStats window;
    window.tasks.resize(end.tasks.size());
    for (size_t t = 0; t < end.tasks.size(); ++t) {
        auto& w = window.tasks[t];
        const auto& s0 = begin.tasks[t];
        const auto& s1 = end.tasks[t];
        w.model = s1.model;
        w.totalFrames = s1.totalFrames - s0.totalFrames;
        w.completedFrames = s1.completedFrames - s0.completedFrames;
        w.violatedFrames = s1.violatedFrames - s0.violatedFrames;
        w.droppedFrames = s1.droppedFrames - s0.droppedFrames;
        w.energyMj = s1.energyMj - s0.energyMj;
        w.worstCaseEnergyMj = s1.worstCaseEnergyMj -
                              s0.worstCaseEnergyMj;
    }
    return metrics::uxCost(window);
}

OnlineTuner::OnlineTuner(const DreamConfig& config) : config_(config)
{
    curAlpha_ = config.alpha;
    curBeta_ = config.beta;
}

uint64_t
OnlineTuner::fingerprint(const sim::SchedulerContext& ctx) const
{
    // The inference-model list the paper's adaptivity engine tracks:
    // which tasks currently have live requests.
    uint64_t fp = 0;
    for (const auto* req : ctx.live)
        fp |= 1ull << (unsigned(req->task) & 63u);
    return fp;
}

void
OnlineTuner::buildCandidates()
{
    candidates_.clear();
    const auto add = [this](double pa, double pb) {
        pa = clamp(pa);
        pb = clamp(pb);
        for (const auto& c : candidates_) {
            if (std::abs(c.alpha - pa) < 1e-9 &&
                std::abs(c.beta - pb) < 1e-9) {
                return;
            }
        }
        candidates_.push_back({pa, pb, 0.0});
    };
    // Online rounds probe only the immediate neighbourhood: unlike
    // the offline search, every probe executes real frames, so
    // distant (potentially bad) parameter pairs are not worth the
    // exploration cost while the workload is live.
    add(curAlpha_, curBeta_);
    add(curAlpha_ + radius_, curBeta_);
    add(curAlpha_ - radius_, curBeta_);
    add(curAlpha_, curBeta_ + radius_);
    add(curAlpha_, curBeta_ - radius_);
}

void
OnlineTuner::startRound(const sim::SchedulerContext& ctx,
                        MapScoreEngine& engine)
{
    buildCandidates();
    phase_ = Phase::Trial;
    beginTrial(ctx, engine, 0);
}

void
OnlineTuner::beginTrial(const sim::SchedulerContext& ctx,
                        MapScoreEngine& engine, size_t candidate)
{
    trialIdx_ = candidate;
    trialStart_ = *ctx.stats;
    trialEndUs_ = ctx.nowUs + kTrialWindowUs;
    engine.setParams(candidates_[candidate].alpha,
                     candidates_[candidate].beta);
}

void
OnlineTuner::finishRound(MapScoreEngine& engine)
{
    // Move to the interpolation of the two minimum-cost candidates —
    // but only when the winner beats the current point's own measured
    // cost by a clear margin, so windowed measurement noise cannot
    // drag the parameters away from a good operating point.
    size_t best = 0, second = 0;
    double best_c = std::numeric_limits<double>::max();
    double second_c = best_c;
    for (size_t i = 0; i < candidates_.size(); ++i) {
        const double c = candidates_[i].cost;
        if (c < best_c) {
            second = best;
            second_c = best_c;
            best = i;
            best_c = c;
        } else if (c < second_c) {
            second = i;
            second_c = c;
        }
    }
    // candidates_[0] is always the current point.
    const double current_cost = candidates_[0].cost;
    if (best != 0 &&
        best_c < current_cost * kOnlineImprovementFactor) {
        curAlpha_ = 0.5 * (candidates_[best].alpha +
                           candidates_[second].alpha);
        curBeta_ = 0.5 * (candidates_[best].beta +
                          candidates_[second].beta);
        engine.setParams(curAlpha_, curBeta_);
    } else {
        engine.setParams(curAlpha_, curBeta_);
    }
    radius_ *= 0.5;
    ++completedSteps_;
    phase_ = (radius_ < kRadiusThreshold) ? Phase::Idle : Phase::Trial;
}

double
OnlineTuner::update(const sim::SchedulerContext& ctx,
                    MapScoreEngine& engine)
{
    if (!config_.paramOptimization)
        return -1.0;

    if (!started_) {
        started_ = true;
        lastFingerprint_ = fingerprint(ctx);
        radius_ = kInitialRadius;
        startRound(ctx, engine);
        return phase_ == Phase::Trial ? trialEndUs_ : -1.0;
    }

    if (phase_ == Phase::Trial) {
        if (ctx.nowUs + 1e-9 < trialEndUs_)
            return trialEndUs_;
        // Close the current trial.
        candidates_[trialIdx_].cost =
            windowedObjective(trialStart_, *ctx.stats);
        if (trialIdx_ + 1 < candidates_.size()) {
            beginTrial(ctx, engine, trialIdx_ + 1);
            return trialEndUs_;
        }
        finishRound(engine);
        if (phase_ == Phase::Trial) {
            startRound(ctx, engine);
            return trialEndUs_;
        }
        return -1.0;
    }

    // Idle: watch for workload changes (task set or violation level).
    const uint64_t fp = fingerprint(ctx);
    const double viol = ctx.stats->violationFraction();
    const bool task_change = fp != lastFingerprint_ && fp != 0;
    const bool load_change =
        std::abs(viol - lastViolationFraction_) > kViolationRetrigger;
    lastFingerprint_ = fp != 0 ? fp : lastFingerprint_;
    lastViolationFraction_ = viol;
    if (task_change || load_change) {
        ++retriggers_;
        radius_ = kInitialRadius;
        startRound(ctx, engine);
        return phase_ == Phase::Trial ? trialEndUs_ : -1.0;
    }
    return -1.0;
}

} // namespace core
} // namespace dream
