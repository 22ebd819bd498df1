/**
 * @file
 * Adaptivity engine (Sections 3.6 and 4.4).
 *
 * Two cooperating pieces:
 *
 *  - ParamSearch: the offline iterative (alpha, beta) optimisation of
 *    Section 3.6 — sample neighbouring and distant parameter pairs,
 *    move to the interpolation of the two minimum-cost pairs, shrink
 *    the radius, repeat until the radius passes the threshold
 *    (Figures 3, 10, 11).
 *
 *  - OnlineTuner: the non-blocking run-time variant of Section 4.4 —
 *    tests a small number of (alpha, beta) pairs around the current
 *    value in consecutive short execution windows, moves to the pair
 *    with the lowest windowed UXCost, and re-triggers itself when the
 *    workload fingerprint or the violation/drop level changes. The
 *    workload keeps executing with valid schedules throughout.
 */

#ifndef DREAM_CORE_ADAPTIVITY_H
#define DREAM_CORE_ADAPTIVITY_H

#include <functional>
#include <utility>
#include <vector>

#include "core/dream_config.h"
#include "core/mapscore.h"
#include "sim/scheduler.h"

namespace dream {
namespace core {

/** One evaluated point of an offline search. */
struct SearchStep {
    double alpha = 0.0;
    double beta = 0.0;
    double cost = 0.0;
    double radius = 0.0;
    int step = 0;  ///< optimisation step index (0 == initial point)
};

/** Result of an offline search. */
struct SearchResult {
    double alpha = 0.0;
    double beta = 0.0;
    double cost = 0.0;
    /** The point accepted after each step (Figure 10 trajectory). */
    std::vector<SearchStep> trajectory;
    /** Every point evaluated (for search-cost accounting). */
    int evaluations = 0;
    /**
     * Candidate evaluations served from a transposition table —
     * engine::ParamSearch fills these; the plain core search
     * executes every evaluation, so memoHits stays 0 and
     * simulated == evaluations.
     */
    int memoHits = 0;
    /** Cost-function executions actually performed. */
    int simulated = 0;
};

/**
 * Cost callback: objective values for a list of (alpha, beta) pairs,
 * in order; lower is better. Lets callers evaluate the independent
 * candidate points of one search step concurrently (e.g. on the
 * sweep engine's WorkerPool) while the search itself stays
 * sequential, so the result does not depend on how the batch runs.
 */
using BatchCostFn = std::function<std::vector<double>(
    const std::vector<std::pair<double, double>>&)>;

/**
 * Offline shrinking-radius (alpha, beta) search over the Section 3.6
 * radius and bounds, which it shares with the online tuner.
 */
class ParamSearch {
public:
    /**
     * Run the search from (a0, b0), evaluating each step's candidate
     * points through one batched call.
     */
    SearchResult optimize(const BatchCostFn& cost, double a0,
                          double b0) const;
};

/**
 * Windowed objective between two cumulative stats snapshots: the
 * UXCost (Algorithm 2) of the per-task deltas of the interval.
 */
double windowedObjective(const sim::RunStats& begin,
                         const sim::RunStats& end);

/** Non-blocking run-time (alpha, beta) tuner. */
class OnlineTuner {
public:
    explicit OnlineTuner(const DreamConfig& config);

    /**
     * Advance the tuner state machine; may update @p engine's
     * parameters.
     *
     * @return the time at which the tuner wants to be re-invoked, or
     *         a negative value if no timer is needed.
     */
    double update(const sim::SchedulerContext& ctx,
                  MapScoreEngine& engine);

    /**
     * Return to the initial (not-yet-started) state for a fresh run,
     * keeping the configuration.
     */
    void reset() { *this = OnlineTuner(config_); }

    /** True while a tuning round is in flight. */
    bool tuning() const { return phase_ == Phase::Trial; }
    /** Completed tuning rounds (radius shrink steps). */
    int completedSteps() const { return completedSteps_; }
    /** Tuning restarts triggered by workload changes. */
    int retriggers() const { return retriggers_; }

private:
    enum class Phase { Idle, Trial };

    struct Candidate {
        double alpha, beta, cost;
    };

    void buildCandidates();
    void startRound(const sim::SchedulerContext& ctx,
                    MapScoreEngine& engine);
    void beginTrial(const sim::SchedulerContext& ctx,
                    MapScoreEngine& engine, size_t candidate);
    void finishRound(MapScoreEngine& engine);
    uint64_t fingerprint(const sim::SchedulerContext& ctx) const;

    DreamConfig config_;
    Phase phase_ = Phase::Idle;
    double radius_ = 0.0;
    double curAlpha_ = 1.0;
    double curBeta_ = 1.0;
    std::vector<Candidate> candidates_;
    size_t trialIdx_ = 0;
    double trialEndUs_ = -1.0;
    sim::RunStats trialStart_;
    uint64_t lastFingerprint_ = 0;
    double lastViolationFraction_ = 0.0;
    bool started_ = false;
    int completedSteps_ = 0;
    int retriggers_ = 0;
};

} // namespace core
} // namespace dream

#endif // DREAM_CORE_ADAPTIVITY_H
