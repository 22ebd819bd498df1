/**
 * @file
 * Randomized RTMM scenario synthesis: a seeded generator that builds
 * Scenario instances (task count, model mix from the zoo, fps
 * distribution, chain/tree dependency shapes, trigger probabilities,
 * activation windows) behind a declarative ScenarioGenSpec. Generated
 * scenarios stress schedulers far beyond the five Table 3 presets,
 * and plug directly into the sweep engine as a grid axis (see
 * engine::SweepGrid::addGeneratedScenarios).
 */

#ifndef DREAM_WORKLOAD_SCENARIO_GEN_H
#define DREAM_WORKLOAD_SCENARIO_GEN_H

#include <cstdint>
#include <string>
#include <vector>

#include "workload/scenario.h"

namespace dream {
namespace workload {

/**
 * Distribution bounds for randomized scenario synthesis. The
 * defaults produce mixes comparable in size and load to the Table 3
 * presets (2-8 tasks, standard camera/display frame rates, mostly
 * shallow dependency trees, occasional activation windows).
 *
 * Models are drawn from the full zoo (all fourteen Table 3 networks,
 * including the dynamic ones).
 *
 * The dynamicity knobs below (skip/early-exit overrides,
 * Supernet presence, target aggregate load) all default to
 * "disabled": a default-constructed spec generates byte-identical
 * scenarios to the pre-knob generator, so existing seeded sweeps
 * (bench/gen_scenarios) keep their mixes. They exist for the
 * adversarial scenario hunt (engine::ScenarioSearch), which searches
 * over them for worst-case mixes.
 */
struct ScenarioGenSpec {
    /** Task count range (inclusive). */
    int minTasks = 2;
    int maxTasks = 8;
    /** FPS targets are drawn from the standard rates within range. */
    double minFps = 5.0;
    double maxFps = 60.0;
    /** P(a non-first task depends on an earlier task). */
    double chainProb = 0.45;
    /** Trigger-probability range of dependent (cascade) tasks. */
    double minTriggerProb = 0.3;
    double maxTriggerProb = 1.0;
    /** P(a task is active only inside a window, task dynamicity). */
    double activationProb = 0.2;
    /** Horizon used to size activation windows (microseconds). */
    double horizonUs = 2e6;

    // ------------------------------------------- dynamicity knobs
    /**
     * Per-task skip-gate probability override range. When >= 0, each
     * task draws one probability in [skipProbMin, skipProbMax] and
     * every SkipBlock of its model uses it instead of the zoo
     * default (models without skip blocks are unaffected). -1
     * disables the override.
     */
    double skipProbMin = -1.0;
    double skipProbMax = -1.0;
    /**
     * Per-task early-exit probability override range, applied to
     * every EarlyExit of the task's model. -1 disables.
     */
    double exitProbMin = -1.0;
    double exitProbMax = -1.0;
    /**
     * P(a task's model is Supernet-based). When >= 0, each task
     * first draws whether it is a Supernet task, then draws its
     * model from the matching zoo subset (falling back to the whole
     * zoo if the subset is empty). -1 keeps the unbiased draw.
     */
    double supernetProb = -1.0;
    /**
     * Target aggregate accelerator load (sum over tasks of
     * effective-fps x whole-model latency, as reported by
     * bench/tab03_scenarios; 1.0 ~ one fully busy reference
     * accelerator). When > 0, model and fps draws are biased toward
     * it: each task draws a few candidate models and picks the
     * (model, standard rate) pair whose load lands closest to an
     * even share of the remaining target. Latencies come from the
     * process-wide cost::CostTableCache (one shared table for the
     * whole zoo), so the bias costs one table build per process.
     * 0 disables the bias.
     */
    double targetLoad = 0.0;
    /**
     * Display name of the hw::SystemPreset the target load is costed
     * on (empty selects the default heterogeneous 4K preset,
     * "4K-1WS+2OS"). Part of the spec so a (spec, seed) pair alone
     * reproduces the scenario on any host.
     */
    std::string loadSystem;
};

/**
 * Validity check for the spec itself — the gate suite files pass
 * before a spec is ever handed to a generator: finite in-range
 * probabilities (and both-or-neither override ranges), ordered
 * task/fps/trigger bounds, positive horizon, a known loadSystem
 * name, non-negative finite targetLoad. NaN in any knob fails. On
 * failure returns false and, when @p error is non-null, stores a
 * description of the first violation.
 */
bool validateGenSpec(const ScenarioGenSpec& spec,
                     std::string* error = nullptr);

/**
 * Seeded deterministic scenario generator.
 *
 * generate(seed) is a pure function of (spec, seed): the same seed
 * always yields the identical scenario (names, models, fps values,
 * dependency edges, trigger probabilities, activation windows), on
 * every platform — randomness comes from a splitmix64 hash chain,
 * never from implementation-defined std distributions.
 */
class ScenarioGenerator {
public:
    explicit ScenarioGenerator(ScenarioGenSpec spec = {});

    /** Synthesize the scenario of @p seed (named "Gen<seed>"). */
    Scenario generate(uint64_t seed) const;

private:
    ScenarioGenSpec spec_;
    /** Zoo indices of Supernet / plain models (supernetProb >= 0). */
    std::vector<size_t> supernetPool_;
    std::vector<size_t> plainPool_;
    /**
     * Whole-model latency (seconds, averaged across the loadSystem
     * accelerators) per zoo model; empty unless targetLoad > 0.
     * Costed once from the shared cost-table cache.
     */
    std::vector<double> poolLatencySec_;
};

/**
 * Validity check every generated scenario must pass (and every
 * hand-written one should): non-empty task list, finite fps > 0,
 * in-range dependency edges forming a forest (acyclic, no
 * self-dependency), trigger probabilities in [0, 1] — and exactly
 * 1 (the inert default) on tasks with no dependency, where a gate
 * probability is meaningless and indicates a malformed (e.g.
 * hand-edited) task list — and activation windows with start < end.
 * On failure returns false and, when @p error is non-null, stores a
 * description of the first violation.
 */
bool validateScenario(const Scenario& scenario,
                      std::string* error = nullptr);

} // namespace workload
} // namespace dream

#endif // DREAM_WORKLOAD_SCENARIO_GEN_H
