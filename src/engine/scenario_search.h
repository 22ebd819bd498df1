/**
 * @file
 * Adversarial scenario hunting: a memoized multi-start search over
 * workload::ScenarioGenSpec knobs x generation seed that MAXIMIZES a
 * chosen scheduler's UXCost (or its gap over FCFS) — the mirror image
 * of ParamSearch, which minimizes over (alpha, beta) at a fixed
 * scenario. Where every other sweep in the repo asks "how well does
 * DREAM do on these mixes?", the hunt asks "which mixes hurt it
 * most?" — and every answer is reproducible from (spec, genSeed)
 * alone, ready to be persisted into the hard-scenarios suite
 * (workload/scenario_suite.h) and re-swept in CI.
 *
 * Like ParamSearch, it keeps
 *  - a transposition table keyed by the candidate's exact identity
 *    (serializeGenSpec(spec) + genSeed) — a (spec, seed) pair is
 *    never simulated twice, across rounds, starts and run() calls;
 *  - batch evaluation with in-batch dedup, so duplicate candidates
 *    inside one round cost one simulation (tests assert
 *    simulations() == tableSize()).
 * Unlike ParamSearch, which walks from one start, it runs a depth-0
 * probe pass over several starts, explores them best-first, and
 * prunes the starts the incumbent dominates.
 *
 * Candidates are evaluated through engine::Engine as ordinary sweep
 * grids (target scheduler + FCFS baseline per candidate), so --jobs
 * parallelism and the process-wide cost-table cache apply unchanged.
 * The search trajectory is a pure function of (Options, searchSeed):
 * the evaluator consumes no randomness, so results are byte-identical
 * for any worker count.
 */

#ifndef DREAM_ENGINE_SCENARIO_SEARCH_H
#define DREAM_ENGINE_SCENARIO_SEARCH_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hw/system.h"
#include "runner/experiment.h"
#include "workload/scenario_gen.h"

namespace dream {
namespace engine {

/** Memoized multi-start hunt for worst-case generated scenarios. */
class ScenarioSearch {
public:
    /** What "hard" means. */
    enum class Goal {
        /** Maximize the target scheduler's UXCost outright. */
        MaxUxCost,
        /**
         * Maximize (target UXCost - FCFS UXCost): mixes where the
         * smart scheduler does WORSE than the naive baseline.
         */
        MaxGap,
    };

    struct Options {
        /** Scheduler under attack. */
        runner::SchedKind scheduler = runner::SchedKind::DreamFull;
        Goal goal = Goal::MaxUxCost;
        /** System the candidates are simulated on. */
        hw::SystemPreset system = hw::SystemPreset::Sys4k1Ws2Os;
        /** Hard cap on distinct (spec, seed) simulations. */
        int budget = 160;
        /** Independent probe starts (start 0 is the base spec). */
        int starts = 6;
        /** Seed of the search trajectory (mutation draws). */
        uint64_t searchSeed = 1;
        /** Simulation seed every candidate is evaluated with. */
        uint64_t simSeed = 11;
        /** Simulated window per evaluation (microseconds). */
        double windowUs = 1e6;
        /** Worker threads for candidate batches (engine --jobs). */
        int jobs = 1;
        /** Spec the mutations start from (pool must be default). */
        workload::ScenarioGenSpec base;
    };

    /** One evaluated (spec, genSeed) point. */
    struct Candidate {
        workload::ScenarioGenSpec spec;
        uint64_t genSeed = 0;
        /** Objective value (higher = harder), per Options::goal. */
        double value = 0.0;
        /** Target scheduler's UXCost. */
        double uxTarget = 0.0;
        /** FCFS baseline UXCost on the same mix. */
        double uxBaseline = 0.0;
    };

    struct Result {
        /** The hardest mix found (frontier.front()). */
        Candidate best;
        /**
         * Every distinct candidate evaluated, hardest first (ties:
         * evaluation order). Deterministic for a given (Options,
         * searchSeed) — reports built from it are byte-stable.
         */
        std::vector<Candidate> frontier;
    };

    /**
     * Batched candidate evaluator: (uxTarget, uxBaseline) per
     * (spec, genSeed), in order. Must be deterministic.
     */
    using BatchEvalFn =
        std::function<std::vector<std::pair<double, double>>(
            const std::vector<
                std::pair<workload::ScenarioGenSpec, uint64_t>>&)>;

    /**
     * Engine-backed search: candidates are evaluated as SweepGrid
     * batches (one scenario-axis value per candidate, the target
     * scheduler plus FCFS) on an internal Engine with opts.jobs
     * workers.
     */
    explicit ScenarioSearch(Options opts);

    /**
     * Search over an explicit evaluator (tests, custom objectives).
     */
    ScenarioSearch(BatchEvalFn evaluate, Options opts);

    /** Run the hunt. Repeated calls extend the same memo table. */
    Result run();

    /** Distinct candidates actually simulated. */
    uint64_t simulations() const { return simulations_; }
    /** Evaluations served from the transposition table. */
    uint64_t transpositionHits() const { return hits_; }
    /** Distinct (spec, genSeed) identities held. */
    size_t tableSize() const { return table_.size(); }
    /** Starts cut by the incumbent bound. */
    uint64_t prunedStarts() const { return pruned_; }

private:
    /**
     * Exact candidate identity: the canonical spec serialisation
     * (every knob shortest-round-trip, so bit-equal specs, and only
     * those, match) plus the generation seed.
     */
    using CandidateKey = std::pair<std::string, uint64_t>;

    /** Evaluate a batch through the memo; appends new Candidates. */
    std::vector<Candidate> memoizedBatch(
        const std::vector<
            std::pair<workload::ScenarioGenSpec, uint64_t>>& pts);

    Candidate climbFrom(const Candidate& start, uint64_t& rng);
    std::pair<workload::ScenarioGenSpec, uint64_t>
    mutate(const workload::ScenarioGenSpec& spec, uint64_t genSeed,
           double radius, uint64_t& rng) const;

    Options opts_;
    BatchEvalFn evaluate_;
    /** Memo: candidate identity -> evaluated candidate. */
    std::map<CandidateKey, Candidate> table_;
    /** Every distinct evaluated candidate, in evaluation order. */
    std::vector<Candidate> evaluated_;
    uint64_t simulations_ = 0;
    uint64_t hits_ = 0;
    uint64_t pruned_ = 0;
};

} // namespace engine
} // namespace dream

#endif // DREAM_ENGINE_SCENARIO_SEARCH_H
