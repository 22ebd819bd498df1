/**
 * @file
 * Memoized (alpha, beta) search on the sweep engine — the
 * transposition-table upgrade of core::ParamSearch (the AlphaBetaSearch
 * + Dictionary idiom) and the one search path of Figures 3, 10, 11
 * and 13.
 *
 * The shrinking-radius search of Section 3.6 re-visits parameter
 * points constantly: clamped candidates collapse onto bounds,
 * interpolated moves land on already-probed pairs, and consecutive
 * searches over one workload (Figure 10's case (c) -> (d)) re-walk
 * the same region. engine::ParamSearch runs the core search through
 * a transposition table keyed by the exact (alpha, beta) bit
 * patterns — a simulated point is never re-run, and the table
 * survives across optimize() calls on one searcher. The table is
 * only valid for one evaluator, so a searcher owns its evaluator.
 *
 * Determinism: the memo only short-circuits re-evaluations of a
 * deterministic evaluator at bit-identical points, so optimize()
 * returns the exact SearchResult (trajectory included) the
 * un-memoized batched search returns — asserted in
 * tests/test_param_search.cc.
 */

#ifndef DREAM_ENGINE_PARAM_SEARCH_H
#define DREAM_ENGINE_PARAM_SEARCH_H

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/adaptivity.h"

namespace dream {
namespace engine {

/** Memoized (alpha, beta) searcher. */
class ParamSearch {
public:
    /**
     * Search over @p evaluate (engine::makeBatchEvaluator for
     * simulation objectives) with core::ParamSearch's Section 3.6
     * radii and bounds.
     */
    explicit ParamSearch(core::BatchCostFn evaluate);

    /**
     * Run the memoized search from (a0, b0). Identical SearchResult
     * to core::ParamSearch::optimize with the same evaluator;
     * memoHits/simulated report this call's transposition traffic.
     */
    core::SearchResult optimize(double a0, double b0);

    /** Cost-function executions across this searcher's lifetime. */
    uint64_t simulations() const { return simulations_; }
    /** Evaluations served from the transposition table. */
    uint64_t transpositionHits() const { return hits_; }
    /** Distinct (alpha, beta) points held. */
    size_t tableSize() const { return table_.size(); }

private:
    /** Exact transposition key: the candidate's (alpha, beta) bits. */
    using PointKey = std::pair<uint64_t, uint64_t>;

    /** @p pts' costs, simulating only points the table lacks. */
    std::vector<double>
    lookup(const std::vector<std::pair<double, double>>& pts);

    /** The un-memoized Section 3.6 walk, run over lookup(). */
    core::ParamSearch walk_;
    core::BatchCostFn evaluate_;
    std::map<PointKey, double> table_;
    uint64_t simulations_ = 0;
    uint64_t hits_ = 0;
};

} // namespace engine
} // namespace dream

#endif // DREAM_ENGINE_PARAM_SEARCH_H
