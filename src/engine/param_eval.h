/**
 * @file
 * (alpha, beta) parameter-space evaluation on the sweep engine, for
 * Figures 3, 10, 11 and 13.
 *
 * Every parameter evaluation runs one DREAM configuration,
 * fixedParamConfig(): the scheduler axis of paramSpaceGrid() (the
 * [0, 2]^2 scan as a SweepGrid, run through Engine::run() with any
 * --jobs value), makeBatchEvaluator() (the cost function behind
 * engine::ParamSearch, evaluating a batch of pairs concurrently on a
 * WorkerPool) and Figure 13's re-evaluation of a found pair.
 */

#ifndef DREAM_ENGINE_PARAM_EVAL_H
#define DREAM_ENGINE_PARAM_EVAL_H

#include <vector>

#include "core/adaptivity.h"
#include "core/dream_config.h"
#include "engine/engine.h"
#include "engine/sweep_grid.h"
#include "engine/worker_pool.h"
#include "metrics/uxcost.h"

namespace dream {
namespace engine {

/** Window used for each parameter evaluation run. */
constexpr double kSearchWindowUs = 1e6;

/** Seed of parameter evaluation runs. */
constexpr uint64_t kSearchSeed = 11;

/**
 * The configuration every (alpha, beta) evaluation runs: DREAM with
 * the MapScore parameters fixed at (@p alpha, @p beta) and smart
 * frame drop on.
 */
core::DreamConfig fixedParamConfig(double alpha, double beta);

/**
 * Cost function over batches of (alpha, beta) pairs: the objective
 * of a fixedParamConfig() run of (system, scenario) per pair, over
 * kSearchWindowUs with kSearchSeed, evaluated concurrently on
 * @p pool. Captures @p system, @p scenario and @p pool by reference.
 */
core::BatchCostFn
makeBatchEvaluator(const hw::SystemConfig& system,
                   const workload::Scenario& scenario,
                   const WorkerPool& pool,
                   metrics::Objective objective =
                       metrics::Objective::UxCost);

/**
 * Scheduler axis of parameter sweeps: fixedParamConfig() DREAM,
 * reading the grid parameters "alpha" and "beta".
 */
SchedulerSpec dreamFixedParamScheduler();

/**
 * The n x n scan of (alpha, beta) in [0, 2]^2 used as the global-
 * optimum reference of Figures 3, 10 and 11, as an engine grid:
 * one scenario, one system, dreamFixedParamScheduler(), linspace
 * parameter axes "alpha" (outer) and "beta" (inner), kSearchSeed
 * and kSearchWindowUs.
 */
SweepGrid paramSpaceGrid(hw::SystemPreset system,
                         workload::ScenarioPreset scenario, int n);

/** Minimum-UXCost point of a parameter sweep's records. */
struct ParamOptimum {
    double alpha = 0.0;
    double beta = 0.0;
    double cost = 0.0;
};

/**
 * Locate the optimum over @p records (first record wins ties, i.e.
 * row-major grid order).
 */
ParamOptimum bestParams(const std::vector<RunRecord>& records);

} // namespace engine
} // namespace dream

#endif // DREAM_ENGINE_PARAM_EVAL_H
