/**
 * @file
 * Experiment harness: the one offline run set-up (runOnce) and a
 * scheduler factory covering every scheduler in the repo.
 */

#ifndef DREAM_RUNNER_EXPERIMENT_H
#define DREAM_RUNNER_EXPERIMENT_H

#include <memory>
#include <string>
#include <vector>

#include "core/dream_config.h"
#include "core/dream_scheduler.h"
#include "hw/system.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

namespace dream {

namespace runner {

/** Every scheduler evaluated in the paper. */
enum class SchedKind {
    Fcfs,
    StaticFcfs,
    Veltair,
    Planaria,
    DreamFixed,     ///< MapScore with fixed alpha = beta = 1
    DreamMapScore,  ///< Table 4 row 1
    DreamSmartDrop, ///< Table 4 row 2
    DreamFull,      ///< Table 4 row 3
};

/** Instantiate a scheduler. */
std::unique_ptr<sim::Scheduler> makeScheduler(SchedKind kind);

/** The scheduler set of Figures 7, 8 and 12. */
std::vector<SchedKind> evaluationSchedulers();

/** Every SchedKind, in declaration order (name-lookup registries). */
std::vector<SchedKind> allSchedKinds();

/** Display name of a scheduler kind. */
const char* toString(SchedKind kind);

/**
 * The kind whose display name is @p name, into @p out (when
 * non-null). Returns false for an unknown name.
 */
bool parseSchedKind(const std::string& name, SchedKind* out);

/**
 * The one offline run set-up: acquire the shared cost table of
 * (@p system, @p scenario) and run one sim::Simulator configured by
 * @p config (window, seed, arrival source, hooks) under
 * @p sched. A metrics registry in @p config also records the cache
 * outcome (the volatile costcache/{hit,miss,evict} counters, see
 * cost::acquireCostTable).
 */
sim::RunStats runOnce(const hw::SystemConfig& system,
                      const workload::Scenario& scenario,
                      sim::Scheduler& sched, const sim::SimConfig& config);

/** Default evaluation window (2 s, the paper's Texec example). */
constexpr double kDefaultWindowUs = 2e6;

/** Default seed set of the multi-seed benches. */
std::vector<uint64_t> defaultSeeds();

} // namespace runner
} // namespace dream

#endif // DREAM_RUNNER_EXPERIMENT_H
