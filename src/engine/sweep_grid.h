/**
 * @file
 * Declarative cartesian sweep grids for the experiment engine.
 *
 * A SweepGrid is the cross product of four axis families:
 * scenarios x systems x scheduler factories x free parameters, times
 * a seed list. Every flat index in [0, size()) decodes to one Point
 * (seed varies fastest, then the last parameter axis, ... scenario
 * slowest), so results are addressable and reproducible regardless
 * of execution order.
 */

#ifndef DREAM_ENGINE_SWEEP_GRID_H
#define DREAM_ENGINE_SWEEP_GRID_H

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hw/system.h"
#include "runner/experiment.h"
#include "sim/scheduler.h"
#include "workload/replay_source.h"
#include "workload/scenario.h"
#include "workload/scenario_gen.h"
#include "workload/scenario_suite.h"

namespace dream {
namespace engine {

/** Free-parameter values keyed by axis name, in axis order. */
using ParamMap = std::vector<std::pair<std::string, double>>;

/**
 * Value of parameter @p name in @p params; throws std::out_of_range
 * if no such parameter axis exists.
 */
double paramValue(const ParamMap& params, const std::string& name);

/**
 * Deterministic numeric formatting ("%.9g") shared by grid keys and
 * result sinks, so identical doubles always render identically.
 */
std::string formatValue(double v);

/**
 * Key fragment "a=0.25,b=1.5" of (parameter name, value text) pairs
 * (empty if none): the one format of a key's parameters, for grid
 * points and result CSV rows alike.
 */
std::string paramFragment(
    const std::vector<std::pair<std::string, std::string>>& params);

/** paramFragment of a parameter map, each value via formatValue. */
std::string paramFragment(const ParamMap& params);

/**
 * The aggregation-cell key of a grid point, its identity without the
 * seed: "scenario/system/scheduler", plus "/" and @p params_fragment
 * (a paramFragment) when the grid sweeps parameters.
 */
std::string cellKey(const std::string& scenario, const std::string& system,
                    const std::string& scheduler,
                    const std::string& params_fragment);

/**
 * Builds a scheduler for one grid point. The factory receives the
 * point's free-parameter values so parameterised schedulers (e.g.
 * fixed-(alpha, beta) DREAM) can be swept. Factories run on worker
 * threads and must be pure (no shared mutable state).
 */
using SchedulerFactory = std::function<std::unique_ptr<sim::Scheduler>(
    const ParamMap&)>;

/** One named value of the scenario axis. */
struct ScenarioSpec {
    std::string name;
    std::function<workload::Scenario()> make;
    /**
     * Recorded trace replayed as this scenario's arrivals; null for
     * generative scenarios. When set, every grid point of this
     * scenario drives the simulator through a workload::ReplaySource,
     * so all scheduler/config points see byte-identical load.
     */
    std::shared_ptr<const workload::FrameTrace> trace;
};

/** One named value of the system axis. */
struct SystemSpec {
    std::string name;
    std::function<hw::SystemConfig()> make;
};

/** One named value of the scheduler axis. */
struct SchedulerSpec {
    std::string name;
    SchedulerFactory make;
};

/** One free-parameter axis (name + swept values). */
struct ParamAxis {
    std::string name;
    std::vector<double> values;
};

/** Declarative cartesian experiment grid. */
class SweepGrid {
public:
    /** One fully-decoded grid point. */
    struct Point {
        size_t index = 0;
        std::string scenario;
        std::string system;
        std::string scheduler;
        ParamMap params;
        uint64_t seed = 0;
        double windowUs = 0.0;

        // Non-owning factory pointers into the grid (valid while the
        // grid is alive).
        const std::function<workload::Scenario()>* makeScenario =
            nullptr;
        const std::function<hw::SystemConfig()>* makeSystem = nullptr;
        const SchedulerFactory* makeScheduler = nullptr;
        /** Recorded trace to replay as arrivals; null = generate. */
        const workload::FrameTrace* trace = nullptr;

        /** Stable identity incl. seed, e.g. "VR/4K-2WS/FCFS/seed=11". */
        std::string key() const;
        /** Identity without the seed (the aggregation cell). */
        std::string cellKey() const;
    };

    /** Add a Table 3 scenario preset. */
    SweepGrid& addScenario(workload::ScenarioPreset preset,
                           double cascade_prob = 0.5);
    /** Add a custom named scenario factory. */
    SweepGrid& addScenario(std::string name,
                           std::function<workload::Scenario()> make);
    /**
     * Add @p count randomized scenarios synthesized from @p spec with
     * seeds seed0, seed0 + 1, ... as scenario axis values ("Gen<k>").
     * Generation is deterministic per seed, so grids built from the
     * same (spec, count, seed0) are identical across runs and hosts.
     */
    SweepGrid& addGeneratedScenarios(const workload::ScenarioGenSpec& spec,
                                     int count, uint64_t seed0 = 1);
    /**
     * Add every entry of a hard-scenarios suite as a scenario-axis
     * value (named after the entry, regenerated from its
     * (spec, genSeed) pair). Only the scenario axis is touched: the
     * caller applies the suite's system, window and seeds — see
     * bench/hard_scenarios for the canonical mirror-the-suite setup.
     */
    SweepGrid& addHardScenarios(const workload::HardScenarioSuite& suite);
    /**
     * Add one recorded trace as a scenario-axis value: every grid
     * point of this scenario replays the trace's exact arrival/
     * deadline sequence (workload::ReplaySource) instead of
     * generating periodic arrivals, so every scheduler/config point
     * in the sweep sees byte-identical load. For bit-exact
     * reproduction of the recorded run, the grid's seed list must
     * contain the recording seed (execution paths re-materialise
     * from it). @p spec.make builds the recorded scenario (same task
     * list) and @p spec.trace must be set.
     */
    SweepGrid& addTraceReplay(ScenarioSpec spec);
    /** Add a Table 2 system preset. */
    SweepGrid& addSystem(hw::SystemPreset preset);
    /** Add a custom named system factory. */
    SweepGrid& addSystem(std::string name,
                         std::function<hw::SystemConfig()> make);
    /** Add one of the repo's stock schedulers. */
    SweepGrid& addScheduler(runner::SchedKind kind);
    /** Add a custom named scheduler factory. */
    SweepGrid& addScheduler(std::string name, SchedulerFactory make);
    /** Add a free-parameter axis with explicit values. */
    SweepGrid& addParam(std::string name, std::vector<double> values);
    /** Add a free-parameter axis with n evenly spaced values. */
    SweepGrid& linspaceParam(std::string name, double lo, double hi,
                             int n);
    /** Replace the seed list (default: {11}). */
    SweepGrid& seeds(std::vector<uint64_t> s);
    /** Set the simulated window (default: runner::kDefaultWindowUs). */
    SweepGrid& window(double us);

    /** Total number of grid points (0 if any axis is empty). */
    size_t size() const;
    /** Decode flat @p index into a Point. */
    Point point(size_t index) const;

    const std::vector<uint64_t>& seedList() const { return seeds_; }
    double windowUs() const { return windowUs_; }

private:
    std::vector<ScenarioSpec> scenarios_;
    std::vector<SystemSpec> systems_;
    std::vector<SchedulerSpec> schedulers_;
    std::vector<ParamAxis> params_;
    std::vector<uint64_t> seeds_{11};
    double windowUs_ = runner::kDefaultWindowUs;
};

} // namespace engine
} // namespace dream

#endif // DREAM_ENGINE_SWEEP_GRID_H
