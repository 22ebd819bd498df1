/**
 * @file
 * The versioned "hard scenarios" regression suite: worst-case
 * generated mixes found by the adversarial scenario hunt
 * (engine::ScenarioSearch / tools/dream_hunt), persisted as
 * schema-versioned JSON and swept in CI by bench/hard_scenarios.
 *
 * An entry is reproducible from (spec, genSeed) alone — the suite
 * stores the generator spec and seed, never materialised task lists
 * — plus the expected per-scheduler UXCost at the suite's (system,
 * window, simulation seed), which the bench re-checks. The loader
 * routes every entry through validateGenSpec and validateScenario,
 * so a hand-edited file fails loudly (path:line:col + entry index),
 * never as a mysterious mid-sweep crash.
 */

#ifndef DREAM_WORKLOAD_SCENARIO_SUITE_H
#define DREAM_WORKLOAD_SCENARIO_SUITE_H

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "workload/scenario_gen.h"

namespace dream {
namespace workload {

/** Schema identifier written to (and required of) suite files. */
inline constexpr const char* kHardSuiteSchemaV1 =
    "dream-hard-scenarios-v1";

/** One hard mix: a generator spec + generation seed. */
struct HardScenarioEntry {
    /** Unique entry name — the scenario-axis value in sweeps. */
    std::string name;
    /** Generator spec (pool always the full zoo). */
    ScenarioGenSpec spec;
    /** ScenarioGenerator::generate seed. */
    uint64_t genSeed = 0;
    /**
     * Expected mean UXCost per scheduler at the suite's (system,
     * window, seeds), in file order. Informative for reports and
     * re-checked by bench/hard_scenarios --strict-expected.
     */
    std::vector<std::pair<std::string, double>> expected;
};

/** A complete suite: shared sweep identity + the hard entries. */
struct HardScenarioSuite {
    /** Display name of the hw::SystemPreset the suite runs on. */
    std::string system;
    /** Simulated window per run (microseconds). */
    double windowUs = 1e6;
    /** Simulation seeds the expected values were measured with. */
    std::vector<uint64_t> seeds{11};
    std::vector<HardScenarioEntry> entries;
};

/**
 * Canonical one-line serialisation of a generator spec
 * ("minTasks=2,maxTasks=8,..."): the identity ScenarioSearch keys
 * its transposition table by, and the stable textual form hunt
 * reports print. Two specs serialise equally iff every knob is
 * bit-identical (doubles render shortest-round-trip).
 */
std::string serializeGenSpec(const ScenarioGenSpec& spec);

/**
 * Parse and validate a suite. Every entry's spec passes
 * validateGenSpec, every generated (spec, genSeed) scenario passes
 * validateScenario, names are unique and non-empty, the system is a
 * known hw preset, window and seeds are sane.
 *
 * @throws std::runtime_error "<context>:<line>:<col>: <what>"
 * (@p context is e.g. the file path), naming the entry index and
 * name for per-entry failures. Duplicate keys are errors, and so are
 * non-finite numbers.
 */
HardScenarioSuite loadHardScenarioSuite(std::istream& in,
                                        const std::string& context);

/** loadHardScenarioSuite from a file; errors name @p path. */
HardScenarioSuite loadHardScenarioSuite(const std::string& path);

/**
 * Write @p suite as schema-versioned JSON. Deterministic: fixed
 * field order, shortest-round-trip numbers — byte-identical output
 * for equal suites, so re-running a seeded hunt reproduces the file
 * exactly.
 */
void saveHardScenarioSuite(const HardScenarioSuite& suite,
                           std::ostream& out);

/** saveHardScenarioSuite to a file; throws if unwritable. */
void saveHardScenarioSuite(const HardScenarioSuite& suite,
                           const std::string& path);

} // namespace workload
} // namespace dream

#endif // DREAM_WORKLOAD_SCENARIO_SUITE_H
