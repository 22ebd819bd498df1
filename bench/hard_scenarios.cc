/**
 * @file
 * Hard-scenarios regression sweep: runs every entry of a versioned
 * hard-scenarios suite (scenarios/hard_v1.json — worst-case mixes
 * found by tools/dream_hunt) across the evaluation scheduler set, on
 * the suite's system / window / seeds. The full bench toolchain
 * applies for free: --shard legs for dream_merge, --record-trace,
 * --metrics, dream_diff on the --out CSV — which is exactly how CI
 * gates the suite (.github/workflows/ci.yml, job hard-scenarios).
 *
 * Besides the sweep itself, the report compares each scheduler's
 * measured UXCost against the suite's recorded expected value;
 * --check-expected TOL turns drift beyond the relative tolerance
 * into exit code 1 (a self-contained gate when no golden CSV is at
 * hand).
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_main.h"
#include "engine/engine.h"
#include "runner/experiment.h"
#include "runner/table.h"
#include "workload/scenario_suite.h"

using namespace dream;

int
main(int argc, char** argv)
{
    std::string suite_path = "scenarios/hard_v1.json";
    double check_tol = -1.0; // < 0: no expected-value check
    const auto opts = bench::parseArgs(
        argc, argv, bench::Kind::Grid,
        [&](flags::Table& table, const bench::Options&) {
            table.add({"--suite", "", "F",
                       "hard-scenarios suite JSON (default\n"
                       "scenarios/hard_v1.json)",
                       flags::nonEmpty(&suite_path)});
            table.add({"--check-expected", "", "TOL",
                       "exit 1 if any UXCost drifts beyond this relative\n"
                       "tolerance (>= 0) from the suite's expected value",
                       flags::real(&check_tol, 0.0)});
        });

    workload::HardScenarioSuite suite;
    try {
        suite = workload::loadHardScenarioSuite(suite_path);
    } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    // The loader rejects unknown system names.
    hw::SystemPreset preset = hw::SystemPreset::Sys4k1Ws2Os;
    hw::parseSystemPreset(suite.system, &preset);

    const auto schedulers = runner::evaluationSchedulers();
    engine::SweepGrid grid;
    grid.addHardScenarios(suite)
        .addSystem(preset)
        .seeds(suite.seeds)
        .window(suite.windowUs);
    for (const auto kind : schedulers)
        grid.addScheduler(kind);

    engine::AggregateSink agg;
    if (!bench::run(opts, {{grid}}, {&agg}))
        return 0;

    std::printf("Hard-scenarios sweep: %zu adversarial mixes (%s) on "
                "%s, window %.0f us, %zu seed%s\n\n",
                suite.entries.size(), suite_path.c_str(),
                suite.system.c_str(), suite.windowUs,
                suite.seeds.size(),
                suite.seeds.size() == 1 ? "" : "s");

    // Expected UXCost per (entry, scheduler) from the suite file.
    std::map<std::pair<std::string, std::string>, double> expected;
    for (const auto& entry : suite.entries) {
        for (const auto& [sched, ux] : entry.expected)
            expected[{entry.name, sched}] = ux;
    }

    double worst_drift = 0.0;
    std::string worst_cell;
    runner::Table t({"Scenario", "Scheduler", "UXCost", "Expected",
                     "Drift", "Violated", "Dropped"});
    for (const auto& cell : agg.cells()) {
        const auto it = expected.find({cell.scenario, cell.scheduler});
        std::string exp_text = "-", drift_text = "-";
        if (it != expected.end()) {
            const double drift =
                std::fabs(cell.uxCost.mean - it->second) /
                std::max(std::fabs(it->second), 1e-12);
            exp_text = runner::fmt(it->second, 4);
            drift_text = runner::fmtPct(drift);
            if (drift > worst_drift) {
                worst_drift = drift;
                worst_cell = cell.scenario + "/" + cell.scheduler;
            }
        }
        t.addRow({cell.scenario, cell.scheduler,
                  runner::fmt(cell.uxCost.mean, 4), exp_text,
                  drift_text,
                  runner::fmtPct(cell.violationFraction.mean),
                  runner::fmtPct(cell.dropRate.mean)});
    }
    t.print();

    if (check_tol >= 0.0) {
        if (worst_drift > check_tol) {
            std::fprintf(stderr,
                         "FAIL: UXCost drift %.3g on %s exceeds "
                         "--check-expected %.3g\n",
                         worst_drift, worst_cell.c_str(), check_tol);
            return 1;
        }
        std::printf("\nexpected-value check passed: worst drift "
                    "%.3g (tolerance %.3g)\n",
                    worst_drift, check_tol);
    }
    std::printf("\nthese mixes were found by tools/dream_hunt "
                "maximizing scheduler UXCost; regenerate with the\n"
                "policy in scenarios/README.md. CI sweeps this bench "
                "and gates the CSV with dream_diff.\n");
    return 0;
}
