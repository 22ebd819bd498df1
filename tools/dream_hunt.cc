/**
 * @file
 * dream_hunt — the adversarial scenario hunter CLI.
 *
 * Runs engine::ScenarioSearch over workload::ScenarioGenSpec knobs x
 * generation seed to find the mixes that maximize a scheduler's
 * UXCost (or its gap over FCFS), then:
 *  - prints a markdown report of the frontier (byte-deterministic
 *    for a given --seed: no timestamps, no wall-clock, shortest
 *    round-trip numbers), comparing the hardest find against the
 *    worst Table 3 preset;
 *  - optionally persists the top mixes as a schema-versioned
 *    hard-scenarios suite (--suite scenarios/hard_v1.json), each
 *    entry re-evaluated across the full evaluation scheduler set so
 *    the file carries expected UXCosts for bench/hard_scenarios and
 *    the CI gate to re-check.
 *
 * Run with --help for the flags.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/scenario_search.h"
#include "engine/sweep_grid.h"
#include "runner/experiment.h"
#include "runner/table.h"
#include "util/flags.h"
#include "workload/scenario_suite.h"

using namespace dream;

namespace {

/** %.6g — compact, deterministic report numbers. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

} // anonymous namespace

int
main(int argc, char** argv)
{
    engine::ScenarioSearch::Options sopts;
    int top = 8;
    std::string suite_path, report_path;

    flags::Table table;
    table.add({"--scheduler", "", "NAME",
               "scheduler under attack (default DREAM-Full)",
               flags::choice(&sopts.scheduler,
                             flags::namesOf(runner::allSchedKinds(),
                                            [](runner::SchedKind k) {
                                                return std::string(
                                                    runner::toString(k));
                                            }))});
    table.add({"--objective", "", "O",
               "uxcost = maximize the scheduler's UXCost; gap = maximize\n"
               "its UXCost minus FCFS's (default uxcost)",
               flags::choice(
                   &sopts.goal,
                   std::vector<std::pair<std::string,
                                         engine::ScenarioSearch::Goal>>{
                       {"uxcost", engine::ScenarioSearch::Goal::MaxUxCost},
                       {"gap", engine::ScenarioSearch::Goal::MaxGap}})});
    table.add({"--budget", "", "N",
               "distinct (spec, seed) simulations (default 160)",
               flags::integer(&sopts.budget, 1)});
    table.add({"--starts", "", "N", "independent search starts (default 6)",
               flags::integer(&sopts.starts, 1)});
    table.add({"--jobs", "-j", "N",
               "worker threads for candidate batches (default 1; 0 = all\n"
               "cores; any value is byte-identical)",
               flags::integer(&sopts.jobs)});
    table.add({"--seed", "", "S",
               "search-trajectory seed (default 1); same seed, same\n"
               "report, byte for byte",
               flags::integer(&sopts.searchSeed)});
    table.add({"--sim-seed", "", "S",
               "simulation seed per candidate (default 11)",
               flags::integer(&sopts.simSeed)});
    table.add({"--window", "", "US",
               "simulated window per candidate, >= 1 (default 1e6)",
               flags::real(&sopts.windowUs, 1.0)});
    table.add({"--system", "", "PRESET",
               "system preset display name (default 4K-1WS+2OS)",
               flags::choice(&sopts.system,
                             flags::namesOf(hw::allSystemPresets(),
                                            [](hw::SystemPreset p) {
                                                return hw::toString(p);
                                            }))});
    table.add({"--top", "", "K",
               "frontier entries reported / persisted (default 8)",
               flags::integer(&top, 1)});
    table.add({"--suite", "", "FILE",
               "write the top mixes as a hard-scenarios suite (expected\n"
               "UXCosts re-evaluated across all evaluation schedulers)",
               flags::text(&suite_path)});
    table.add({"--report", "", "FILE",
               "write the markdown report to FILE instead of stdout",
               flags::text(&report_path)});
    table.check([&] {
        // Fail before the hunt, not after every simulation has run.
        for (const std::string* p : {&suite_path, &report_path}) {
            if (!p->empty() && !std::ofstream(*p).is_open())
                throw flags::Error("cannot open output file for writing: " +
                                   *p);
        }
    });
    table.parse(argc, argv);
    const std::string system_name = hw::toString(sopts.system);

    // Activation windows should fall inside the simulated window so
    // task dynamicity manifests (same discipline as gen_scenarios).
    sopts.base.horizonUs = sopts.windowUs;

    // Reference point: the target scheduler's UXCost on the five
    // Table 3 presets — "harder than anything the paper evaluates"
    // means beating the worst of these.
    engine::SweepGrid ref;
    for (const auto preset : workload::allScenarioPresets())
        ref.addScenario(preset);
    ref.addSystem(sopts.system)
        .addScheduler(sopts.scheduler)
        .seeds({sopts.simSeed})
        .window(sopts.windowUs);
    const engine::Engine engine(engine::EngineOptions(sopts.jobs));
    double ref_worst = 0.0;
    std::string ref_worst_name;
    for (const auto& r : engine.run(ref)) {
        if (r.uxCost > ref_worst) {
            ref_worst = r.uxCost;
            ref_worst_name = r.scenario;
        }
    }

    engine::ScenarioSearch search(sopts);
    const auto result = search.run();
    if (result.frontier.empty()) {
        std::fprintf(stderr, "hunt evaluated no candidates\n");
        return 1;
    }
    const size_t keep =
        std::min(size_t(top), result.frontier.size());

    // Re-evaluate the kept mixes across the full evaluation
    // scheduler set: the suite's expected values, and the report's
    // per-scheduler columns.
    const auto schedulers = runner::evaluationSchedulers();
    engine::SweepGrid final_grid;
    for (size_t i = 0; i < keep; ++i) {
        const auto& c = result.frontier[i];
        char name[32];
        std::snprintf(name, sizeof name, "hard-%02zu", i + 1);
        const workload::ScenarioGenSpec spec = c.spec;
        const uint64_t seed = c.genSeed;
        final_grid.addScenario(name, [spec, seed]() {
            const workload::ScenarioGenerator gen(spec);
            return gen.generate(seed);
        });
    }
    final_grid.addSystem(sopts.system)
        .seeds({sopts.simSeed})
        .window(sopts.windowUs);
    for (const auto kind : schedulers)
        final_grid.addScheduler(kind);
    const auto final_records = engine.run(final_grid);

    // ------------------------------------------------ the report
    std::ostringstream md;
    const char* goal_name =
        sopts.goal == engine::ScenarioSearch::Goal::MaxGap
            ? "gap"
            : "uxcost";
    md << "# dream_hunt report\n\n";
    md << "| config | value |\n|---|---|\n";
    md << "| scheduler | " << runner::toString(sopts.scheduler)
       << " |\n";
    md << "| objective | " << goal_name << " |\n";
    md << "| system | " << system_name << " |\n";
    md << "| window (us) | " << num(sopts.windowUs) << " |\n";
    md << "| budget | " << sopts.budget << " |\n";
    md << "| starts | " << sopts.starts << " |\n";
    md << "| search seed | " << sopts.searchSeed << " |\n";
    md << "| sim seed | " << sopts.simSeed << " |\n\n";
    md << "Search: " << search.simulations()
       << " distinct mixes simulated, " << search.transpositionHits()
       << " transposition hits, " << search.prunedStarts()
       << " starts pruned.\n\n";
    md << "Reference: worst Table 3 preset for "
       << runner::toString(sopts.scheduler) << " is "
       << ref_worst_name << " (UXCost " << num(ref_worst) << ").\n\n";

    const auto& best = result.best;
    const double ratio =
        ref_worst > 0.0 ? best.uxTarget / ref_worst : 0.0;
    md << "Hardest mix: UXCost " << num(best.uxTarget) << " ("
       << num(ratio) << "x the worst preset"
       << (best.uxTarget > ref_worst ? "" : " — NOT harder")
       << "), FCFS " << num(best.uxBaseline) << ", objective value "
       << num(best.value) << ".\n\n";

    md << "## frontier (top " << keep << " of "
       << result.frontier.size() << " evaluated)\n\n";
    md << "| rank | value | " << runner::toString(sopts.scheduler)
       << " | FCFS | gen seed | spec |\n";
    md << "|---|---|---|---|---|---|\n";
    for (size_t i = 0; i < keep; ++i) {
        const auto& c = result.frontier[i];
        md << "| " << (i + 1) << " | " << num(c.value) << " | "
           << num(c.uxTarget) << " | " << num(c.uxBaseline) << " | "
           << c.genSeed << " | `"
           << workload::serializeGenSpec(c.spec) << "` |\n";
    }

    md << "\n## per-scheduler UXCost of the kept mixes\n\n";
    md << "| mix |";
    for (const auto kind : schedulers)
        md << " " << runner::toString(kind) << " |";
    md << "\n|---|";
    for (size_t s = 0; s < schedulers.size(); ++s)
        md << "---|";
    md << "\n";
    // Flat order: scenario slowest, scheduler fastest (one system,
    // one seed) — mix i owns records [i*S, (i+1)*S).
    for (size_t i = 0; i < keep; ++i) {
        char name[32];
        std::snprintf(name, sizeof name, "hard-%02zu", i + 1);
        md << "| " << name << " |";
        for (size_t s = 0; s < schedulers.size(); ++s)
            md << " "
               << num(final_records[i * schedulers.size() + s].uxCost)
               << " |";
        md << "\n";
    }

    if (!report_path.empty()) {
        std::ofstream out(report_path);
        if (!out.is_open()) {
            std::fprintf(stderr,
                         "cannot open --report file for writing: "
                         "%s\n",
                         report_path.c_str());
            return 2;
        }
        out << md.str();
        std::printf("report written to %s\n", report_path.c_str());
    } else {
        std::fputs(md.str().c_str(), stdout);
    }

    if (!suite_path.empty()) {
        workload::HardScenarioSuite suite;
        suite.system = system_name;
        suite.windowUs = sopts.windowUs;
        suite.seeds = {sopts.simSeed};
        for (size_t i = 0; i < keep; ++i) {
            const auto& c = result.frontier[i];
            workload::HardScenarioEntry entry;
            char name[32];
            std::snprintf(name, sizeof name, "hard-%02zu", i + 1);
            entry.name = name;
            entry.spec = c.spec;
            entry.genSeed = c.genSeed;
            for (size_t s = 0; s < schedulers.size(); ++s) {
                entry.expected.emplace_back(
                    runner::toString(schedulers[s]),
                    final_records[i * schedulers.size() + s].uxCost);
            }
            suite.entries.push_back(std::move(entry));
        }
        try {
            workload::saveHardScenarioSuite(suite, suite_path);
        } catch (const std::runtime_error& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
        std::printf("suite written to %s (%zu entries)\n",
                    suite_path.c_str(), suite.entries.size());
    }
    return 0;
}
