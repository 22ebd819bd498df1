/**
 * @file
 * Figure 10 reproduction: MapScore parameter search trajectories on
 * four workload-change cases in the 4K 1OS+2WS setting:
 *   (a) IDLE -> VR_Gaming    (random initial parameters)
 *   (b) IDLE -> AR_Call      (random initial parameters)
 *   (c) IDLE -> AR_Social    (random initial parameters)
 *   (d) VR_Gaming -> AR_Social (start from (a)'s locked parameters)
 * The paper reports convergence within 2% of the global optimum.
 *
 * The case presets' 7x7 global-optimum reference grids run as one
 * engine run (--jobs parallelises it, --out streams the rows; rows
 * are bit-identical for any --jobs value), and the search evaluates
 * each step's candidate batch on a worker pool of the same size.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "bench_main.h"
#include "engine/param_eval.h"
#include "engine/param_search.h"
#include "runner/table.h"

using namespace dream;

namespace {

struct Case {
    const char* name;
    workload::ScenarioPreset preset;
    double a0, b0;
};

} // namespace

int
main(int argc, char** argv)
{
    const auto opts = bench::parseArgs(argc, argv);
    const auto sys_preset = hw::SystemPreset::Sys4k1Os2Ws;
    const auto system = hw::makeSystem(sys_preset);

    // "Random" boot-time initial points (fixed for reproducibility).
    Case cases[] = {
        {"(a) IDLE->VR_Gaming", workload::ScenarioPreset::VrGaming,
         1.73, 0.31},
        {"(b) IDLE->AR_Call", workload::ScenarioPreset::ArCall, 0.17,
         1.61},
        {"(c) IDLE->AR_Social", workload::ScenarioPreset::ArSocial,
         1.21, 1.87},
        {"(d) VR_Gaming->AR_Social",
         workload::ScenarioPreset::ArSocial, 0.0, 0.0},
    };

    // The 7x7 reference grid of each case preset, in case order:
    // cases (c) and (d) share AR_Social's, which keeps --out free of
    // duplicate rows. Each grid's rows follow the grids before it in
    // --out, and --list/--filter/--shard address the three grids as
    // one ordering.
    const workload::ScenarioPreset presets[] = {
        workload::ScenarioPreset::VrGaming,
        workload::ScenarioPreset::ArCall,
        workload::ScenarioPreset::ArSocial};
    std::vector<engine::SweepGrid> grids;
    for (const auto preset : presets)
        grids.push_back(engine::paramSpaceGrid(sys_preset, preset, 7));
    std::vector<bench::Scan> scans;
    size_t next_base = 0;
    for (size_t i = 0; i < grids.size(); ++i) {
        scans.push_back({grids[i], workload::toString(presets[i]),
                         next_base});
        next_base += grids[i].size();
    }
    const auto records = bench::run(opts, scans);
    if (!records)
        return 0;

    std::map<workload::ScenarioPreset, engine::ParamOptimum> optima;
    for (size_t i = 0; i < scans.size(); ++i) {
        const auto first = records->begin() + long(scans[i].indexBase);
        optima[presets[i]] = engine::bestParams(
            {first, first + long(grids[i].size())});
    }

    engine::WorkerPool pool(opts.jobs);
    // The memoized searcher is shared per preset: case (d) re-walks
    // AR_Social terrain case (c) already simulated, so its
    // overlapping candidates come out of the transposition table.
    std::map<workload::ScenarioPreset, workload::Scenario> scenarios;
    std::map<workload::ScenarioPreset, engine::ParamSearch> searchers;

    double locked_a = 1.0, locked_b = 1.0;
    for (auto& c : cases) {
        if (scenarios.find(c.preset) == scenarios.end())
            scenarios.emplace(c.preset,
                              workload::makeScenario(c.preset));
        const auto& scenario = scenarios.at(c.preset);

        if (std::string(c.name).find("(d)") == 0) {
            // Case (d) starts from the parameters case (a) locked.
            c.a0 = locked_a;
            c.b0 = locked_b;
        }

        const auto best = optima[c.preset];

        const auto eval =
            engine::makeBatchEvaluator(system, scenario, pool);
        engine::ParamSearch& search =
            searchers.try_emplace(c.preset, eval).first->second;
        const auto result = search.optimize(c.a0, c.b0);
        if (std::string(c.name).find("(a)") == 0) {
            locked_a = result.alpha;
            locked_b = result.beta;
        }

        std::printf("== Figure 10 %s on %s ==\n", c.name,
                    system.name.c_str());
        runner::Table t({"Step", "alpha", "beta", "UXCost",
                         "gap to optimum"});
        for (const auto& s : result.trajectory) {
            t.addRow({std::to_string(s.step), runner::fmt(s.alpha, 3),
                      runner::fmt(s.beta, 3), runner::fmt(s.cost, 4),
                      runner::fmtPct(s.cost / best.cost - 1.0)});
        }
        t.print();
        std::printf("grid optimum %.4f at (%.2f, %.2f); search "
                    "reached %.4f (gap %s)\n",
                    best.cost, best.alpha, best.beta, result.cost,
                    runner::fmtPct(result.cost / best.cost - 1.0)
                        .c_str());
        std::printf("search evaluations: %d (simulated %d, "
                    "transposition hits %d)\n\n",
                    result.evaluations, result.simulated,
                    result.memoHits);
    }
    std::printf("paper: converges within 2%% of the global optimum "
                "across workload-change cases\n");
    return 0;
}
