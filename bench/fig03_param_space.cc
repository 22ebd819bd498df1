/**
 * @file
 * Figure 3 reproduction: the UXCost search space over the MapScore
 * parameters (alpha = starvation factor, beta = energy factor) in
 * [0,2]^2, shown as a coarse grid, plus the optimisation steps of the
 * shrinking-radius search overlaid as a step list. The paper uses
 * this to argue the space is well-conditioned and quick to search.
 *
 * The grid scan runs through the sweep engine (--jobs parallelises
 * it; --out streams the grid rows); the search evaluates each step's
 * candidate batch on the same worker pool.
 */

#include <cstdio>

#include "bench_main.h"
#include "engine/param_eval.h"
#include "engine/param_search.h"
#include "runner/table.h"

using namespace dream;

int
main(int argc, char** argv)
{
    const auto opts = bench::parseArgs(argc, argv);
    const auto sys_preset = hw::SystemPreset::Sys4k1Os2Ws;
    const auto sc_preset = workload::ScenarioPreset::VrGaming;
    const auto system = hw::makeSystem(sys_preset);
    const auto scenario = workload::makeScenario(sc_preset);

    std::printf("Figure 3: UXCost over (alpha, beta) in [0,2]^2 — "
                "VR_Gaming on %s\n\n", system.name.c_str());

    constexpr int n = 9;
    const auto grid = engine::paramSpaceGrid(sys_preset, sc_preset, n);
    const auto records = bench::run(opts, {{grid}});
    if (!records)
        return 0;
    const auto best = engine::bestParams(*records);

    // Render the surface row by row (alpha down, beta across); the
    // engine's grid order is alpha-outer, beta-inner, so record
    // i * n + j is (alpha_i, beta_j).
    std::printf("%6s", "a\\b");
    for (int j = 0; j < n; ++j)
        std::printf("  %5.2f", 2.0 * j / (n - 1));
    std::printf("\n");
    for (int i = 0; i < n; ++i) {
        std::printf("%6.2f", 2.0 * i / (n - 1));
        for (int j = 0; j < n; ++j)
            std::printf("  %5.2f", (*records)[size_t(i * n + j)].uxCost);
        std::printf("\n");
    }
    std::printf("\ngrid optimum: UXCost %.4f at (alpha=%.2f, "
                "beta=%.2f)\n\n", best.cost, best.alpha, best.beta);

    // Overlay: the shrinking-radius search from a corner start,
    // memoized on a transposition table — clamped and interpolated
    // candidates that revisit a point never re-simulate.
    engine::WorkerPool pool(opts.jobs);
    const auto eval = engine::makeBatchEvaluator(system, scenario, pool);
    engine::ParamSearch search(eval);
    const auto result = search.optimize(0.2, 1.8);
    runner::Table t({"Step", "alpha", "beta", "UXCost", "radius",
                     "gap to grid optimum"});
    for (const auto& s : result.trajectory) {
        t.addRow({std::to_string(s.step), runner::fmt(s.alpha, 3),
                  runner::fmt(s.beta, 3), runner::fmt(s.cost, 4),
                  runner::fmt(s.radius, 3),
                  runner::fmtPct(s.cost / best.cost - 1.0)});
    }
    t.print();
    std::printf("\nsearch evaluations: %d (simulated %d, "
                "transposition hits %d; grid: %d)\n",
                result.evaluations, result.simulated,
                result.memoHits, n * n);
    return 0;
}
