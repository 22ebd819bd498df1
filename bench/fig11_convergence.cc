/**
 * @file
 * Figure 11 reproduction: convergence of the MapScore parameter
 * optimisation — UXCost improvement per optimisation step. The paper
 * reports >25% UXCost improvement within two steps and convergence
 * to within 2% of the global minimum within five steps.
 *
 * The per-case 7x7 reference grids run as one engine run (--jobs /
 * --out), and the search evaluates each step's candidate batch on a
 * worker pool of the same size.
 */

#include <cstdio>
#include <string>
#include <vector>

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
    const auto system = hw::makeSystem(sys_preset);
    const struct {
        const char* name;
        workload::ScenarioPreset preset;
        double a0, b0;
    } cases[] = {
        {"VR_Gaming", workload::ScenarioPreset::VrGaming, 1.73, 0.31},
        {"AR_Call", workload::ScenarioPreset::ArCall, 0.17, 1.61},
        {"AR_Social", workload::ScenarioPreset::ArSocial, 1.21, 1.87},
        {"Drone_Indoor", workload::ScenarioPreset::DroneIndoor, 1.9,
         0.1},
    };

    // The per-case 7x7 reference grids, in case order. Each grid's
    // rows follow the grids before it in --out, and --list/--filter/
    // --shard address the four grids as one ordering.
    std::vector<engine::SweepGrid> grids;
    for (const auto& c : cases)
        grids.push_back(engine::paramSpaceGrid(sys_preset, c.preset, 7));
    std::vector<bench::Scan> scans;
    size_t next_base = 0;
    for (size_t i = 0; i < grids.size(); ++i) {
        scans.push_back({grids[i], cases[i].name, next_base});
        next_base += grids[i].size();
    }
    const auto records = bench::run(opts, scans);
    if (!records)
        return 0;

    engine::WorkerPool pool(opts.jobs);
    std::printf("Figure 11: UXCost vs optimisation step (normalised "
                "to the step-0 value; gap vs 7x7 grid optimum)\n\n");
    runner::Table t({"Case", "Step0", "Step1", "Step2", "Step3",
                     "Step4+", "Final gap"});
    for (size_t i = 0; i < scans.size(); ++i) {
        const auto& c = cases[i];
        const auto scenario = workload::makeScenario(c.preset);
        const auto first = records->begin() + long(scans[i].indexBase);
        const auto best =
            engine::bestParams({first, first + long(grids[i].size())});

        const auto eval =
            engine::makeBatchEvaluator(system, scenario, pool);
        engine::ParamSearch search(eval);
        const auto result = search.optimize(c.a0, c.b0);

        const double base = result.trajectory.front().cost;
        std::vector<std::string> row{c.name};
        for (int step = 0; step <= 4; ++step) {
            double cost = result.trajectory.back().cost;
            for (const auto& s : result.trajectory) {
                if (s.step == step) {
                    cost = s.cost;
                    break;
                }
            }
            row.push_back(runner::fmt(cost / base, 3));
        }
        row.push_back(
            runner::fmtPct(result.cost / best.cost - 1.0));
        t.addRow(row);
    }
    t.print();
    std::printf("\npaper: >25%% improvement within two steps; within "
                "2%% of the global minimum in five steps\n");
    return 0;
}
