/**
 * @file
 * Figure 2 reproduction: deadline-violation rate of static vs
 * dynamic FCFS on the AR_Call workload across the four 4K
 * accelerator styles of Table 2. The paper reports dynamic FCFS
 * reducing the violation rate by 52.9% on average, motivating
 * dynamic scheduling for RTMM workloads.
 *
 * The whole evaluation is one engine sweep (--jobs / --out / --list /
 * --filter), and the reduction column comes from the sink layer's
 * scheduler-pair ratio helper.
 */

#include <cstdio>
#include <vector>

#include "bench_main.h"
#include "engine/engine.h"
#include "runner/experiment.h"
#include "runner/table.h"

using namespace dream;

int
main(int argc, char** argv)
{
    const auto opts = bench::parseArgs(argc, argv);

    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::ArCall);
    for (const auto preset : hw::systemPresets4k())
        grid.addSystem(preset);
    grid.addScheduler(runner::SchedKind::StaticFcfs)
        .addScheduler(runner::SchedKind::Fcfs)
        .seeds(runner::defaultSeeds())
        .window(runner::kDefaultWindowUs);

    engine::AggregateSink agg;
    if (!bench::run(opts, {{grid}}, {&agg}))
        return 0;
    const auto cells = agg.cells();

    std::printf("Figure 2: deadline violation rate, AR_Call, static "
                "vs dynamic FCFS\n\n");
    runner::Table t({"System", "StaticFCFS", "DynamicFCFS",
                     "Reduction"});
    const auto ratios = engine::schedulerRatios(
        cells, runner::toString(runner::SchedKind::Fcfs),
        runner::toString(runner::SchedKind::StaticFcfs),
        [](const engine::AggregateSink::Cell& c) {
            return c.violationFraction.mean;
        });
    double sum_reduction = 0.0;
    for (const auto& r : ratios) {
        const double reduction =
            r.denominator > 0 ? r.reduction() : 0.0;
        sum_reduction += reduction;
        t.addRow({r.system, runner::fmtPct(r.denominator),
                  runner::fmtPct(r.numerator),
                  runner::fmtPct(reduction)});
    }
    t.print();
    std::printf("\npaper: dynamic FCFS decreases the deadline "
                "violation rate by 52.9%% on average\n");
    std::printf("measured average reduction: %s\n",
                runner::fmtPct(sum_reduction / double(ratios.size()))
                    .c_str());
    return 0;
}
