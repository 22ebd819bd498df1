/**
 * @file
 * Supernet switching demo: how DREAM sheds load by deploying lighter
 * Once-for-All subnets as the system saturates (Section 4.5.1,
 * Figures 6 and 14). Sweeps the cascade probability of AR_Social and
 * VR_Gaming and reports the subnet mix, deadline violations and
 * energy, with and without Supernet switching.
 */

#include <cstdio>

#include "runner/experiment.h"
#include "runner/table.h"

using namespace dream;

int
main()
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    std::printf("Supernet switching under rising load (%s)\n\n",
                system.name.c_str());

    runner::Table t({"Scenario", "Cascade", "Config", "Original", "v1",
                     "v2", "v3", "Violated", "Energy(mJ)"});
    for (const auto sc_preset : {workload::ScenarioPreset::VrGaming,
                                 workload::ScenarioPreset::ArSocial}) {
        for (const double prob : {0.5, 0.99}) {
            const auto scenario =
                workload::makeScenario(sc_preset, prob);
            for (const auto kind :
                 {runner::SchedKind::DreamSmartDrop,
                  runner::SchedKind::DreamFull}) {
                auto sched = runner::makeScheduler(kind);
                const auto stats = runner::runOnce(
                    system, scenario, *sched,
                    {runner::kDefaultWindowUs, 11});
                std::vector<std::string> row{
                    toString(sc_preset), runner::fmtPct(prob, 0),
                    kind == runner::SchedKind::DreamFull
                        ? "with switching"
                        : "without"};
                bool found = false;
                for (const auto& ts : stats.tasks) {
                    if (ts.variantStarts.empty())
                        continue;
                    uint64_t total = 0;
                    for (const auto v : ts.variantStarts)
                        total += v;
                    for (const auto v : ts.variantStarts) {
                        row.push_back(runner::fmtPct(
                            total ? double(v) / double(total) : 0.0,
                            0));
                    }
                    found = true;
                    break;
                }
                if (!found)
                    row.insert(row.end(), {"-", "-", "-", "-"});
                row.push_back(std::to_string(stats.totalViolated()));
                row.push_back(
                    runner::fmt(stats.totalEnergyMj(), 1));
                t.addRow(row);
            }
        }
    }
    t.print();
    std::printf("\nUnder light load the Original subnet dominates; "
                "under heavy load DREAM dispatches lighter\nvariants "
                "to keep the whole workload inside its deadlines "
                "(Figure 14 of the paper).\n");
    return 0;
}
