/**
 * @file
 * Cluster routing comparison: the three serve::Dispatcher policies
 * (round_robin, least_loaded, finish_time_fairness) serving two
 * ScenarioGenerator session mixes on N in {2, 4, 8} devices. Each
 * row is one full serve::Cluster run (DREAM-Full per device,
 * admission off) reporting UXCost plus the cluster's
 * finish-time-fairness spread (max/min of the per-device ratios) as
 * a breakdown column — the metric finish_time_fairness routing is
 * built to minimise.
 *
 * Rows are deterministic for any --jobs value (results land in a
 * pre-sized vector by row index before any sink sees them), so the
 * CSV golden-gates with dream_diff: scenarios/cluster_route.golden.csv
 * is the reference, and --check-fairness makes the bench itself exit
 * 1 unless finish_time_fairness beats round_robin on the mean
 * fairness spread — the self-gate CI runs.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_main.h"
#include "costmodel/cost_table_cache.h"
#include "runner/experiment.h"
#include "runner/table.h"
#include "serve/cluster.h"
#include "workload/frame_source.h"
#include "workload/scenario_gen.h"
#include "workload/stream_source.h"

using namespace dream;

namespace {

constexpr double kWindowUs = 1e6;

/** One generated session mix: a spec plus its generator seed. */
struct Mix {
    const char* name;
    uint64_t seed;
    workload::ScenarioGenSpec spec;
};

std::vector<Mix>
makeMixes()
{
    // steady10: ten mostly independent sessions, a third of them
    // activation-windowed — routing quality shows up as load
    // spread, and the staggered arrivals give the gauge-driven
    // routers live telemetry to react to.
    Mix steady;
    steady.name = "steady10";
    steady.seed = 13;
    steady.spec.minTasks = 10;
    steady.spec.maxTasks = 10;
    steady.spec.chainProb = 0.1;
    steady.spec.minFps = 15.0;
    steady.spec.activationProb = 0.3;
    steady.spec.horizonUs = kWindowUs;

    // bursty14: fourteen sessions, most arriving mid-run through
    // activation windows — demand keeps shifting, so a router that
    // only counts sessions (round_robin) misplaces the heavy ones
    // while the backlog/violation gauges steer the others.
    Mix bursty;
    bursty.name = "bursty14";
    bursty.seed = 5;
    bursty.spec.minTasks = 14;
    bursty.spec.maxTasks = 14;
    bursty.spec.chainProb = 0.3;
    bursty.spec.minFps = 10.0;
    bursty.spec.activationProb = 0.6;
    bursty.spec.horizonUs = kWindowUs;

    return {steady, bursty};
}

engine::RunRecord
runRow(const Mix& mix, size_t devices, serve::RouterPolicy router,
       const hw::SystemConfig& system)
{
    const auto scenario =
        workload::ScenarioGenerator(mix.spec).generate(mix.seed);
    const auto costs = cost::acquireCostTable(system, scenario);

    serve::ClusterConfig config;
    config.devices = devices;
    config.router = router;
    config.serve.windowUs = kWindowUs;
    config.serve.seed = mix.seed;
    config.serve.reportIntervalUs = 0.0; // final snapshot only
    config.serve.log = nullptr;

    workload::FrameSource frames(scenario, mix.seed);
    workload::StreamSource intake(frames);
    for (auto& frame : workload::rootFramesByArrival(frames, kWindowUs))
        intake.push(std::move(frame));
    intake.close();

    serve::Cluster cluster(system, scenario, *costs, config);
    const serve::ClusterResult result = cluster.run(
        [] {
            return runner::makeScheduler(
                runner::SchedKind::DreamFull);
        },
        intake);

    engine::RunRecord row;
    row.scenario = std::string(mix.name) + "/" + serve::toString(router);
    row.system = system.name;
    row.scheduler = runner::toString(runner::SchedKind::DreamFull);
    row.params = {{"devices", double(devices)}};
    row.seed = mix.seed;
    row.windowUs = kWindowUs;
    engine::fillMetrics(row, result.stats);
    row.breakdown.emplace_back("fairness_spread", result.fairnessSpread);
    return row;
}

} // anonymous namespace

int
main(int argc, char** argv)
{
    bool check_fairness = false;
    const auto opts = bench::parseArgs(
        argc, argv, bench::Kind::Rows,
        [&](flags::Table& table, const bench::Options& o) {
            table.add({"--check-fairness", "", "",
                       "exit 1 unless finish_time_fairness beats "
                       "round_robin\non the mean fairness spread",
                       flags::set(&check_fairness)});
            table.check([&] {
                if (check_fairness && o.shards > 0)
                    throw flags::Error("--check-fairness needs every "
                                       "row; it cannot run with --shard");
            });
        });

    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto mixes = makeMixes();
    const size_t device_counts[] = {2, 4, 8};
    const auto routers = serve::allRouterPolicies();

    struct RowSpec {
        const Mix* mix;
        size_t devices;
        serve::RouterPolicy router;
    };
    std::vector<RowSpec> rows;
    for (const auto& mix : mixes) {
        for (const size_t n : device_counts) {
            for (const auto router : routers)
                rows.push_back({&mix, n, router});
        }
    }

    // --shard runs only its own rows' cluster runs.
    engine::WorkerPool pool(opts.jobs);
    const auto records =
        bench::runRows(opts, rows.size(), [&](size_t lo, size_t hi) {
            std::vector<engine::RunRecord> out(hi - lo);
            pool.parallelFor(hi - lo, [&](size_t k) {
                const RowSpec& row = rows[lo + k];
                out[k] = runRow(*row.mix, row.devices, row.router, system);
            });
            return out;
        });
    if (!records)
        return 0;

    // Per-mix comparison table plus the round_robin vs
    // finish_time_fairness spread means the self-gate checks.
    double rr_spread_sum = 0.0, ftf_spread_sum = 0.0;
    size_t rr_rows = 0, ftf_rows = 0;
    for (const auto& mix : mixes) {
        std::printf("== cluster_route: %s on %s ==\n", mix.name,
                    system.name.c_str());
        runner::Table t({"Devices", "Router", "UXCost", "DLVRate",
                         "FairnessSpread"});
        for (size_t i = 0; i < rows.size(); ++i) {
            if (rows[i].mix != &mix)
                continue;
            const auto& r = (*records)[i];
            const double spread = r.breakdownValue("fairness_spread");
            t.addRow({std::to_string(rows[i].devices),
                      serve::toString(rows[i].router),
                      runner::fmt(r.uxCost, 4), runner::fmt(r.dlvRate, 4),
                      runner::fmt(spread, 4)});
            if (rows[i].router == serve::RouterPolicy::RoundRobin) {
                rr_spread_sum += spread;
                ++rr_rows;
            }
            if (rows[i].router ==
                serve::RouterPolicy::FinishTimeFairness) {
                ftf_spread_sum += spread;
                ++ftf_rows;
            }
        }
        t.print();
        std::printf("\n");
    }
    const double rr_mean = rr_spread_sum / double(rr_rows);
    const double ftf_mean = ftf_spread_sum / double(ftf_rows);
    std::printf("mean fairness spread: round_robin %.4f, "
                "finish_time_fairness %.4f\n",
                rr_mean, ftf_mean);
    if (check_fairness && !(ftf_mean < rr_mean)) {
        std::fprintf(stderr,
                     "cluster_route: --check-fairness failed: "
                     "finish_time_fairness mean spread %.4f is not "
                     "below round_robin's %.4f\n",
                     ftf_mean, rr_mean);
        return 1;
    }
    return 0;
}
