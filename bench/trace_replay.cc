/**
 * @file
 * Trace replay bench: re-runs traces recorded with
 * `--record-trace DIR` (any bench) through the sweep engine and
 * reports how faithfully the replay reproduces the recorded
 * outcomes — the closing leg of the record -> replay -> dream_diff
 * regression loop.
 *
 *   fig02_static_vs_dynamic --record-trace traces --out orig.csv
 *   trace_replay --traces traces --out replayed.csv
 *   dream_diff --fail-on-diff orig.csv replayed.csv
 *
 * Each *.trace.csv is self-describing (its "# key=value" metadata
 * names the grid point), so the bench rebuilds every recorded
 * point — scenario/system presets, scheduler, seed, window — as a
 * one-point SweepGrid whose scenario axis is the recorded trace
 * (SweepGrid::addTraceReplay), and runs them all as one bench run
 * (bench::run). Result rows carry the original identity and indices
 * (traces are ordered by their recorded grid index), so the replayed
 * CSV diffs clean against the recording when replay is exact. All
 * the shared flags compose: --list/--filter/--shard subset the
 * replay set, --record-trace re-records the replayed runs for a
 * byte-level trace comparison, and --metrics/--trace-events record
 * the replays' telemetry as the recording's run recorded its own.
 *
 * Parameterised grid points (non-empty params axis) and generated
 * scenarios ("Gen<seed>") are not replayable from metadata alone and
 * are rejected with a clear error (exit 2). A full run exits 1 when
 * any replay drifts from its recording, so the bench itself gates
 * regressions.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_main.h"
#include "engine/engine.h"
#include "runner/table.h"
#include "runner/trace.h"

using namespace dream;

namespace {

/** The one-point grid replaying @p t under its recorded identity. */
engine::SweepGrid
replayGrid(const runner::RecordedPoint& t)
{
    engine::SweepGrid grid;
    grid.addTraceReplay(
        {t.scenario, [t] { return t.makeScenario(); }, t.trace});
    grid.addSystem(t.system);
    grid.addScheduler(t.scheduler);
    grid.seeds({t.seed});
    grid.window(t.windowUs);
    return grid;
}

} // anonymous namespace

int
main(int argc, char** argv)
{
    std::string traces_dir;
    const auto opts = bench::parseArgs(
        argc, argv, bench::Kind::Grid,
        [&](flags::Table& table, const bench::Options&) {
            table.add({"--traces", "", "DIR",
                       "directory of *.trace.csv files recorded with\n"
                       "--record-trace (required)",
                       flags::nonEmpty(&traces_dir)});
            table.check([&] {
                if (traces_dir.empty())
                    throw flags::Error("--traces DIR is required");
            });
        });

    std::vector<std::string> files;
    try {
        for (const auto& entry :
             std::filesystem::directory_iterator(traces_dir)) {
            const std::string path = entry.path().string();
            if (path.size() > 10 &&
                path.substr(path.size() - 10) == ".trace.csv")
                files.push_back(path);
        }
    } catch (const std::filesystem::filesystem_error& e) {
        std::fprintf(stderr, "trace_replay: cannot list %s: %s\n",
                     traces_dir.c_str(), e.what());
        return 2;
    }
    if (files.empty()) {
        std::fprintf(stderr, "trace_replay: no *.trace.csv files in %s\n",
                     traces_dir.c_str());
        return 2;
    }
    std::sort(files.begin(), files.end());

    std::vector<runner::RecordedPoint> traces;
    traces.reserve(files.size());
    try {
        for (const auto& f : files)
            traces.push_back(runner::loadRecordedPoint(f));
    } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "trace_replay: %s\n", e.what());
        return 2;
    }
    // Replay rows in the recorded grid order, so the replayed CSV
    // lines up with the original run's row for row.
    std::stable_sort(traces.begin(), traces.end(),
                     [](const auto& a, const auto& b) {
                         return a.index < b.index;
                     });
    // Rows carry the RECORDED grid index (the one-point grid's own
    // index is 0), so a replayed file lines up with the recording
    // row for row — also for subset recordings whose indices do not
    // start at 0.
    std::vector<engine::SweepGrid> grids;
    for (const auto& t : traces)
        grids.push_back(replayGrid(t));
    std::vector<bench::Scan> scans;
    for (size_t i = 0; i < traces.size(); ++i)
        scans.push_back({grids[i], traces[i].scenario, traces[i].index});

    std::optional<std::vector<engine::RunRecord>> replays;
    try {
        replays = bench::run(opts, scans);
    } catch (const std::exception& e) {
        // E.g. a ReplaySource scenario/trace mismatch surfacing from
        // a worker thread.
        std::fprintf(stderr, "trace_replay: %s\n", e.what());
        return 2;
    }
    if (!replays)
        return 0;

    std::printf("Trace replay: %zu recorded run(s) from %s, "
                "re-driven through the engine\n\n",
                traces.size(), traces_dir.c_str());
    runner::Table table({"Point", "Frames", "Violated rec/rep",
                         "Dropped rec/rep", "Energy drift", "Exact"});
    size_t drifted = 0;
    for (size_t i = 0; i < traces.size(); ++i) {
        const auto& t = traces[i];
        const engine::RunRecord& r = (*replays)[i];

        // Expected aggregates from the recorded per-frame outcomes.
        uint64_t total = 0, violated = 0, dropped = 0;
        double energy = 0.0;
        for (const auto& fr : t.trace->frames) {
            energy += fr.energyMj;
            if (!fr.inWindow)
                continue;
            total += 1;
            violated += fr.violated ? 1 : 0;
            dropped += fr.dropped ? 1 : 0;
        }
        const double drift =
            energy > 0.0 ? std::fabs(r.energyMj - energy) / energy
                         : std::fabs(r.energyMj);
        // Counters must match exactly; the energy check allows only
        // summation-order noise (the trace sums per frame, the
        // simulator per dispatch — same addends, different order).
        const bool exact = r.totalFrames == total &&
                           r.violatedFrames == violated &&
                           r.droppedFrames == dropped &&
                           drift <= 1e-12;
        drifted += exact ? 0 : 1;
        table.addRow({r.key(), std::to_string(r.totalFrames),
                      std::to_string(violated) + "/" +
                          std::to_string(r.violatedFrames),
                      std::to_string(dropped) + "/" +
                          std::to_string(r.droppedFrames),
                      runner::fmtPct(drift, 3),
                      exact ? "yes" : "NO"});
    }
    table.print();
    std::printf("\n%zu/%zu replays reproduced the recorded outcomes "
                "exactly\n",
                traces.size() - drifted, traces.size());
    std::printf("gate the result files with: dream_diff "
                "--fail-on-diff <recorded.csv> <replayed.csv>\n");
    // A drifted replay is a regression signal: exit nonzero so the
    // bench itself can gate CI, not only the dream_diff step.
    return drifted == 0 ? 0 : 1;
}
