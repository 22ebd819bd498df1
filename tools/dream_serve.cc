/**
 * @file
 * dream_serve: the online serving front end. Drives N per-device
 * DREAM instances (serve::Cluster) in streaming mode — arrivals are
 * pushed into a workload::StreamSource one frame at a time and the
 * stream is closed before serving starts, a
 * serve::Dispatcher routes each session to a device, every device's
 * event loop advances incrementally as frames land, an optional
 * admission gate rejects or degrades overload per device, and
 * rolling p50/p99/SLO telemetry prints per report interval and lands
 * in the metrics JSON that dream_prof reads. A single device
 * (--devices 1, the default) is the N=1 case of the same code path.
 *
 * Three feeds:
 *
 *   dream_serve --replay trace.csv [--verify-offline]
 *     Re-drives a recorded trace (--record-trace on any bench) in
 *     stream mode. --verify-offline re-runs the same trace through
 *     the offline ReplaySource path and exits 1 unless the final
 *     RunStats match bit for bit — the stream-mode determinism
 *     anchor, gated in CI (single-device only: an N-device run has
 *     no single offline simulator to anchor to).
 *
 *   dream_serve --gen default --seed 11 --rate-scale 1.5
 *     Serves a ScenarioGenerator workload (or a hard-scenario suite
 *     entry: --gen scenarios/hard_v1.json --entry NAME) for
 *     sustained-load soak runs; --rate-scale multiplies every task's
 *     FPS.
 *
 *   dream_serve --ingest - [--gen SPEC]
 *     Reads line-delimited arrival records from stdin — the first
 *     step toward a socket/IPC feed. Each line is
 *     "task frame_idx arrival_us" (whitespace- or comma-separated;
 *     '#' comments and blank lines skipped), materialised through
 *     the generative FrameSource of the --gen scenario (default:
 *     'default') and pushed onto StreamSource::push; serving starts
 *     at EOF. Malformed or
 *     out-of-range cells, arrivals outside [0, window), out-of-order
 *     arrivals and unknown tasks are clean errors (exit 2), never
 *     aborts.
 *
 * Exit codes: 0 success, 1 verify-offline drift, 2 usage/load error.
 */

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "costmodel/cost_table_cache.h"
#include "engine/result_sink.h"
#include "engine/engine.h"
#include "hw/system.h"
#include "obs/metrics.h"
#include "runner/experiment.h"
#include "runner/trace.h"
#include "serve/cluster.h"
#include "serve/dispatcher.h"
#include "serve/serve_loop.h"
#include "util/flags.h"
#include "workload/replay_source.h"
#include "workload/scenario_gen.h"
#include "workload/scenario_suite.h"
#include "workload/stream_source.h"

using namespace dream;

namespace {

struct Options {
    std::string replayFile;
    bool verifyOffline = false;
    std::string genSpec;
    std::string ingest;
    size_t devices = 1;
    serve::RouterPolicy router =
        serve::RouterPolicy::FinishTimeFairness;
    std::string entry;
    uint64_t seed = 11;
    double rateScale = 1.0;
    std::optional<hw::SystemPreset> system;
    std::optional<runner::SchedKind> scheduler;
    double windowUs = 0.0; // 0 = feed default
    serve::AdmissionConfig admission;
    double reportIntervalUs = 2e5;
    double rollingWindowUs = 5e5;
    std::string metricsFile;
    std::string metricsFullFile;
    std::string outFile;
    bool quiet = false;
};

[[noreturn]] void
fail(const std::string& what)
{
    std::fprintf(stderr, "dream_serve: %s\n", what.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options opts;
    flags::Table table(
        "exactly one of --replay, --gen and --ingest is required;\n"
        "admission control is off unless --max-queue or\n"
        "--max-backlog-us is set");
    table.add({"--replay", "", "FILE",
               "recorded *.trace.csv (--record-trace on any bench),\n"
               "served in stream mode under the recorded identity",
               flags::nonEmpty(&opts.replayFile)});
    table.add({"--gen", "", "SPEC",
               "'default' (stock generator spec) or a hard-scenario\n"
               "suite JSON path",
               flags::nonEmpty(&opts.genSpec)});
    table.add({"--ingest", "", "-",
               "line-delimited arrivals from stdin ('task frame_idx\n"
               "arrival_us'), onto the --gen scenario (default\n"
               "'default')",
               flags::choice(
                   &opts.ingest,
                   std::vector<std::pair<std::string, std::string>>{
                       {"-", "-"}})});
    table.add({"--devices", "", "N",
               "per-device DREAM instances (default 1)",
               flags::integer(&opts.devices, 1)});
    table.add({"--router", "", "POLICY",
               "round_robin | least_loaded | finish_time_fairness\n"
               "(default)",
               flags::choice(&opts.router,
                             flags::namesOf(serve::allRouterPolicies(),
                                            [](serve::RouterPolicy p) {
                                                return serve::toString(p);
                                            }))});
    table.add({"--verify-offline", "", "",
               "re-run the offline ReplaySource replay and exit 1\n"
               "unless RunStats is bit-identical (--replay only,\n"
               "admission off, --devices 1)",
               flags::set(&opts.verifyOffline)});
    table.add({"--entry", "", "NAME",
               "suite entry to serve (default: first)",
               flags::text(&opts.entry)});
    table.add({"--seed", "", "S",
               "generator + simulation seed (default 11)",
               flags::integer(&opts.seed)});
    table.add({"--rate-scale", "", "X",
               "multiply every task's FPS by X > 0",
               flags::positive(&opts.rateScale)});
    table.add({"--system", "", "NAME",
               "system preset (default: the suite's, else 4K-2WS)",
               flags::choice(&opts.system,
                             flags::namesOf(hw::allSystemPresets(),
                                            [](hw::SystemPreset p) {
                                                return hw::toString(p);
                                            }))});
    table.add({"--scheduler", "", "NAME", "scheduler (default DREAM-Full)",
               flags::choice(&opts.scheduler,
                             flags::namesOf(runner::allSchedKinds(),
                                            [](runner::SchedKind k) {
                                                return std::string(
                                                    runner::toString(k));
                                            }))});
    table.add({"--window", "", "US",
               "execution window (default: the suite's, else 2e6)",
               flags::positive(&opts.windowUs)});
    table.add({"--max-queue", "", "N",
               "per device: reject when N frames are live",
               flags::integer(&opts.admission.maxQueueDepth)});
    table.add({"--max-backlog-us", "", "X",
               "per device: bound the projected best-case backlog",
               flags::real(&opts.admission.maxBacklogUs, 0.0)});
    table.add({"--overload", "", "P", "reject | degrade (default reject)",
               flags::choice(&opts.admission.policy,
                             std::vector<std::pair<std::string,
                                                   serve::OverloadPolicy>>{
                                 {"reject", serve::OverloadPolicy::Reject},
                                 {"degrade",
                                  serve::OverloadPolicy::Degrade}})});
    table.add({"--report-interval-us", "", "X",
               "rolling report spacing (default 2e5)",
               flags::real(&opts.reportIntervalUs, 0.0)});
    table.add({"--rolling-window-us", "", "X",
               "rolling window span (default 5e5)",
               flags::positive(&opts.rollingWindowUs)});
    table.add({"--metrics", "", "FILE",
               "canonical metrics JSON (volatile excluded)",
               flags::text(&opts.metricsFile)});
    table.add({"--metrics-full", "", "FILE",
               "metrics JSON including volatile metrics",
               flags::text(&opts.metricsFullFile)});
    table.add({"--out", "", "FILE",
               "one-row result CSV (replay rows carry the recorded\n"
               "identity, for dream_diff)",
               flags::text(&opts.outFile)});
    table.add({"--quiet", "", "", "suppress per-report lines",
               flags::set(&opts.quiet)});
    table.check([&opts] {
        if (!opts.ingest.empty()) {
            if (!opts.replayFile.empty())
                throw flags::Error(
                    "--ingest feeds the generative scenario; it cannot "
                    "be combined with --replay");
            if (opts.genSpec.empty())
                opts.genSpec = "default";
        } else if (opts.replayFile.empty() == opts.genSpec.empty()) {
            throw flags::Error(
                "exactly one of --replay, --gen and --ingest is required");
        }
        if (opts.verifyOffline && opts.replayFile.empty())
            throw flags::Error("--verify-offline requires --replay");
        if (opts.verifyOffline && opts.admission.enabled())
            throw flags::Error(
                "--verify-offline requires admission control off "
                "(admitted load must match the recording)");
        if (opts.verifyOffline && opts.devices != 1)
            throw flags::Error(
                "--verify-offline requires --devices 1 (an N-device run "
                "has no single offline run to anchor to)");
        // Fail before serving a frame, not after the whole run.
        for (const std::string* p :
             {&opts.outFile, &opts.metricsFile, &opts.metricsFullFile}) {
            if (!p->empty() && !std::ofstream(*p).is_open())
                throw flags::Error("cannot open output file for writing: " +
                                   *p);
        }
    });
    table.parse(argc, argv);
    return opts;
}

/** The resolved workload one serve session runs. */
struct Session {
    workload::Scenario scenario;
    hw::SystemConfig system;
    std::string systemName;
    runner::SchedKind scheduler = runner::SchedKind::DreamFull;
    uint64_t seed = 11;
    double windowUs = runner::kDefaultWindowUs;
    size_t index = 0; ///< result-row index (recorded for replays)
    /** Replay feed (null for the generative feed). */
    std::shared_ptr<const workload::FrameTrace> trace;
};

Session
loadReplaySession(const Options& opts)
{
    runner::RecordedPoint point;
    try {
        point = runner::loadRecordedPoint(opts.replayFile);
    } catch (const std::runtime_error& e) {
        fail(e.what());
    }
    Session s;
    s.scenario = point.makeScenario();
    s.systemName = hw::toString(point.system);
    s.system = hw::makeSystem(point.system);
    s.scheduler = point.scheduler;
    s.seed = point.seed;
    s.windowUs = point.windowUs;
    s.index = point.index;
    s.trace = point.trace;
    return s;
}

Session
loadGenSession(const Options& opts)
{
    Session s;
    workload::ScenarioGenSpec spec;
    hw::SystemPreset system = hw::SystemPreset::Sys4k2Ws;
    s.windowUs = runner::kDefaultWindowUs;
    uint64_t gen_seed = opts.seed;

    if (opts.genSpec != "default") {
        workload::HardScenarioSuite suite;
        try {
            suite = workload::loadHardScenarioSuite(opts.genSpec);
        } catch (const std::runtime_error& e) {
            fail(e.what());
        }
        if (suite.entries.empty())
            fail(opts.genSpec + ": suite has no entries");
        const workload::HardScenarioEntry* entry =
            &suite.entries.front();
        if (!opts.entry.empty()) {
            entry = nullptr;
            for (const auto& e : suite.entries) {
                if (e.name == opts.entry)
                    entry = &e;
            }
            if (!entry)
                fail(opts.genSpec + ": no entry named '" +
                     opts.entry + "'");
        }
        spec = entry->spec;
        gen_seed = entry->genSeed;
        hw::parseSystemPreset(suite.system, &system); // loader-checked
        s.windowUs = suite.windowUs;
    } else if (!opts.entry.empty()) {
        fail("--entry requires a suite JSON --gen SPEC");
    }

    system = opts.system.value_or(system);
    if (opts.windowUs > 0.0)
        s.windowUs = opts.windowUs;
    s.systemName = hw::toString(system);
    s.system = hw::makeSystem(system);
    s.scheduler = opts.scheduler.value_or(runner::SchedKind::DreamFull);
    s.seed = opts.seed;
    s.scenario = workload::ScenarioGenerator(spec).generate(gen_seed);
    if (opts.rateScale != 1.0) {
        for (auto& task : s.scenario.tasks)
            task.fps *= opts.rateScale;
        char suffix[32];
        std::snprintf(suffix, sizeof suffix, "@x%g", opts.rateScale);
        s.scenario.name += suffix;
    }
    return s;
}

/** Push every root frame of @p source, in arrival order, and close
 *  the stream — the in-process stand-in for a live ingest feed. */
void
feedStream(workload::StreamSource& stream,
           const workload::ArrivalSource& source, double window_us)
{
    for (auto& frame : workload::rootFramesByArrival(source, window_us))
        stream.push(std::move(frame));
    stream.close();
}

/**
 * The stdin ingest frontend: one arrival per line, materialised
 * through the generative FrameSource so paths and cascade gates are
 * the deterministic per-frame draws. Malformed lines, a task or
 * frame_idx that is not an integer in [0, INT_MAX], an arrival
 * outside [0, window), unknown or dependent tasks, and out-of-order
 * arrivals are reported as "stdin:<line>: ..." and exit 2 —
 * StreamSource's ordering contract surfaces as a clean error, never
 * an abort.
 */
void
feedFromStdin(workload::StreamSource& stream,
              const workload::FrameSource& source, double window_us)
{
    std::string line;
    size_t lineno = 0;
    while (std::getline(std::cin, line)) {
        ++lineno;
        const std::string where = "stdin:" + std::to_string(lineno) + ": ";
        std::replace(line.begin(), line.end(), ',', ' ');
        std::istringstream in(line);
        std::string task, frame_idx, arrival, trailing;
        if (!(in >> task) || task[0] == '#')
            continue; // blank or comment line
        if (!(in >> frame_idx >> arrival) || (in >> trailing))
            fail(where + "expected 'task frame_idx arrival_us', got '" +
                 line + "'");
        const auto field = [&](const char* column, const std::string& cell,
                               const auto& parse) {
            try {
                return parse(cell);
            } catch (const flags::Error& e) {
                fail(where + column + " '" + cell + "': " + e.what());
            }
        };
        const auto id = [](const std::string& cell) {
            return int(flags::parseUint(cell, 0, INT_MAX));
        };
        const int task_id = field("task", task, id);
        const int frame = field("frame_idx", frame_idx, id);
        const double arrival_us =
            field("arrival_us", arrival, [](const std::string& cell) {
                return flags::parseReal(cell, 0.0, HUGE_VAL);
            });
        if (arrival_us >= window_us) {
            std::ostringstream what;
            what << where << "arrival_us '" << arrival
                 << "' is not before the window end (" << window_us
                 << " us)";
            fail(what.str());
        }
        try {
            stream.push(source.rootFrame(task_id, frame, arrival_us));
        } catch (const std::exception& e) {
            fail(where + e.what());
        }
    }
    stream.close();
}

engine::RunRecord
makeRecord(const Session& session, const sim::RunStats& stats)
{
    engine::RunRecord record;
    record.index = session.index;
    record.scenario = session.scenario.name;
    record.system = session.systemName;
    record.scheduler = runner::toString(session.scheduler);
    record.seed = session.seed;
    record.windowUs = session.windowUs;
    engine::fillMetrics(record, stats);
    return record;
}

/** Exit-1 drift check: stream-mode stats vs the offline replay. */
bool
verifyOffline(const Session& session,
              const workload::ReplaySource& replay,
              const sim::RunStats& streamed)
{
    sim::SimConfig config;
    config.windowUs = session.windowUs;
    config.seed = session.seed;
    config.arrivals = &replay;
    const auto sched = runner::makeScheduler(session.scheduler);
    const sim::RunStats offline = runner::runOnce(
        session.system, session.scenario, *sched, config);

    // Byte-level comparison through the canonical serialisations:
    // the per-frame trace CSV covers every admitted frame's exact
    // doubles; the result row covers the aggregates.
    const std::string stream_frames =
        runner::frameTraceCsv(streamed, session.scenario);
    const std::string offline_frames =
        runner::frameTraceCsv(offline, session.scenario);
    std::ostringstream stream_row, offline_row;
    {
        engine::CsvSink a(stream_row);
        a.write(makeRecord(session, streamed));
        a.close();
        engine::CsvSink b(offline_row);
        b.write(makeRecord(session, offline));
        b.close();
    }
    const bool frames_ok = stream_frames == offline_frames;
    const bool rows_ok = stream_row.str() == offline_row.str();
    if (frames_ok && rows_ok) {
        std::printf("verify-offline OK: %s (%zu frames, row and "
                    "frame trace bit-identical)\n",
                    session.scenario.name.c_str(),
                    streamed.frames.size());
        return true;
    }
    std::fprintf(stderr,
                 "dream_serve: verify-offline DRIFT: %s (frame "
                 "trace %s, result row %s)\n",
                 session.scenario.name.c_str(),
                 frames_ok ? "identical" : "differs",
                 rows_ok ? "identical" : "differs");
    return false;
}

} // anonymous namespace

int
main(int argc, char** argv)
{
    const Options opts = parseArgs(argc, argv);
    const Session session = opts.replayFile.empty()
                                ? loadGenSession(opts)
                                : loadReplaySession(opts);

    obs::MetricsRegistry metrics;
    const bool want_metrics =
        !opts.metricsFile.empty() || !opts.metricsFullFile.empty();
    const auto costs = cost::acquireCostTable(
        session.system, session.scenario,
        want_metrics ? &metrics : nullptr);

    serve::ClusterConfig cluster_config;
    cluster_config.devices = opts.devices;
    cluster_config.router = opts.router;
    serve::ServeConfig& config = cluster_config.serve;
    config.windowUs = session.windowUs;
    config.seed = session.seed;
    config.reportIntervalUs = opts.reportIntervalUs;
    config.rollingSpanUs = opts.rollingWindowUs;
    config.admission = opts.admission;
    config.metrics = want_metrics ? &metrics : nullptr;
    config.log = opts.quiet ? nullptr : &std::cout;

    // The feed: replay re-injects the recorded arrivals; gen
    // materialises the scaled generative workload; ingest reads
    // stdin. Either way the frames flow through the same intake
    // StreamSource, whose frames the cluster offers to their devices.
    std::unique_ptr<workload::ReplaySource> replay;
    std::unique_ptr<workload::FrameSource> generative;
    const workload::ArrivalSource* delegate = nullptr;
    if (session.trace) {
        replay = std::make_unique<workload::ReplaySource>(
            session.scenario, session.seed, *session.trace);
        delegate = replay.get();
    } else {
        generative = std::make_unique<workload::FrameSource>(
            session.scenario, session.seed);
        delegate = generative.get();
    }

    workload::StreamSource intake(*delegate);
    if (!opts.ingest.empty())
        feedFromStdin(intake, *generative, session.windowUs);
    else
        feedStream(intake, *delegate, session.windowUs);

    serve::Cluster cluster(session.system, session.scenario, *costs,
                           cluster_config);
    serve::ClusterResult result;
    try {
        result = cluster.run(
            [&] { return runner::makeScheduler(session.scheduler); },
            intake);
    } catch (const std::exception& e) {
        fail(e.what());
    }

    const engine::RunRecord record = makeRecord(session, result.stats);
    if (opts.devices > 1) {
        for (size_t k = 0; k < result.devices.size(); ++k) {
            const serve::ServeResult& device = result.devices[k];
            const double ratio = result.fairnessRatio[k];
            std::printf("[serve] dev%zu: frames=%llu "
                        "rejected=%llu degraded=%llu fairness=%s\n",
                        k,
                        (unsigned long long)
                            device.stats.totalFrames(),
                        (unsigned long long)
                            device.admission.rejected,
                        (unsigned long long)
                            device.admission.degraded,
                        std::isfinite(ratio)
                            ? std::to_string(ratio).c_str()
                            : "n/a");
        }
        std::printf("[serve] cluster: devices=%zu router=%s "
                    "fairness_spread=%.4f\n",
                    result.devices.size(),
                    serve::toString(cluster_config.router).c_str(),
                    result.fairnessSpread);
    }
    std::printf("[serve] done: %s/%s/%s seed=%llu frames=%llu "
                "violated=%llu dropped=%llu rejected=%llu "
                "degraded=%llu uxcost=%.4f\n",
                record.scenario.c_str(), record.system.c_str(),
                record.scheduler.c_str(),
                (unsigned long long) record.seed,
                (unsigned long long) record.totalFrames,
                (unsigned long long) record.violatedFrames,
                (unsigned long long) record.droppedFrames,
                (unsigned long long) result.admission.rejected,
                (unsigned long long) result.admission.degraded,
                record.uxCost);

    if (!opts.outFile.empty()) {
        engine::CsvSink sink(opts.outFile);
        sink.write(record);
        sink.close();
    }
    const auto dumpMetrics = [&](const std::string& path,
                                 bool include_volatile) {
        if (path.empty())
            return;
        std::ofstream out(path);
        if (!out.is_open())
            fail("cannot open metrics file: " + path);
        metrics.writeJson(out, include_volatile);
    };
    dumpMetrics(opts.metricsFile, false);
    dumpMetrics(opts.metricsFullFile, true);

    if (opts.verifyOffline &&
        !verifyOffline(session, *replay, result.stats))
        return 1;
    return 0;
}
