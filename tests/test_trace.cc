/** @file Tests for the frame trace: CSV export, the read side and
 *  trace replay (record -> replay reproduces the run exactly). */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "costmodel/cost_table.h"
#include "engine/engine.h"
#include "runner/experiment.h"
#include "runner/trace.h"
#include "sim/simulator.h"
#include "workload/replay_source.h"

namespace dream {
namespace {

sim::RunStats
runWith(const hw::SystemConfig& system,
        const workload::Scenario& scenario, runner::SchedKind kind,
        double window_us, uint64_t seed,
        const workload::ArrivalSource* arrivals = nullptr)
{
    cost::CostTable costs(system);
    for (const auto& t : scenario.tasks)
        costs.addModel(t.model);
    sim::SimConfig cfg;
    cfg.windowUs = window_us;
    cfg.seed = seed;
    cfg.arrivals = arrivals;
    sim::Simulator simulator(system, scenario, costs, cfg);
    auto sched = runner::makeScheduler(kind);
    return simulator.run(*sched);
}

void
expectStatsBitIdentical(const sim::RunStats& a, const sim::RunStats& b)
{
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (size_t i = 0; i < a.frames.size(); ++i) {
        const auto& fa = a.frames[i];
        const auto& fb = b.frames[i];
        EXPECT_EQ(fa.task, fb.task) << "frame " << i;
        EXPECT_EQ(fa.frameIdx, fb.frameIdx) << "frame " << i;
        EXPECT_EQ(fa.arrivalUs, fb.arrivalUs) << "frame " << i;
        EXPECT_EQ(fa.deadlineUs, fb.deadlineUs) << "frame " << i;
        // NaN == never completed: both sides must agree, and real
        // completion times must match exactly.
        EXPECT_EQ(fa.isCompleted(), fb.isCompleted()) << "frame " << i;
        if (fa.isCompleted() && fb.isCompleted()) {
            EXPECT_EQ(fa.completionUs, fb.completionUs)
                << "frame " << i;
        }
        EXPECT_EQ(fa.dropped, fb.dropped) << "frame " << i;
        EXPECT_EQ(fa.violated, fb.violated) << "frame " << i;
        EXPECT_EQ(fa.inWindow, fb.inWindow) << "frame " << i;
        EXPECT_EQ(fa.variant, fb.variant) << "frame " << i;
        EXPECT_EQ(fa.energyMj, fb.energyMj) << "frame " << i;
    }
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (size_t t = 0; t < a.tasks.size(); ++t) {
        EXPECT_EQ(a.tasks[t].totalFrames, b.tasks[t].totalFrames);
        EXPECT_EQ(a.tasks[t].completedFrames,
                  b.tasks[t].completedFrames);
        EXPECT_EQ(a.tasks[t].violatedFrames,
                  b.tasks[t].violatedFrames);
        EXPECT_EQ(a.tasks[t].droppedFrames, b.tasks[t].droppedFrames);
        EXPECT_EQ(a.tasks[t].energyMj, b.tasks[t].energyMj);
        EXPECT_EQ(a.tasks[t].sumLatencyUs, b.tasks[t].sumLatencyUs);
        EXPECT_EQ(a.tasks[t].worstCaseEnergyMj,
                  b.tasks[t].worstCaseEnergyMj);
        EXPECT_EQ(a.tasks[t].variantStarts, b.tasks[t].variantStarts);
    }
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
    EXPECT_EQ(a.contextSwitchEnergyMj, b.contextSwitchEnergyMj);
    EXPECT_EQ(a.schedulerInvocations, b.schedulerInvocations);
}

TEST(Trace, FrameRecordsMatchTaskStats)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    auto sched = runner::makeScheduler(runner::SchedKind::Fcfs);
    const auto r = runner::runOnce(system, scenario, *sched, {1e6, 3});

    // Every admitted frame is recorded; exactly the in-window ones
    // are counted in TaskStats.
    uint64_t in_window = 0;
    std::vector<uint64_t> violated(scenario.tasks.size(), 0);
    std::vector<uint64_t> dropped(scenario.tasks.size(), 0);
    for (const auto& fr : r.frames) {
        EXPECT_GE(fr.deadlineUs, fr.arrivalUs);
        if (fr.isCompleted()) {
            EXPECT_GE(fr.completionUs, fr.arrivalUs);
        }
        if (!fr.inWindow)
            continue;
        ++in_window;
        violated[size_t(fr.task)] += fr.violated ? 1 : 0;
        dropped[size_t(fr.task)] += fr.dropped ? 1 : 0;
    }
    EXPECT_EQ(in_window, r.totalFrames());
    EXPECT_GE(r.frames.size(), in_window);
    for (size_t t = 0; t < scenario.tasks.size(); ++t) {
        EXPECT_EQ(violated[t], r.tasks[t].violatedFrames);
        EXPECT_EQ(dropped[t], r.tasks[t].droppedFrames);
    }
}

TEST(Trace, CsvShapeAndHeader)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys8k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::DroneOutdoor);
    auto sched = runner::makeScheduler(runner::SchedKind::Fcfs);
    const auto r = runner::runOnce(system, scenario, *sched, {5e5, 3});

    const auto csv = runner::frameTraceCsv(r, scenario);
    std::istringstream is(csv);
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line,
              "task,model,frame,arrival_us,deadline_us,completion_us,"
              "latency_us,violated,dropped,in_window,variant,"
              "energy_mj");
    size_t rows = 0;
    while (std::getline(is, line)) {
        ++rows;
        // 12 columns -> 11 commas per row (no drone model name
        // contains a comma).
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 11);
    }
    EXPECT_EQ(rows, r.frames.size());
    EXPECT_NE(csv.find("TrailNet"), std::string::npos);
}

TEST(Trace, RoundTripIsLosslessIncludingMeta)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Os);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::VrGaming);
    auto sched = runner::makeScheduler(runner::SchedKind::DreamFull);
    const auto r = runner::runOnce(system, scenario, *sched, {3e5, 7});

    const runner::TraceMeta meta = {{"scenario", "VR_Gaming"},
                                    {"seed", "7"}};
    const auto csv = runner::frameTraceCsv(r, scenario, meta);
    std::istringstream is(csv);
    const auto trace = runner::readFrameTraceCsv(is);

    EXPECT_EQ(trace.meta, meta);
    EXPECT_EQ(trace.metaValue("scenario"), "VR_Gaming");
    EXPECT_EQ(trace.metaValue("absent"), "");
    ASSERT_EQ(trace.frames.size(), r.frames.size());
    for (size_t i = 0; i < trace.frames.size(); ++i) {
        const auto& got = trace.frames[i];
        const auto& want = r.frames[i];
        EXPECT_EQ(got.task, want.task);
        EXPECT_EQ(got.model,
                  scenario.tasks[size_t(want.task)].model.name);
        EXPECT_EQ(got.frameIdx, want.frameIdx);
        // Doubles survive the text round trip bit for bit.
        EXPECT_EQ(got.arrivalUs, want.arrivalUs);
        EXPECT_EQ(got.deadlineUs, want.deadlineUs);
        if (want.isCompleted()) {
            EXPECT_EQ(got.completionUs, want.completionUs);
            EXPECT_EQ(got.latencyUs,
                      want.completionUs - want.arrivalUs);
        } else {
            EXPECT_TRUE(std::isnan(got.completionUs));
            EXPECT_TRUE(std::isnan(got.latencyUs));
        }
        EXPECT_EQ(got.violated, want.violated);
        EXPECT_EQ(got.dropped, want.dropped);
        EXPECT_EQ(got.inWindow, want.inWindow);
        EXPECT_EQ(got.variant, want.variant);
        EXPECT_EQ(got.energyMj, want.energyMj);
    }
}

TEST(Trace, QuotedModelNamesRoundTrip)
{
    workload::Scenario scenario;
    scenario.name = "quoting";
    workload::TaskSpec spec;
    spec.model.name = "Weird, \"model\"\nv2";
    scenario.tasks.push_back(spec);

    sim::RunStats stats;
    sim::FrameRecord fr;
    fr.task = 0;
    fr.frameIdx = 4;
    fr.arrivalUs = 100.0;
    fr.deadlineUs = 200.0;
    fr.completionUs = 150.5;
    fr.energyMj = 1.25;
    stats.frames.push_back(fr);

    const auto csv = runner::frameTraceCsv(stats, scenario);
    // The raw name must not appear unquoted (it would shift cells).
    EXPECT_NE(csv.find("\"Weird, \"\"model\"\"\nv2\""),
              std::string::npos);

    std::istringstream is(csv);
    const auto trace = runner::readFrameTraceCsv(is);
    ASSERT_EQ(trace.frames.size(), 1u);
    EXPECT_EQ(trace.frames[0].model, "Weird, \"model\"\nv2");
    EXPECT_EQ(trace.frames[0].frameIdx, 4);
    EXPECT_EQ(trace.frames[0].completionUs, 150.5);
}

TEST(Trace, DroppedFramesWriteEmptyCellsNotSentinels)
{
    workload::Scenario scenario;
    workload::TaskSpec spec;
    spec.model.name = "cam";
    scenario.tasks.push_back(spec);

    sim::RunStats stats;
    sim::FrameRecord fr;
    fr.task = 0;
    fr.frameIdx = 0;
    fr.arrivalUs = 10.0;
    fr.deadlineUs = 20.0;
    // completionUs stays at its NaN default: never completed.
    fr.dropped = true;
    fr.violated = true;
    stats.frames.push_back(fr);

    const auto csv = runner::frameTraceCsv(stats, scenario);
    // No -1 sentinel anywhere: completion and latency are empty.
    EXPECT_EQ(csv.find("-1"), std::string::npos);
    EXPECT_NE(csv.find("cam,0,10,20,,,1,1,1,0,0"), std::string::npos);

    std::istringstream is(csv);
    const auto trace = runner::readFrameTraceCsv(is);
    ASSERT_EQ(trace.frames.size(), 1u);
    EXPECT_TRUE(std::isnan(trace.frames[0].completionUs));
    EXPECT_TRUE(std::isnan(trace.frames[0].latencyUs));
    EXPECT_TRUE(trace.frames[0].dropped);
}

TEST(Trace, ReaderRejectsMalformedInput)
{
    const auto read = [](const std::string& text) {
        std::istringstream is(text);
        return runner::readFrameTraceCsv(is);
    };
    const std::string header =
        "task,model,frame,arrival_us,deadline_us,completion_us,"
        "latency_us,violated,dropped,in_window,variant,energy_mj\n";

    EXPECT_THROW(read(""), std::runtime_error);
    EXPECT_THROW(read("model,frame\n"), std::runtime_error);
    // Wrong cell count.
    EXPECT_THROW(read(header + "0,cam,0\n"), std::runtime_error);
    // Non-numeric arrival.
    EXPECT_THROW(read(header + "0,cam,0,x,20,,,1,1,1,0,0\n"),
                 std::runtime_error);
    // Flags must be 0/1.
    EXPECT_THROW(read(header + "0,cam,0,10,20,,,2,1,1,0,0\n"),
                 std::runtime_error);
    // completion/latency must be empty together.
    EXPECT_THROW(read(header + "0,cam,0,10,20,15,,1,1,1,0,0\n"),
                 std::runtime_error);
    // Metadata lines must be key=value.
    EXPECT_THROW(read("# no equals sign\n" + header),
                 std::runtime_error);
    // task, frame and variant are decimal integers in [0, INT_MAX]:
    // no sign, and no wrapping of a value past the range.
    const auto row = [](const std::string& task, const std::string& frame,
                        const std::string& variant) {
        return task + ",cam," + frame + ",10,20,15,5,0,0,1," + variant +
               ",0.5\n";
    };
    for (const std::string bad : {"4294967296", "-1", "+1"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(read(header + row(bad, "0", "0")),
                     std::runtime_error);
        EXPECT_THROW(read(header + row("0", bad, "0")),
                     std::runtime_error);
        EXPECT_THROW(read(header + row("0", "0", bad)),
                     std::runtime_error);
    }
    // The error names the row and the column.
    try {
        read(header + row("0", "0", "0") + row("0", "4294967296", "0"));
        ADD_FAILURE() << "a frame cell past INT_MAX was accepted";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("row 2"), std::string::npos) << what;
        EXPECT_NE(what.find("'frame'"), std::string::npos) << what;
    }
    // Time and energy cells are finite numbers, and an arrival is not
    // negative: a NaN arrival once stalled a replay, a negative one
    // aborted it.
    const auto times = [](const std::string& arrival,
                          const std::string& deadline,
                          const std::string& completion,
                          const std::string& latency,
                          const std::string& energy) {
        return "0,cam,0," + arrival + ',' + deadline + ',' + completion +
               ',' + latency + ",0,0,1,0," + energy + '\n';
    };
    for (const std::string bad : {"nan", "inf", "-inf", "1e999"}) {
        SCOPED_TRACE(bad);
        for (const std::string& line :
             {times(bad, "20", "15", "5", "0.5"),
              times("10", bad, "15", "5", "0.5"),
              times("10", "20", bad, "5", "0.5"),
              times("10", "20", "15", bad, "0.5"),
              times("10", "20", "15", "5", bad)})
            EXPECT_THROW(read(header + line), std::runtime_error) << line;
    }
    EXPECT_THROW(read(header + times("-5", "20", "15", "5", "0.5")),
                 std::runtime_error);
    EXPECT_THROW(read(header + times("", "20", "15", "5", "0.5")),
                 std::runtime_error);
    try {
        read(header + times("10", "20", "15", "5", "0.5") +
             times("10", "nan", "", "", "0.5"));
        ADD_FAILURE() << "a NaN deadline was accepted";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("frame-trace CSV row 2"), std::string::npos)
            << what;
        EXPECT_NE(what.find("'deadline_us'"), std::string::npos) << what;
    }
    // Valid minimal trace parses; a zero arrival is a time too.
    EXPECT_EQ(read(header + times("0", "20", "", "", "0")).frames.size(),
              1u);
    const auto trace =
        read("# k=v\n" + header + "0,cam,0,10,20,15,5,0,0,1,0,0.5\n");
    EXPECT_EQ(trace.frames.size(), 1u);
    EXPECT_EQ(trace.metaValue("k"), "v");
}

TEST(Trace, ReplayReproducesRecordedRunBitForBit)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);

    for (const auto kind :
         {runner::SchedKind::Fcfs, runner::SchedKind::DreamFull}) {
        SCOPED_TRACE(runner::toString(kind));
        const auto original = runWith(system, scenario, kind, 5e5, 11);

        // Round-trip the trace through CSV text, then replay it.
        const auto csv = runner::frameTraceCsv(original, scenario);
        std::istringstream is(csv);
        const auto trace = runner::readFrameTraceCsv(is);
        const workload::ReplaySource replay(scenario, 11, trace);
        const auto replayed =
            runWith(system, scenario, kind, 5e5, 11, &replay);

        expectStatsBitIdentical(original, replayed);
        // The strongest form: the re-recorded trace is byte-identical.
        EXPECT_EQ(runner::frameTraceCsv(replayed, scenario), csv);
    }
}

TEST(Trace, ReplayInjectsIdenticalLoadUnderOtherSchedulers)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const auto recorded =
        runWith(system, scenario, runner::SchedKind::Fcfs, 4e5, 11);
    const auto csv = runner::frameTraceCsv(recorded, scenario);
    std::istringstream is(csv);
    const auto trace = runner::readFrameTraceCsv(is);

    // A different scheduler sees the exact recorded arrival set —
    // including cascade frames at their recorded release times, which
    // a generative run would re-derive from its own completions.
    const workload::ReplaySource replay(scenario, 11, trace);
    const auto other = runWith(system, scenario,
                               runner::SchedKind::DreamFull, 4e5, 11,
                               &replay);
    ASSERT_EQ(other.frames.size(), trace.frames.size());
    for (size_t i = 0; i < other.frames.size(); ++i) {
        EXPECT_EQ(other.frames[i].task, trace.frames[i].task);
        EXPECT_EQ(other.frames[i].frameIdx, trace.frames[i].frameIdx);
        EXPECT_EQ(other.frames[i].arrivalUs,
                  trace.frames[i].arrivalUs);
        EXPECT_EQ(other.frames[i].deadlineUs,
                  trace.frames[i].deadlineUs);
    }
}

TEST(Trace, ReplaySourceValidatesTraceAgainstScenario)
{
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);

    workload::FrameTrace bad_task;
    workload::TraceFrame fr;
    fr.task = workload::TaskId(scenario.tasks.size());
    fr.model = "nope";
    bad_task.frames.push_back(fr);
    EXPECT_THROW(workload::ReplaySource(scenario, 1, bad_task),
                 std::runtime_error);

    workload::FrameTrace bad_model;
    fr.task = 0;
    fr.model = "not-the-recorded-model";
    bad_model.frames.push_back(fr);
    EXPECT_THROW(workload::ReplaySource(scenario, 1, bad_model),
                 std::runtime_error);

    workload::FrameTrace ok;
    fr.model = scenario.tasks[0].model.name;
    ok.frames.push_back(fr);
    const workload::ReplaySource replay(scenario, 1, ok);
    EXPECT_THROW(replay.childFrame(0, 0, 0.0), std::logic_error);
}

TEST(Trace, LoadRecordedPointResolvesAndRejectsMetadata)
{
    const std::string dir =
        ::testing::TempDir() + "dream_recorded_point";
    std::filesystem::remove_all(dir);
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::ArCall)
        .addSystem(hw::SystemPreset::Sys4k2Ws)
        .addScheduler(runner::SchedKind::StaticFcfs)
        .seeds({11})
        .window(5e4);
    auto recorded = grid.point(0);
    recorded.index = 7; // its row in a multi-grid run
    engine::EngineOptions opts;
    opts.traceDir = dir;
    engine::Engine(opts).run({recorded});
    const std::string path = dir + '/' + engine::traceFileName(recorded);

    const auto point = runner::loadRecordedPoint(path);
    EXPECT_EQ(point.scenario, "AR_Call");
    EXPECT_EQ(point.preset, workload::ScenarioPreset::ArCall);
    EXPECT_EQ(point.cascadeProb, 0.5);
    EXPECT_EQ(point.system, hw::SystemPreset::Sys4k2Ws);
    EXPECT_EQ(point.scheduler, runner::SchedKind::StaticFcfs);
    EXPECT_EQ(point.seed, 11u);
    EXPECT_EQ(point.windowUs, 5e4);
    EXPECT_EQ(point.index, 7u);

    // Rewrite one metadata line (drop it for an empty value).
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const std::string bad = dir + "/bad.trace.csv";
    const auto with = [&](const std::string& key,
                          const std::string& value) {
        const size_t at = text.find("# " + key + '=');
        EXPECT_NE(at, std::string::npos) << key;
        const size_t end = text.find('\n', at) + 1;
        std::ofstream(bad) << text.substr(0, at)
                           << (value.empty() ? ""
                                             : "# " + key + '=' + value +
                                                   '\n')
                           << text.substr(end);
        return bad;
    };
    const auto rejected = [&](const std::string& key,
                              const std::string& value) {
        try {
            runner::loadRecordedPoint(with(key, value));
        } catch (const std::runtime_error& e) {
            // The error names the file.
            return std::string(e.what()).rfind(bad + ": ", 0) == 0;
        }
        return false;
    };
    // A NaN window would make a replay never end.
    for (const char* w : {"nan", "inf", "-1", "0", "2e6x", ""})
        EXPECT_TRUE(rejected("window_us", w)) << "window_us=" << w;
    for (const char* seed : {"-1", "1.5", "18446744073709551616", ""})
        EXPECT_TRUE(rejected("seed", seed)) << "seed=" << seed;
    EXPECT_TRUE(rejected("index", "x"));
    EXPECT_TRUE(rejected("system", "4K-9WS"));
    EXPECT_TRUE(rejected("scheduler", "LIFO"));
    EXPECT_TRUE(rejected("scenario", "Gen7"));
    EXPECT_TRUE(rejected("params", "alpha=1"));
    EXPECT_THROW(runner::loadRecordedPoint(dir + "/missing.trace.csv"),
                 std::runtime_error);

    // The "@p" suffix carries the cascade probability.
    const auto cascade =
        runner::loadRecordedPoint(with("scenario", "VR_Gaming@p0.9"));
    EXPECT_EQ(cascade.preset, workload::ScenarioPreset::VrGaming);
    EXPECT_EQ(cascade.cascadeProb, 0.9);
    EXPECT_EQ(
        runner::loadRecordedPoint(with("seed", "18446744073709551615"))
            .seed,
        UINT64_MAX);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace dream
