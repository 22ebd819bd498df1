/**
 * @file
 * Sweep engine tests: worker-pool semantics, grid decoding, sink
 * formatting, per-cell aggregation, run selection and the bench run
 * loop, the --jobs determinism contract (parallel == serial, byte
 * for byte) and the equivalence of the engine's parameter grid with
 * the single-point evaluator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_main.h"
#include "core/adaptivity.h"
#include "costmodel/cost_table_cache.h"
#include "engine/engine.h"
#include "engine/param_eval.h"
#include "engine/result_sink.h"
#include "engine/worker_pool.h"
#include "runner/trace.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace dream {
namespace {

TEST(WorkerPool, CoversEveryIndexExactlyOnce)
{
    constexpr size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits)
        h.store(0);

    engine::WorkerPool pool(8);
    pool.parallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(WorkerPool, SerialModeRunsInline)
{
    engine::WorkerPool pool(1);
    EXPECT_EQ(pool.jobs(), 1);
    std::vector<size_t> order;
    pool.parallelFor(5, [&](size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, PropagatesWorkerExceptions)
{
    engine::WorkerPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
}

TEST(WorkerPool, NonPositiveJobsSelectsHardwareConcurrency)
{
    engine::WorkerPool pool(0);
    EXPECT_GE(pool.jobs(), 1);
    EXPECT_EQ(pool.jobs(), engine::WorkerPool::defaultJobs());
}

TEST(SweepGrid, DecodesIndicesSeedFastest)
{
    engine::SweepGrid grid;
    grid.addScenario("SC", [] { return workload::Scenario{}; })
        .addSystem("SYS", [] { return hw::SystemConfig{}; })
        .addScheduler("A", [](const engine::ParamMap&) {
            return std::unique_ptr<sim::Scheduler>();
        })
        .addScheduler("B", [](const engine::ParamMap&) {
            return std::unique_ptr<sim::Scheduler>();
        })
        .addParam("x", {0.0, 1.0, 2.0})
        .seeds({7, 9})
        .window(1e5);

    ASSERT_EQ(grid.size(), 2u * 3u * 2u);

    const auto p0 = grid.point(0);
    EXPECT_EQ(p0.scheduler, "A");
    EXPECT_EQ(engine::paramValue(p0.params, "x"), 0.0);
    EXPECT_EQ(p0.seed, 7u);
    EXPECT_EQ(p0.key(), "SC/SYS/A/x=0/seed=7");
    EXPECT_EQ(p0.cellKey(), "SC/SYS/A/x=0");

    // Seed varies fastest...
    EXPECT_EQ(grid.point(1).seed, 9u);
    EXPECT_EQ(engine::paramValue(grid.point(1).params, "x"), 0.0);
    // ...then the parameter axis...
    EXPECT_EQ(engine::paramValue(grid.point(2).params, "x"), 1.0);
    EXPECT_EQ(grid.point(2).seed, 7u);
    // ...then the scheduler axis.
    const auto last = grid.point(grid.size() - 1);
    EXPECT_EQ(last.scheduler, "B");
    EXPECT_EQ(engine::paramValue(last.params, "x"), 2.0);
    EXPECT_EQ(last.seed, 9u);
    EXPECT_EQ(last.windowUs, 1e5);
}

TEST(SweepGrid, UnknownParamNameThrows)
{
    const engine::ParamMap params = {{"alpha", 1.0}};
    EXPECT_EQ(engine::paramValue(params, "alpha"), 1.0);
    EXPECT_THROW(engine::paramValue(params, "beta"),
                 std::out_of_range);
}

TEST(SweepGrid, LinspaceHitsEndpoints)
{
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::ArCall)
        .addSystem(hw::SystemPreset::Sys4k2Ws)
        .addScheduler(runner::SchedKind::Fcfs)
        .linspaceParam("a", 0.0, 2.0, 9);
    ASSERT_EQ(grid.size(), 9u);
    const auto value = [&grid](size_t i) {
        return engine::paramValue(grid.point(i).params, "a");
    };
    EXPECT_DOUBLE_EQ(value(0), 0.0);
    EXPECT_DOUBLE_EQ(value(4), 1.0);
    EXPECT_DOUBLE_EQ(value(8), 2.0);
}

namespace {

engine::RunRecord
syntheticRecord(const std::string& sched, uint64_t seed, double ux)
{
    engine::RunRecord r;
    r.scenario = "sc";
    r.system = "sys";
    r.scheduler = sched;
    r.seed = seed;
    r.uxCost = ux;
    r.energyMj = 10.0 * ux;
    r.totalFrames = 100;
    r.droppedFrames = seed; // distinct drop rates per seed
    r.dropRate = double(seed) / 100.0;
    return r;
}

} // anonymous namespace

TEST(AggregateSink, GroupsSeedsIntoCells)
{
    engine::AggregateSink agg;
    agg.write(syntheticRecord("A", 1, 1.0));
    agg.write(syntheticRecord("A", 2, 3.0));
    agg.write(syntheticRecord("A", 3, 2.0));
    agg.write(syntheticRecord("B", 1, 10.0));

    const auto cells = agg.cells();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].key, "sc/sys/A");
    EXPECT_EQ(cells[0].runs, 3u);
    EXPECT_DOUBLE_EQ(cells[0].uxCost.mean, 2.0);
    EXPECT_DOUBLE_EQ(cells[0].dropRate.mean, 0.02);
    EXPECT_EQ(cells[1].key, "sc/sys/B");
    EXPECT_EQ(cells[1].runs, 1u);
    EXPECT_DOUBLE_EQ(cells[1].uxCost.mean, 10.0);
}

TEST(CsvSink, EmitsHeaderAndRow)
{
    engine::RunRecord r = syntheticRecord("A", 11, 1.5);
    r.index = 4;
    r.params = {{"alpha", 0.25}};
    r.windowUs = 1e6;

    std::ostringstream out;
    {
        engine::CsvSink sink(out);
        sink.write(r);
    }
    EXPECT_EQ(out.str(),
              "index,scenario,system,scheduler,alpha,seed,window_us,"
              "ux_cost,dlv_rate,norm_energy,energy_mj,violation_frac,"
              "drop_rate,total_frames,violated_frames,dropped_frames,"
              "sched_invocations\n"
              "4,sc,sys,A,0.25,11,1000000,1.5,0,0,15,0,0.11,100,0,11,"
              "0\n");
}

/** A small but real grid: 2 schedulers x 2 alphas x 2 seeds. */
engine::SweepGrid
smallGrid()
{
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::VrGaming)
        .addSystem(hw::SystemPreset::Sys4k1Ws2Os)
        .addScheduler(runner::SchedKind::Fcfs)
        .addParam("alpha", {0.5, 1.5})
        .addParam("beta", {1.0})
        .seeds({1, 2})
        .window(5e4);
    const auto dream = engine::dreamFixedParamScheduler();
    grid.addScheduler(dream.name, dream.make);
    return grid;
}

TEST(Engine, ParallelRunsAreByteIdenticalToSerial)
{
    const auto grid = smallGrid();
    ASSERT_EQ(grid.size(), 8u);

    std::ostringstream csv1, csv8;
    engine::CsvSink sink1(csv1), sink8(csv8);
    const auto serial = engine::Engine(1).run(grid, {&sink1});
    const auto parallel = engine::Engine(8).run(grid, {&sink8});

    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(csv1.str(), csv8.str());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].key(), parallel[i].key());
        EXPECT_EQ(serial[i].uxCost, parallel[i].uxCost) << i;
        EXPECT_EQ(serial[i].energyMj, parallel[i].energyMj) << i;
        EXPECT_EQ(serial[i].totalFrames, parallel[i].totalFrames) << i;
    }
}

TEST(Engine, SharedCostTablesMatchPerPointTables)
{
    // ARCHITECTURE.md invariant 3: a run on the cache's shared table
    // gives the bytes of a run on a table built for that point alone,
    // at any --jobs value. The two systems have the same shape but
    // different dataflows, so a cache key that ignored the system
    // would hand one system the other's numbers; VR_Gaming brings a
    // Supernet, whose variant layers DREAM-Full switches to.
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::VrGaming)
        .addScenario(workload::ScenarioPreset::ArCall)
        .addSystem(hw::SystemPreset::Sys4k2Ws)
        .addSystem(hw::SystemPreset::Sys4k2Os)
        .addScheduler(runner::SchedKind::Fcfs)
        .addScheduler(runner::SchedKind::DreamFull)
        .seeds({3})
        .window(1e5);
    ASSERT_EQ(grid.size(), 8u);

    std::ostringstream shared1, shared4, own;
    cost::CostTableCache::global().clear();
    {
        engine::CsvSink sink1(shared1), sink4(shared4);
        engine::Engine(1).run(grid, {&sink1});
        engine::Engine(4).run(grid, {&sink4});
    }
    cost::CostTableCache::global().clear();

    {
        engine::CsvSink sink(own);
        for (size_t i = 0; i < grid.size(); ++i) {
            const auto point = grid.point(i);
            const workload::Scenario scenario = (*point.makeScenario)();
            const hw::SystemConfig system = (*point.makeSystem)();
            cost::CostTable costs(system);
            for (const auto& task : scenario.tasks)
                costs.addModel(task.model);
            sim::SimConfig cfg;
            cfg.windowUs = point.windowUs;
            cfg.seed = point.seed;
            const auto sched = (*point.makeScheduler)(point.params);
            sim::Simulator simulator(system, scenario, costs, cfg);

            engine::RunRecord r;
            r.index = point.index;
            r.scenario = point.scenario;
            r.system = point.system;
            r.scheduler = point.scheduler;
            r.params = point.params;
            r.seed = point.seed;
            r.windowUs = point.windowUs;
            engine::fillMetrics(r, simulator.run(*sched));
            sink.write(r);
        }
    }

    EXPECT_EQ(shared1.str(), own.str());
    EXPECT_EQ(shared4.str(), own.str());
}

TEST(Engine, ParamGridMatchesSingleEvaluator)
{
    const auto sys_preset = hw::SystemPreset::Sys4k1Ws2Os;
    const auto sc_preset = workload::ScenarioPreset::VrGaming;
    const auto grid =
        engine::paramSpaceGrid(sys_preset, sc_preset, 2);
    const auto records = engine::Engine(2).run(grid);
    ASSERT_EQ(records.size(), 4u);

    const auto system = hw::makeSystem(sys_preset);
    const auto scenario = workload::makeScenario(sc_preset);
    engine::WorkerPool pool(2);
    std::vector<std::pair<double, double>> pts;
    for (const auto& r : records)
        pts.push_back({engine::paramValue(r.params, "alpha"),
                       engine::paramValue(r.params, "beta")});
    const auto costs =
        engine::makeBatchEvaluator(system, scenario, pool)(pts);
    ASSERT_EQ(costs.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(records[i].uxCost, costs[i]) << records[i].key();
}

/** The whole of a selected ordering. */
std::pair<size_t, size_t>
everything(size_t total)
{
    return {0, total};
}

/** bench::Options of a --shard K/N run, with an optional --filter. */
bench::Options
shardOpts(size_t k, size_t n, const std::string& filter = {})
{
    bench::Options opts;
    opts.shard = k;
    opts.shards = n;
    opts.filter = filter;
    return opts;
}

/** The points of @p grid at @p indices: a list Engine::run runs. */
std::vector<engine::SweepGrid::Point>
pointsAt(const engine::SweepGrid& grid, const std::vector<size_t>& indices)
{
    std::vector<engine::SweepGrid::Point> points;
    for (const size_t i : indices)
        points.push_back(grid.point(i));
    return points;
}

/** The points of @p grid a bench run with @p opts selects. */
std::vector<engine::SweepGrid::Point>
selected(const engine::SweepGrid& grid, const bench::Options& opts)
{
    const auto range = [&](size_t total) { return opts.range(total); };
    return pointsAt(grid,
                    engine::selectPoints({&grid}, opts.filter, range)[0]);
}

TEST(Engine, FilteredRunSelectsMatchingPointsDeterministically)
{
    const auto grid = smallGrid();
    const auto points = pointsAt(
        grid, engine::selectPoints({&grid}, "seed=1", everything)[0]);

    std::ostringstream csv1, csv4;
    engine::CsvSink sink1(csv1), sink4(csv4);
    const auto serial = engine::Engine(1).run(points, {&sink1});
    const auto parallel = engine::Engine(4).run(points, {&sink4});

    ASSERT_EQ(serial.size(), 4u); // half of the 8 points
    EXPECT_EQ(csv1.str(), csv4.str());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].seed, 1u);
        EXPECT_EQ(serial[i].key(), parallel[i].key());
        EXPECT_EQ(serial[i].uxCost, parallel[i].uxCost);
    }
    // Original grid indices are preserved and ascending.
    for (size_t i = 1; i < serial.size(); ++i)
        EXPECT_GT(serial[i].index, serial[i - 1].index);

    // An empty filter selects every point.
    EXPECT_EQ(engine::selectPoints({&grid}, "", everything)[0].size(),
              grid.size());
}

TEST(BenchOptions, ShardRangesTileTheSequenceExactly)
{
    for (const size_t total : {0u, 1u, 3u, 7u, 8u, 100u}) {
        for (const size_t n : {1u, 2u, 3u, 4u, 7u, 10u}) {
            size_t covered = 0;
            size_t prev_end = 0;
            for (size_t k = 1; k <= n; ++k) {
                const auto r = shardOpts(k, n).range(total);
                EXPECT_EQ(r.first, prev_end); // contiguous
                EXPECT_LE(r.second, total);
                prev_end = r.second;
                covered += r.second - r.first;
            }
            EXPECT_EQ(prev_end, total);   // covering
            EXPECT_EQ(covered, total);    // disjoint
        }
    }
    // More shards than points: some shards are empty, none gets
    // more than one point.
    for (size_t k = 1; k <= 4; ++k) {
        const auto r = shardOpts(k, 4).range(2);
        EXPECT_LE(r.second - r.first, 1u) << k;
    }
    EXPECT_EQ(shardOpts(1, 4).range(2).second, 0u);
    // Without --shard a run selects everything.
    EXPECT_EQ(bench::Options().range(5), (std::pair<size_t, size_t>{0, 5}));
}

TEST(Engine, ShardedRunsPartitionTheGrid)
{
    const auto grid = smallGrid();
    const auto full = engine::Engine(1).run(grid);
    ASSERT_EQ(full.size(), 8u);

    std::vector<engine::RunRecord> stitched;
    for (size_t k = 1; k <= 3; ++k) {
        const auto part =
            engine::Engine(2).run(selected(grid, shardOpts(k, 3)));
        stitched.insert(stitched.end(), part.begin(), part.end());
    }
    ASSERT_EQ(stitched.size(), full.size());
    for (size_t i = 0; i < full.size(); ++i) {
        EXPECT_EQ(stitched[i].key(), full[i].key());
        EXPECT_EQ(stitched[i].uxCost, full[i].uxCost) << i;
        EXPECT_EQ(stitched[i].index, full[i].index) << i;
    }
}

TEST(Engine, ShardComposesWithKeyFilter)
{
    const auto grid = smallGrid();
    const auto filtered = engine::Engine(1).run(pointsAt(
        grid, engine::selectPoints({&grid}, "seed=1", everything)[0]));
    ASSERT_EQ(filtered.size(), 4u);

    // The shards partition the FILTERED sequence, not the grid.
    std::vector<engine::RunRecord> stitched;
    for (size_t k = 1; k <= 2; ++k) {
        const auto part = engine::Engine(1).run(
            selected(grid, shardOpts(k, 2, "seed=1")));
        EXPECT_EQ(part.size(), 2u);
        stitched.insert(stitched.end(), part.begin(), part.end());
    }
    ASSERT_EQ(stitched.size(), filtered.size());
    for (size_t i = 0; i < filtered.size(); ++i)
        EXPECT_EQ(stitched[i].key(), filtered[i].key());

    // A shard of a tiny filtered set can be empty: 4 points in 9
    // shards leave the last shard one point and shard 2 none.
    EXPECT_EQ(selected(grid, shardOpts(9, 9, "seed=1")).size(), 1u);
    EXPECT_TRUE(selected(grid, shardOpts(2, 9, "seed=1")).empty());
}

TEST(Engine, ShardPositionsAreGlobalAcrossGrids)
{
    // fig10 scans three 49-point grids as one ordering of 147
    // positions, so a shard may straddle a grid boundary: shard 3/7
    // is [42, 63), the first grid's last 7 points and the second
    // grid's first 14.
    const auto g = engine::paramSpaceGrid(
        hw::SystemPreset::Sys4k1Os2Ws, workload::ScenarioPreset::VrGaming,
        7);
    ASSERT_EQ(g.size(), 49u);
    const std::vector<const engine::SweepGrid*> three = {&g, &g, &g};
    const auto range = [](const bench::Options& opts) {
        return [opts](size_t total) { return opts.range(total); };
    };
    auto sel = engine::selectPoints(three, "", range(shardOpts(3, 7)));
    EXPECT_EQ(sel[0], (std::vector<size_t>{42, 43, 44, 45, 46, 47, 48}));
    ASSERT_EQ(sel[1].size(), 14u);
    EXPECT_EQ(sel[1].front(), 0u);
    EXPECT_EQ(sel[1].back(), 13u);
    EXPECT_TRUE(sel[2].empty());

    // Shard 2/2 of the 147 positions is [73, 147), the second grid's
    // tail and all of the third.
    sel = engine::selectPoints(three, "", range(shardOpts(2, 2)));
    EXPECT_TRUE(sel[0].empty());
    ASSERT_EQ(sel[1].size(), 25u);
    EXPECT_EQ(sel[1].front(), 24u);
    EXPECT_EQ(sel[2].size(), 49u);

    // The filter applies first; the shard cuts the filtered ordering
    // (each grid's first 7 points have alpha=0: 21 positions in all,
    // of which shard 2/4 is [5, 10)).
    sel = engine::selectPoints(three, "alpha=0,", range(shardOpts(2, 4)));
    EXPECT_EQ(sel[0], (std::vector<size_t>{5, 6}));
    EXPECT_EQ(sel[1], (std::vector<size_t>{0, 1, 2}));
    EXPECT_TRUE(sel[2].empty());
}

namespace {

/** What one bench::run invocation wrote. */
struct BenchOutput {
    bool returned = false; ///< records came back (a full run)
    std::vector<engine::RunRecord> records;
    std::string out;     ///< the --out file
    std::string printed; ///< stdout
    std::string metrics; ///< the canonical --metrics dump
};

BenchOutput
runBench(bench::Options opts, const std::vector<bench::Scan>& scans,
         const std::string& out_path)
{
    opts.out = out_path;
    opts.metricsFile = std::make_shared<bench::MetricsFile>();
    ::testing::internal::CaptureStdout();
    const auto records = bench::run(opts, scans);
    BenchOutput o;
    o.printed = ::testing::internal::GetCapturedStdout();
    o.returned = records.has_value();
    if (records)
        o.records = *records;
    std::ifstream in(out_path);
    o.out.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    std::ostringstream metrics;
    opts.metricsFile->registry.writeJson(metrics);
    o.metrics = metrics.str();
    EXPECT_FALSE(opts.metricsFile->registry.counters().empty());
    return o;
}

} // anonymous namespace

TEST(BenchRun, FullRunEqualsAnAllSelectingFilterAndItsShards)
{
    // Shaped like trace_replay: several grids whose rows sit at
    // explicit, non-contiguous bases (its recorded indices).
    const std::string dir = ::testing::TempDir() + "dream_bench_run";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<engine::SweepGrid> grids(3);
    grids[0].addScenario(workload::ScenarioPreset::ArCall)
        .addScheduler(runner::SchedKind::Fcfs)
        .seeds({1, 2});
    grids[1].addScenario(workload::ScenarioPreset::DroneOutdoor)
        .addScheduler(runner::SchedKind::Fcfs)
        .seeds({3});
    grids[2].addScenario(workload::ScenarioPreset::ArCall)
        .addScheduler(runner::SchedKind::StaticFcfs)
        .seeds({1});
    for (auto& grid : grids)
        grid.addSystem(hw::SystemPreset::Sys4k2Ws).window(5e4);
    const std::vector<bench::Scan> scans = {
        {grids[0], "A", 2}, {grids[1], "B", 5}, {grids[2], "C", 9}};

    bench::Options full_opts;
    full_opts.jobs = 2;
    const auto full = runBench(full_opts, scans, dir + "/full.csv");
    ASSERT_TRUE(full.returned);
    ASSERT_EQ(full.records.size(), 4u);
    const std::vector<size_t> rows = {2, 3, 5, 9};
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(full.records[i].index, rows[i]);
    EXPECT_TRUE(full.printed.empty()); // the report is the bench's

    // Every key contains '/': the filter selects everything, runs it
    // as a subset run (rows on stdout, no records back) and writes
    // the same --out bytes and the same merged registry.
    bench::Options filter_opts;
    filter_opts.filter = "/";
    const auto filtered = runBench(filter_opts, scans, dir + "/f.csv");
    EXPECT_FALSE(filtered.returned);
    EXPECT_EQ(filtered.out, full.out);
    EXPECT_EQ(filtered.printed, full.out);
    EXPECT_EQ(filtered.metrics, full.metrics);

    // The --shard K/4 legs hold one row each, in row order.
    const auto full_table = engine::readResultCsv(dir + "/full.csv");
    std::vector<std::vector<std::string>> legs;
    for (size_t k = 1; k <= 4; ++k) {
        const std::string path = dir + "/leg" + std::to_string(k);
        const auto leg = runBench(shardOpts(k, 4), scans, path);
        EXPECT_FALSE(leg.returned);
        EXPECT_EQ(leg.printed, leg.out);
        const auto table = engine::readResultCsv(path);
        EXPECT_EQ(table.schema.columns, full_table.schema.columns);
        EXPECT_EQ(table.rows.size(), 1u) << k;
        legs.insert(legs.end(), table.rows.begin(), table.rows.end());
    }
    EXPECT_EQ(legs, full_table.rows);
    std::filesystem::remove_all(dir);
}

TEST(Engine, IndexBaseOffsetsRowTraceMetadataAndEventPid)
{
    const std::string dir =
        ::testing::TempDir() + "dream_engine_index_base";
    std::filesystem::remove_all(dir);
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::ArCall)
        .addSystem(hw::SystemPreset::Sys4k2Ws)
        .addScheduler(runner::SchedKind::Fcfs)
        .seeds({1, 2})
        .window(5e4);

    // Grid point 1 as row 101, as a bench whose earlier grids hold
    // rows 0-99 runs it.
    auto point = grid.point(1);
    point.index += 100;
    engine::EngineOptions opts;
    opts.traceDir = dir + "/frames";
    opts.traceEventDir = dir + "/events";
    std::ostringstream csv;
    engine::CsvSink sink(csv);
    const auto records = engine::Engine(opts).run({point}, {&sink});
    sink.close();
    ASSERT_EQ(records.size(), 1u);

    // The row index, the recorded "# index=" metadata and the event
    // pid all carry the base, so several grids share one file.
    EXPECT_EQ(records[0].index, 101u);
    EXPECT_NE(csv.str().find("\n101,"), std::string::npos) << csv.str();
    EXPECT_EQ(runner::readFrameTraceCsv(opts.traceDir + '/' +
                                        engine::traceFileName(point))
                  .metaValue("index"),
              "101");
    std::ifstream events(opts.traceEventDir + '/' +
                         engine::traceEventFileName(point));
    const std::string json((std::istreambuf_iterator<char>(events)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(json.find("\"pid\": 101,"), std::string::npos);
    EXPECT_EQ(json.find("\"pid\": 1,"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Engine, SupernetRunsCarryVariantShareBreakdown)
{
    // VR_Gaming carries the OFA Supernet; DREAM-Full may switch
    // variants, and even without switches the share columns exist.
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::VrGaming)
        .addSystem(hw::SystemPreset::Sys4k1Ws2Os)
        .addScheduler(runner::SchedKind::DreamFull)
        .seeds({11})
        .window(1e5);
    const auto records = engine::Engine(1).run(grid);
    ASSERT_EQ(records.size(), 1u);
    const auto& r = records[0];
    ASSERT_FALSE(r.breakdown.empty());
    double share_sum = 0.0;
    for (const auto& kv : r.breakdown) {
        EXPECT_NE(kv.first.find("_share"), std::string::npos);
        EXPECT_GE(kv.second, 0.0);
        EXPECT_LE(kv.second, 1.0);
        share_sum += kv.second;
    }
    EXPECT_NEAR(share_sum, 1.0, 1e-9);
    EXPECT_TRUE(std::isnan(r.breakdownValue("no_such_column")));
}

TEST(CsvSink, BreakdownColumnsAreTheUnionOverAllRecords)
{
    engine::RunRecord with = syntheticRecord("A", 1, 1.0);
    with.breakdown = {{"net_v0_share", 0.75}, {"net_v1_share", 0.25}};
    engine::RunRecord without = syntheticRecord("B", 2, 2.0);

    std::ostringstream out;
    {
        engine::CsvSink sink(out);
        // The record lacking breakdown columns comes FIRST: the
        // header must still carry the union (a grid whose first
        // point has no Supernet must not drop later points' shares).
        sink.write(without);
        sink.write(with);
    }
    const std::string s = out.str();
    EXPECT_NE(s.find(",net_v0_share,net_v1_share\n"),
              std::string::npos);
    EXPECT_NE(s.find(",0.75,0.25\n"), std::string::npos);
    EXPECT_NE(s.find(",,\n"), std::string::npos);
    // Every row has the same column count.
    size_t header_commas = 0, row_commas = std::string::npos;
    std::istringstream lines(s);
    std::string line;
    std::getline(lines, line);
    header_commas = size_t(std::count(line.begin(), line.end(), ','));
    while (std::getline(lines, line)) {
        row_commas = size_t(std::count(line.begin(), line.end(), ','));
        EXPECT_EQ(row_commas, header_commas) << line;
    }
}

TEST(AggregateSink, SummarisesBreakdownColumnsPerCell)
{
    engine::AggregateSink agg;
    engine::RunRecord a = syntheticRecord("A", 1, 1.0);
    a.breakdown = {{"net_v0_share", 0.8}};
    engine::RunRecord b = syntheticRecord("A", 2, 2.0);
    b.breakdown = {{"net_v0_share", 0.4}};
    agg.write(a);
    agg.write(b);
    const auto cells = agg.cells();
    ASSERT_EQ(cells.size(), 1u);
    ASSERT_EQ(cells[0].breakdown.size(), 1u);
    EXPECT_EQ(cells[0].breakdown[0].first, "net_v0_share");
    EXPECT_DOUBLE_EQ(cells[0].breakdown[0].second.mean, 0.6);
}

TEST(ReportHelpers, GroupFindAndRatioCells)
{
    engine::AggregateSink agg;
    const auto rec = [](const char* sys, const char* sched,
                        double ux, double viol) {
        engine::RunRecord r;
        r.scenario = "sc";
        r.system = sys;
        r.scheduler = sched;
        r.seed = 11;
        r.uxCost = ux;
        r.violationFraction = viol;
        return r;
    };
    agg.write(rec("S1", "Base", 2.0, 0.5));
    agg.write(rec("S1", "New", 1.0, 0.2));
    agg.write(rec("S2", "Base", 4.0, 0.8));
    agg.write(rec("S2", "New", 3.0, 0.4));
    const auto cells = agg.cells();

    const auto groups = engine::groupCells(
        cells, [](const engine::AggregateSink::Cell& c) {
            return c.system;
        });
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].key, "S1");
    EXPECT_EQ(groups[0].cells.size(), 2u);
    EXPECT_EQ(groups[1].key, "S2");

    const auto* found = engine::findCell(cells, "sc", "S2", "New");
    ASSERT_NE(found, nullptr);
    EXPECT_DOUBLE_EQ(found->uxCost.mean, 3.0);
    EXPECT_EQ(engine::findCell(cells, "sc", "S3", "New"), nullptr);

    const auto ratios = engine::schedulerRatios(cells, "New", "Base");
    ASSERT_EQ(ratios.size(), 2u);
    EXPECT_EQ(ratios[0].system, "S1");
    EXPECT_DOUBLE_EQ(ratios[0].ratio, 0.5);
    EXPECT_DOUBLE_EQ(ratios[0].reduction(), 0.5);
    EXPECT_DOUBLE_EQ(ratios[1].ratio, 0.75);

    const auto viol_ratios = engine::schedulerRatios(
        cells, "New", "Base",
        [](const engine::AggregateSink::Cell& c) {
            return c.violationFraction.mean;
        });
    ASSERT_EQ(viol_ratios.size(), 2u);
    EXPECT_DOUBLE_EQ(viol_ratios[0].ratio, 0.4);
}

TEST(ReportHelpers, CellAtNamesTheGridCellKey)
{
    // A two-parameter grid point no aggregated cell holds: the error
    // names it by the key the grid and the sinks print.
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::ArCall)
        .addSystem(hw::SystemPreset::Sys4k2Ws)
        .addScheduler(runner::SchedKind::Fcfs)
        .addParam("alpha", {1.0})
        .addParam("beta", {2.0});
    const auto point = grid.point(0);
    engine::AggregateSink agg;
    agg.write(syntheticRecord("A", 1, 1.0));
    try {
        engine::cellAt(agg.cells(), point.scenario, point.system,
                       point.scheduler, point.params);
        FAIL() << "cellAt found a cell no record made";
    } catch (const std::out_of_range& e) {
        EXPECT_EQ(std::string(e.what()),
                  "no aggregated cell for " + point.cellKey());
    }
}

TEST(SweepGrid, GeneratedScenarioAxisIsDeterministic)
{
    workload::ScenarioGenSpec spec;
    spec.minTasks = 2;
    spec.maxTasks = 3;

    const auto build = [&spec]() {
        engine::SweepGrid grid;
        grid.addGeneratedScenarios(spec, 3, 7)
            .addSystem(hw::SystemPreset::Sys4k1Ws2Os)
            .addScheduler(runner::SchedKind::Fcfs)
            .seeds({11})
            .window(5e4);
        return grid;
    };

    const auto grid = build();
    ASSERT_EQ(grid.size(), 3u);
    EXPECT_EQ(grid.point(0).scenario, "Gen7");
    EXPECT_EQ(grid.point(2).scenario, "Gen9");

    // Two independently built grids simulate identically.
    const auto r1 = engine::Engine(1).run(build());
    const auto r2 = engine::Engine(4).run(build());
    ASSERT_EQ(r1.size(), r2.size());
    for (size_t i = 0; i < r1.size(); ++i) {
        EXPECT_EQ(r1[i].key(), r2[i].key());
        EXPECT_EQ(r1[i].uxCost, r2[i].uxCost) << i;
        EXPECT_EQ(r1[i].totalFrames, r2[i].totalFrames) << i;
    }
}

TEST(ParamSearch, BatchedOptimizeMatchesSerial)
{
    const auto cost = [](double a, double b) {
        return (a - 0.7) * (a - 0.7) + (b - 1.3) * (b - 1.3);
    };
    engine::WorkerPool pool(4);
    const core::BatchCostFn batch =
        [&](const std::vector<std::pair<double, double>>& pts) {
            std::vector<double> out(pts.size());
            pool.parallelFor(pts.size(), [&](size_t i) {
                out[i] = cost(pts[i].first, pts[i].second);
            });
            return out;
        };

    // The same search, its batches run point by point on this thread
    // and across the pool's workers.
    const core::ParamSearch search{};
    const auto serial = search.optimize(test::serialBatch(cost), 0.2, 1.8);
    const auto batched = search.optimize(batch, 0.2, 1.8);

    EXPECT_EQ(serial.alpha, batched.alpha);
    EXPECT_EQ(serial.beta, batched.beta);
    EXPECT_EQ(serial.cost, batched.cost);
    EXPECT_EQ(serial.evaluations, batched.evaluations);
    ASSERT_EQ(serial.trajectory.size(), batched.trajectory.size());
    for (size_t i = 0; i < serial.trajectory.size(); ++i) {
        EXPECT_EQ(serial.trajectory[i].alpha,
                  batched.trajectory[i].alpha);
        EXPECT_EQ(serial.trajectory[i].cost,
                  batched.trajectory[i].cost);
    }
}

TEST(Engine, TraceFileNameSanitizesTheKey)
{
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::ArCall);
    grid.addSystem(hw::SystemPreset::Sys4k1Ws2Os);
    grid.addScheduler(runner::SchedKind::Fcfs);
    grid.window(1e5);
    const auto point = grid.point(0);
    const std::string name = engine::traceFileName(point);
    EXPECT_EQ(name.find('/'), std::string::npos);
    EXPECT_NE(name.find("AR_Call"), std::string::npos);
    EXPECT_NE(name.find("seed=11"), std::string::npos);
    EXPECT_EQ(name.substr(name.size() - 10), ".trace.csv");
}

TEST(Engine, RecordReplayRoundTripThroughTheGrid)
{
    // Record: a 2-scheduler sweep writes one trace per grid point.
    const std::string dir = ::testing::TempDir() +
                            "dream_engine_trace_roundtrip";
    std::filesystem::remove_all(dir);

    engine::SweepGrid record;
    record.addScenario(workload::ScenarioPreset::ArCall);
    record.addSystem(hw::SystemPreset::Sys4k2Ws);
    record.addScheduler(runner::SchedKind::Fcfs);
    record.addScheduler(runner::SchedKind::StaticFcfs);
    record.seeds({11});
    record.window(2e5);

    engine::EngineOptions ropts;
    ropts.jobs = 2;
    ropts.traceDir = dir;
    const auto recorded = engine::Engine(ropts).run(record);
    ASSERT_EQ(recorded.size(), 2u);

    // Replay: every recorded point, rebuilt from its trace file via
    // the grid's trace axis, reproduces the recorded metrics exactly.
    for (const auto& r : recorded) {
        const auto point = record.point(r.index);
        const auto trace =
            std::make_shared<const workload::FrameTrace>(
                runner::readFrameTraceCsv(dir + '/' +
                                          engine::traceFileName(
                                              point)));
        EXPECT_EQ(trace->metaValue("scenario"), r.scenario);
        EXPECT_EQ(trace->metaValue("scheduler"), r.scheduler);
        EXPECT_EQ(trace->metaValue("seed"),
                  std::to_string(r.seed));

        engine::SweepGrid replay;
        replay.addTraceReplay(
            {r.scenario,
             []() {
                 return workload::makeScenario(
                     workload::ScenarioPreset::ArCall);
             },
             trace});
        replay.addSystem(hw::SystemPreset::Sys4k2Ws);
        replay.addScheduler(r.scheduler == "FCFS"
                                ? runner::SchedKind::Fcfs
                                : runner::SchedKind::StaticFcfs);
        replay.seeds({r.seed});
        replay.window(r.windowUs);

        const auto replayed = engine::Engine(1).run(replay);
        ASSERT_EQ(replayed.size(), 1u);
        const auto& p = replayed[0];
        EXPECT_EQ(p.key(), r.key());
        EXPECT_EQ(p.uxCost, r.uxCost);
        EXPECT_EQ(p.dlvRate, r.dlvRate);
        EXPECT_EQ(p.normEnergy, r.normEnergy);
        EXPECT_EQ(p.energyMj, r.energyMj);
        EXPECT_EQ(p.violationFraction, r.violationFraction);
        EXPECT_EQ(p.dropRate, r.dropRate);
        EXPECT_EQ(p.totalFrames, r.totalFrames);
        EXPECT_EQ(p.violatedFrames, r.violatedFrames);
        EXPECT_EQ(p.droppedFrames, r.droppedFrames);
        EXPECT_EQ(p.schedulerInvocations, r.schedulerInvocations);
    }
    std::filesystem::remove_all(dir);
}

TEST(Engine, TraceAxisGivesEverySchedulerIdenticalLoad)
{
    // One recorded trace, swept across several schedulers: each grid
    // point must face the same total workload (frames and deadlines
    // are fixed by the trace, not re-derived per scheduler).
    const auto scenario_factory = []() {
        return workload::makeScenario(
            workload::ScenarioPreset::ArCall);
    };
    const auto point_grid = [&]() {
        engine::SweepGrid g;
        g.addScenario("AR_Call", scenario_factory);
        g.addSystem(hw::SystemPreset::Sys4k2Ws);
        g.addScheduler(runner::SchedKind::Fcfs);
        g.seeds({11});
        g.window(2e5);
        return g;
    }();
    const std::string dir =
        ::testing::TempDir() + "dream_engine_trace_axis";
    std::filesystem::remove_all(dir);
    engine::EngineOptions ropts;
    ropts.traceDir = dir;
    engine::Engine(ropts).run(point_grid);
    const auto trace = std::make_shared<const workload::FrameTrace>(
        runner::readFrameTraceCsv(
            dir + '/' +
            engine::traceFileName(point_grid.point(0))));

    engine::SweepGrid sweep;
    sweep.addTraceReplay({"AR_Call", scenario_factory, trace});
    sweep.addSystem(hw::SystemPreset::Sys4k2Ws);
    sweep.addScheduler(runner::SchedKind::Fcfs);
    sweep.addScheduler(runner::SchedKind::DreamFull);
    sweep.addScheduler(runner::SchedKind::Planaria);
    sweep.seeds({11});
    sweep.window(2e5);

    uint64_t in_window = 0;
    for (const auto& fr : trace->frames)
        in_window += fr.inWindow ? 1 : 0;
    const auto records = engine::Engine(2).run(sweep);
    ASSERT_EQ(records.size(), 3u);
    for (const auto& r : records)
        EXPECT_EQ(r.totalFrames, in_window) << r.key();
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace dream
