/**
 * @file
 * Result-toolchain tests: the CSV reader/schema introspection, the
 * shard-merge round trip (merged shard CSVs byte-identical to the
 * unsharded run, including the empty-shard and --filter-composed
 * cases), the overlap validation, and regression diffing (NaN cells,
 * within-tolerance drift, added/removed grid points).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_main.h"
#include "engine/engine.h"
#include "engine/param_eval.h"
#include "engine/result_sink.h"
#include "tools/csv_diff.h"
#include "tools/csv_merge.h"

namespace dream {
namespace {

engine::RunRecord
record(size_t index, const std::string& scenario,
       const std::string& sched, uint64_t seed, double ux)
{
    engine::RunRecord r;
    r.index = index;
    r.scenario = scenario;
    r.system = "sys";
    r.scheduler = sched;
    r.seed = seed;
    r.windowUs = 1e6;
    r.uxCost = ux;
    r.totalFrames = 100;
    return r;
}

std::string
toCsv(const std::vector<engine::RunRecord>& records)
{
    std::ostringstream out;
    engine::CsvSink sink(out);
    for (const auto& r : records)
        sink.write(r);
    sink.close();
    return out.str();
}

engine::CsvTable
parse(const std::string& text)
{
    std::istringstream in(text);
    return engine::readResultCsv(in);
}

std::string
merged(const std::vector<std::string>& inputs)
{
    std::vector<engine::CsvTable> tables;
    for (const auto& text : inputs)
        tables.push_back(parse(text));
    std::ostringstream out;
    tools::mergeResultCsvs(tables, out);
    return out.str();
}

TEST(CsvReader, RoundTripsSchemaAndCells)
{
    engine::RunRecord r = record(3, "sc", "A", 11, 1.5);
    r.params = {{"alpha", 0.25}, {"beta", 1.5}};
    r.breakdown = {{"net_v0_share", 0.75}, {"net_v1_share", 0.25}};
    const auto table = parse(toCsv({r}));

    ASSERT_EQ(table.rows.size(), 1u);
    EXPECT_EQ(table.schema.paramColumns,
              (std::vector<std::string>{"alpha", "beta"}));
    EXPECT_EQ(table.schema.breakdownColumns,
              (std::vector<std::string>{"net_v0_share",
                                        "net_v1_share"}));
    EXPECT_EQ(table.schema.columns.size(),
              4u + 2u + engine::csvMetricColumns().size() + 2u);
    EXPECT_EQ(table.rowIndex(0), 3u);
    EXPECT_EQ(table.rowKey(0),
              "sc/sys/A/alpha=0.25,beta=1.5/seed=11");
    EXPECT_EQ(table.rows[0][table.schema.columnIndex("ux_cost")],
              "1.5");
    EXPECT_EQ(table.schema.columnIndex("no_such_column"),
              std::string::npos);
}

TEST(CsvReader, HandlesQuotedCellsAndEmptyInput)
{
    engine::RunRecord r = record(0, "A,B \"quoted\"", "S", 1, 2.0);
    const std::string csv = toCsv({r});
    EXPECT_NE(csv.find("\"A,B \"\"quoted\"\"\""), std::string::npos);
    const auto table = parse(csv);
    ASSERT_EQ(table.rows.size(), 1u);
    EXPECT_EQ(table.rows[0][1], "A,B \"quoted\"");
    EXPECT_EQ(table.rowKey(0), "A,B \"quoted\"/sys/S/seed=1");

    const auto empty = parse("");
    EXPECT_TRUE(empty.empty());
    EXPECT_TRUE(empty.schema.columns.empty());
}

TEST(CsvReader, RejectsMalformedInput)
{
    EXPECT_THROW(parse("not,a,result,csv\n1,2,3,4\n"),
                 std::runtime_error);
    const std::string good = toCsv({record(0, "sc", "A", 1, 1.0)});
    EXPECT_THROW(parse(good + "1,short,row\n"), std::runtime_error);
    EXPECT_THROW(parse("\"unterminated"), std::runtime_error);

    // The index cell is the merge order: anything but a decimal
    // uint64_t is an error that names the row, not a guess.
    const std::string row2 = good.substr(good.find('\n') + 1);
    ASSERT_EQ(row2.rfind("0,", 0), 0u) << row2;
    for (const std::string bad :
         {"abc", "7x", "-1", "", "+1", " 1", "99999999999999999999"}) {
        try {
            parse(good + bad + row2.substr(1));
            ADD_FAILURE() << "index '" << bad << "' was accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()),
                      "result CSV row 2: index '" + bad +
                          "' is not a decimal integer in uint64_t range");
        }
    }
    EXPECT_EQ(parse(good + "18446744073709551615" + row2.substr(1))
                  .rowIndex(1),
              UINT64_MAX);
}

TEST(CsvMerge, ShardedBenchRunMergesByteIdentically)
{
    // A real grid, including breakdown columns (VR_Gaming carries
    // the OFA Supernet): 2 schedulers x 2 seeds = 4 points.
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::VrGaming)
        .addSystem(hw::SystemPreset::Sys4k1Ws2Os)
        .addScheduler(runner::SchedKind::Fcfs)
        .addScheduler(runner::SchedKind::DreamFull)
        .seeds({1, 2})
        .window(5e4);

    std::ostringstream full;
    engine::CsvSink full_sink(full);
    engine::Engine(2).run(grid, {&full_sink});
    full_sink.close();

    std::vector<std::string> shards;
    for (size_t k = 1; k <= 3; ++k) {
        std::ostringstream out;
        engine::CsvSink sink(out);
        bench::Options opts;
        opts.shard = k;
        opts.shards = 3;
        const auto selected =
            engine::selectPoints({&grid}, "", [&](size_t total) {
                return opts.range(total);
            });
        std::vector<engine::SweepGrid::Point> points;
        for (const size_t i : selected[0])
            points.push_back(grid.point(i));
        engine::Engine(2).run(points, {&sink});
        sink.close();
        shards.push_back(out.str());
    }

    EXPECT_EQ(merged(shards), full.str());
    // Input order must not matter.
    EXPECT_EQ(merged({shards[2], shards[0], shards[1]}), full.str());
}

TEST(CsvMerge, EmptyShardsAreSkipped)
{
    const std::string only =
        toCsv({record(0, "sc", "A", 1, 1.0),
               record(1, "sc", "A", 2, 2.0)});
    EXPECT_EQ(merged({"", only, ""}), only);
    EXPECT_EQ(merged({"", "", ""}), "");
}

TEST(CsvMerge, BreakdownHeaderIsFirstSeenUnionAcrossShards)
{
    // Shard 1 has no breakdown columns; shard 2 introduces them.
    // The merged header must match what one CsvSink seeing both
    // records would emit.
    engine::RunRecord plain = record(0, "sc", "A", 1, 1.0);
    engine::RunRecord with = record(1, "sc", "A", 2, 2.0);
    with.breakdown = {{"net_v0_share", 0.6}, {"net_v1_share", 0.4}};

    const std::string expect = toCsv({plain, with});
    EXPECT_EQ(merged({toCsv({plain}), toCsv({with})}), expect);
    EXPECT_EQ(merged({toCsv({with}), toCsv({plain})}), expect);
}

TEST(CsvMerge, OverlappingShardsAreRejected)
{
    const std::string a = toCsv({record(0, "sc", "A", 1, 1.0)});
    // Same grid point again: key collision.
    EXPECT_THROW(merged({a, a}), std::runtime_error);
    // Same row index, different grid point: index collision.
    const std::string b = toCsv({record(0, "sc", "B", 1, 1.0)});
    EXPECT_THROW(merged({a, b}), std::runtime_error);
    // The same collision inside one input says so.
    const std::string twice = toCsv(
        {record(0, "sc", "A", 1, 1.0), record(0, "sc", "B", 1, 1.0)});
    try {
        merged({twice});
        ADD_FAILURE() << "a duplicate row index was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()),
                  "row index 0 appears twice in one input");
    }
    // Disjoint rows merge fine.
    const std::string c = toCsv({record(1, "sc", "B", 1, 1.0)});
    EXPECT_NO_THROW(merged({a, c}));
}

TEST(CsvMerge, MixedGridsAreRejected)
{
    engine::RunRecord with_param = record(0, "sc", "A", 1, 1.0);
    with_param.params = {{"alpha", 0.5}};
    const std::string a = toCsv({with_param});
    const std::string b = toCsv({record(1, "sc", "B", 1, 1.0)});
    EXPECT_THROW(merged({a, b}), std::runtime_error);
}

TEST(CsvDiff, IdenticalFilesHaveNoDifferences)
{
    const std::string csv =
        toCsv({record(0, "sc", "A", 1, 1.0),
               record(1, "sc", "A", 2, 2.0)});
    const auto result =
        tools::diffResultCsvs(parse(csv), parse(csv));
    EXPECT_TRUE(result.identical());
    EXPECT_EQ(result.compared, 2u);
    EXPECT_EQ(result.changedRows(), 0u);
}

TEST(CsvDiff, DetectsChangedAddedAndRemovedGridPoints)
{
    const auto r0 = record(0, "sc", "A", 1, 1.0);
    const auto r1 = record(1, "sc", "A", 2, 2.0);
    const auto r2 = record(2, "sc", "B", 1, 3.0);
    auto r1_changed = r1;
    r1_changed.uxCost = 2.5;
    r1_changed.totalFrames = 99;

    const auto result = tools::diffResultCsvs(
        parse(toCsv({r0, r1})), parse(toCsv({r1_changed, r2})));
    EXPECT_FALSE(result.identical());
    ASSERT_EQ(result.removed.size(), 1u);
    EXPECT_EQ(result.removed[0], "sc/sys/A/seed=1");
    ASSERT_EQ(result.added.size(), 1u);
    EXPECT_EQ(result.added[0], "sc/sys/B/seed=1");
    ASSERT_EQ(result.changed.size(), 2u);
    EXPECT_EQ(result.changed[0].column, "ux_cost");
    EXPECT_EQ(result.changed[0].before, "2");
    EXPECT_EQ(result.changed[0].after, "2.5");
    EXPECT_EQ(result.changed[1].column, "total_frames");
    EXPECT_EQ(result.changedRows(), 1u);

    // The row index is positional, not compared: the same grid
    // point at a different index is not a change.
    auto r0_shifted = r0;
    r0_shifted.index = 42;
    EXPECT_TRUE(tools::diffResultCsvs(parse(toCsv({r0})),
                                      parse(toCsv({r0_shifted})))
                    .identical());
}

TEST(CsvDiff, ToleranceAllowsBoundedDrift)
{
    const auto base = record(0, "sc", "A", 1, 100.0);
    auto drift = base;
    drift.uxCost = 100.5;

    tools::DiffOptions exact;
    EXPECT_FALSE(tools::diffResultCsvs(parse(toCsv({base})),
                                       parse(toCsv({drift})), exact)
                     .identical());

    tools::DiffOptions abs_tol;
    abs_tol.tolerance.abs = 1.0;
    EXPECT_TRUE(tools::diffResultCsvs(parse(toCsv({base})),
                                      parse(toCsv({drift})), abs_tol)
                    .identical());

    tools::DiffOptions rel_tol;
    rel_tol.tolerance.rel = 0.01;
    EXPECT_TRUE(tools::diffResultCsvs(parse(toCsv({base})),
                                      parse(toCsv({drift})), rel_tol)
                    .identical());

    // A per-column override beats the (exact) global default and
    // only applies to its column.
    tools::DiffOptions column;
    column.columnTolerances = {{"ux_cost", {1.0, 0.0}}};
    EXPECT_TRUE(tools::diffResultCsvs(parse(toCsv({base})),
                                      parse(toCsv({drift})), column)
                    .identical());
    auto frames = base;
    frames.totalFrames = 101;
    EXPECT_FALSE(tools::diffResultCsvs(parse(toCsv({base})),
                                       parse(toCsv({frames})),
                                       column)
                     .identical());
}

TEST(CsvDiff, NanCellsCompareEqualToNan)
{
    auto a = record(0, "sc", "A", 1, 1.0);
    a.dlvRate = std::numeric_limits<double>::quiet_NaN();
    auto b = a;
    const auto same =
        tools::diffResultCsvs(parse(toCsv({a})), parse(toCsv({b})));
    EXPECT_TRUE(same.identical());

    b.dlvRate = 0.5;
    const auto result =
        tools::diffResultCsvs(parse(toCsv({a})), parse(toCsv({b})));
    ASSERT_EQ(result.changed.size(), 1u);
    EXPECT_EQ(result.changed[0].column, "dlv_rate");
    EXPECT_EQ(result.changed[0].before, "nan");
}

TEST(CsvDiff, BreakdownColumnsCompareAcrossTheUnion)
{
    auto a = record(0, "sc", "A", 1, 1.0);
    a.breakdown = {{"net_v0_share", 0.5}};
    auto b = record(0, "sc", "A", 1, 1.0);
    b.breakdown = {{"net_v0_share", 0.5}, {"net_v1_share", 0.5}};

    const auto result =
        tools::diffResultCsvs(parse(toCsv({a})), parse(toCsv({b})));
    ASSERT_EQ(result.changed.size(), 1u);
    EXPECT_EQ(result.changed[0].column, "net_v1_share");
    EXPECT_EQ(result.changed[0].before, "");
    EXPECT_EQ(result.changed[0].after, "0.5");
}

TEST(CsvDiff, RejectsDuplicateKeysAndMixedGrids)
{
    const auto r = record(0, "sc", "A", 1, 1.0);
    auto dup = r;
    dup.index = 1; // distinct row, same grid point
    EXPECT_THROW(tools::diffResultCsvs(parse(toCsv({r, dup})),
                                       parse(toCsv({r}))),
                 std::runtime_error);

    auto with_param = r;
    with_param.params = {{"alpha", 0.5}};
    EXPECT_THROW(tools::diffResultCsvs(parse(toCsv({r})),
                                       parse(toCsv({with_param}))),
                 std::runtime_error);
}

TEST(CsvDiff, SummariesRenderBothFormats)
{
    const auto a = record(0, "sc", "A", 1, 1.0);
    auto b = a;
    b.uxCost = 2.0;
    const auto result =
        tools::diffResultCsvs(parse(toCsv({a})), parse(toCsv({b})));

    std::ostringstream human;
    tools::printDiffSummary(result, human);
    EXPECT_NE(human.str().find("changed cells: 1"),
              std::string::npos);
    EXPECT_NE(human.str().find("ux_cost 1 -> 2"), std::string::npos);
    EXPECT_NE(human.str().find("result CSVs differ"),
              std::string::npos);

    std::ostringstream json;
    tools::printDiffJson(result, json);
    EXPECT_NE(json.str().find("\"identical\": false"),
              std::string::npos);
    EXPECT_NE(json.str().find("\"column\": \"ux_cost\""),
              std::string::npos);
}

} // anonymous namespace
} // namespace dream
