/** @file Tests for the experiment runner and table utilities. */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "runner/experiment.h"
#include "runner/table.h"

namespace dream {
namespace {

TEST(Runner, FactoryProducesAllSchedulers)
{
    const runner::SchedKind kinds[] = {
        runner::SchedKind::Fcfs,          runner::SchedKind::StaticFcfs,
        runner::SchedKind::Veltair,       runner::SchedKind::Planaria,
        runner::SchedKind::DreamFixed,    runner::SchedKind::DreamMapScore,
        runner::SchedKind::DreamSmartDrop, runner::SchedKind::DreamFull};
    for (const auto k : kinds) {
        auto s = runner::makeScheduler(k);
        ASSERT_NE(s, nullptr);
        EXPECT_FALSE(s->name().empty());
    }
}

TEST(Runner, EvaluationSetMatchesPaper)
{
    const auto set = runner::evaluationSchedulers();
    ASSERT_EQ(set.size(), 6u);
    EXPECT_EQ(set.front(), runner::SchedKind::Fcfs);
    EXPECT_EQ(set.back(), runner::SchedKind::DreamFull);
}

TEST(Table, AlignsAndRenders)
{
    runner::Table t({"A", "LongHeader"});
    t.addRow({"x", "1"});
    t.addRow({"longer-cell", "2"});
    const auto s = t.str();
    EXPECT_NE(s.find("LongHeader"), std::string::npos);
    EXPECT_NE(s.find("longer-cell"), std::string::npos);
    // Header, separator, two rows.
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(runner::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(runner::fmtPct(0.1234, 1), "12.3%");
}

TEST(Table, Geomean)
{
    EXPECT_DOUBLE_EQ(runner::geomean({4.0, 1.0}), 2.0);
    // The empty geomean has no identity: NaN, never a plausible 0.
    EXPECT_TRUE(std::isnan(runner::geomean({})));
    EXPECT_NEAR(runner::geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Runner, AllSchedKindsIsACompleteConstructibleRegistry)
{
    // Name-lookup registries (trace_replay's scheduler resolution)
    // iterate allSchedKinds(); this guards it against drifting from
    // the enum: every kind constructs, every name is real and
    // unique, and the evaluation subset is contained in it.
    const auto kinds = runner::allSchedKinds();
    std::vector<std::string> names;
    for (const auto kind : kinds) {
        EXPECT_NE(runner::makeScheduler(kind), nullptr);
        const std::string name = runner::toString(kind);
        EXPECT_NE(name, "??");
        EXPECT_EQ(std::count(names.begin(), names.end(), name), 0)
            << "duplicate scheduler name " << name;
        names.push_back(name);
    }
    for (const auto kind : runner::evaluationSchedulers()) {
        EXPECT_NE(std::find(kinds.begin(), kinds.end(), kind),
                  kinds.end())
            << runner::toString(kind);
    }
    // Update allSchedKinds() when adding a SchedKind — recorded
    // traces of the new scheduler are unreplayable until then.
    EXPECT_EQ(kinds.size(), 8u);
}

} // namespace
} // namespace dream
