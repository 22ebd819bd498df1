/**
 * @file
 * Hard-scenarios suite tests: JSON round-trip byte-stability,
 * validation routing (every malformed file fails loudly with the
 * context and entry index), the canonical spec serialisation, the
 * checked-in scenarios/hard_v1.json loading, and
 * SweepGrid::addHardScenarios wiring the entries as scenario-axis
 * values with byte-identical sweeps for any --jobs value.
 */

#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/sweep_grid.h"
#include "json_reject.h"
#include "workload/scenario_suite.h"

namespace dream {
namespace {

workload::HardScenarioSuite
sampleSuite()
{
    workload::HardScenarioSuite suite;
    suite.system = "4K-1WS+2OS";
    suite.windowUs = 5e5;
    suite.seeds = {11, 13};

    workload::HardScenarioEntry a;
    a.name = "hard-01";
    a.genSeed = 123456789123456789ull;
    a.spec.maxTasks = 6;
    a.spec.chainProb = 0.75;
    a.spec.skipProbMin = 0.25;
    a.spec.skipProbMax = 0.75;
    a.spec.supernetProb = 0.5;
    a.expected = {{"FCFS", 3.25}, {"DREAM-Full", 1.125}};
    suite.entries.push_back(a);

    workload::HardScenarioEntry b;
    b.name = "hard-02";
    b.genSeed = 42;
    b.spec.targetLoad = 2.5;
    b.spec.exitProbMin = 0.1;
    b.spec.exitProbMax = 0.1;
    suite.entries.push_back(b);
    return suite;
}

TEST(ScenarioSuite, RoundTripIsByteStable)
{
    const auto suite = sampleSuite();
    std::ostringstream first;
    workload::saveHardScenarioSuite(suite, first);

    std::istringstream in(first.str());
    const auto loaded = workload::loadHardScenarioSuite(in, "mem");
    EXPECT_EQ(loaded.system, suite.system);
    EXPECT_EQ(loaded.windowUs, suite.windowUs);
    EXPECT_EQ(loaded.seeds, suite.seeds);
    ASSERT_EQ(loaded.entries.size(), suite.entries.size());
    for (size_t i = 0; i < suite.entries.size(); ++i) {
        EXPECT_EQ(loaded.entries[i].name, suite.entries[i].name);
        EXPECT_EQ(loaded.entries[i].genSeed,
                  suite.entries[i].genSeed);
        // Bit-exact spec round trip is what the canonical
        // serialisation asserts: equal strings iff equal specs.
        EXPECT_EQ(workload::serializeGenSpec(loaded.entries[i].spec),
                  workload::serializeGenSpec(suite.entries[i].spec));
        EXPECT_EQ(loaded.entries[i].expected,
                  suite.entries[i].expected);
    }

    // save(load(save(x))) == save(x): the writer is deterministic.
    std::ostringstream second;
    workload::saveHardScenarioSuite(loaded, second);
    EXPECT_EQ(first.str(), second.str());
}

TEST(ScenarioSuite, SerializeGenSpecDistinguishesSpecs)
{
    workload::ScenarioGenSpec a, b;
    EXPECT_EQ(workload::serializeGenSpec(a),
              workload::serializeGenSpec(b));
    b.targetLoad = 1e-9;
    EXPECT_NE(workload::serializeGenSpec(a),
              workload::serializeGenSpec(b));
}

/** Expect loadHardScenarioSuite to throw with @p fragment in the
 *  message. */
void
expectLoadError(const std::string& json, const std::string& fragment)
{
    std::istringstream in(json);
    try {
        workload::loadHardScenarioSuite(in, "ctx");
        FAIL() << "expected rejection of: " << json;
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("ctx"), std::string::npos) << what;
        EXPECT_NE(what.find(fragment), std::string::npos) << what;
    }
}

std::string
wrapEntries(const std::string& entries)
{
    return "{\"schema\": \"dream-hard-scenarios-v1\", "
           "\"system\": \"4K-1WS+2OS\", \"window_us\": 1e6, "
           "\"seeds\": [11], \"entries\": [" +
           entries + "]}";
}

TEST(ScenarioSuite, RejectsMalformedFiles)
{
    expectLoadError("", "JSON error");
    expectLoadError("[]", "top level must be an object");
    expectLoadError("{\"system\": \"4K-1WS+2OS\"}", "schema");
    expectLoadError("{\"schema\": \"dream-hard-scenarios-v0\"}",
                    "unsupported schema");
    expectLoadError(wrapEntries("") + " trailing", "trailing");

    // NaN cannot be smuggled in through a hand-edited file: nan is
    // a number token to the reader (the %g writers emit it), and the
    // schema rejects the non-finite knob, naming the entry.
    expectLoadError(
        wrapEntries("{\"name\": \"x\", \"gen_seed\": 1, "
                    "\"spec\": {\"chain_prob\": nan}}"),
        "entry[0]");

    // A duplicated key is an error at the second occurrence — neither
    // first-wins (window_us) nor last-wins (a spec knob).
    const auto load = [](const std::string& text) {
        std::istringstream in(text);
        workload::loadHardScenarioSuite(in, "ctx");
    };
    const std::string dup_window =
        "{\"schema\": \"dream-hard-scenarios-v1\", "
        "\"system\": \"4K-1WS+2OS\", \"window_us\": 1e6, "
        "\"window_us\": 2e6, \"seeds\": [11], "
        "\"entries\": [{\"name\": \"x\", \"gen_seed\": 1}]}";
    test::expectRejectedAt(load, dup_window, "ctx",
                           dup_window.rfind("\"window_us\""),
                           "duplicate key \"window_us\"");
    const std::string dup_knob =
        wrapEntries("{\"name\": \"x\", \"gen_seed\": 1, \"spec\": "
                    "{\"target_load\": 2.5, \"target_load\": 0.5}}");
    test::expectRejectedAt(load, dup_knob, "ctx",
                           dup_knob.rfind("\"target_load\""),
                           "duplicate key \"target_load\"");
    // A task count past INT_MAX is an error: a cast to int would
    // wrap 2^32 + 8 to 8 tasks.
    const std::string wrap =
        wrapEntries("{\"name\": \"x\", \"gen_seed\": 1, \"spec\": "
                    "{\"max_tasks\": 4294967304}}");
    test::expectRejectedAt(load, wrap, "ctx", wrap.find("4294967304"),
                           "entry[0]: max_tasks is out of range");

    // Out-of-range knobs are named with the entry index.
    expectLoadError(
        wrapEntries("{\"name\": \"x\", \"gen_seed\": 1, "
                    "\"spec\": {\"chain_prob\": 1.5}}"),
        "entry[0]");
    expectLoadError(
        wrapEntries("{\"name\": \"a\", \"gen_seed\": 1}, "
                    "{\"name\": \"b\", \"gen_seed\": 2, "
                    "\"spec\": {\"skip_prob_min\": 0.5}}"),
        "entry[1]");

    expectLoadError(wrapEntries("{\"gen_seed\": 1}"), "name");
    expectLoadError(wrapEntries("{\"name\": \"x\"}"), "gen_seed");
    expectLoadError(wrapEntries("{\"name\": \"x\", \"gen_seed\": 1, "
                                "\"bogus\": 3}"),
                    "unknown entry field");
    expectLoadError(
        wrapEntries("{\"name\": \"dup\", \"gen_seed\": 1}, "
                    "{\"name\": \"dup\", \"gen_seed\": 2}"),
        "duplicate");
    expectLoadError("{\"schema\": \"dream-hard-scenarios-v1\", "
                    "\"system\": \"no-such\", \"window_us\": 1e6, "
                    "\"seeds\": [11], \"entries\": []}",
                    "unknown system");
    expectLoadError("{\"schema\": \"dream-hard-scenarios-v1\", "
                    "\"system\": \"4K-1WS+2OS\", \"window_us\": 0, "
                    "\"seeds\": [11], \"entries\": []}",
                    "window_us");
    expectLoadError("{\"schema\": \"dream-hard-scenarios-v1\", "
                    "\"system\": \"4K-1WS+2OS\", \"window_us\": 1e6, "
                    "\"seeds\": [], \"entries\": []}",
                    "seeds");
}

TEST(ScenarioSuite, SixtyFourBitSeedsSurviveRoundTrip)
{
    // Hunt seeds use the full 64-bit range — far beyond double
    // precision, so the loader must parse the raw integer token.
    workload::HardScenarioSuite suite = sampleSuite();
    suite.entries[0].genSeed = 18446744073709551615ull; // 2^64 - 1
    std::ostringstream out;
    workload::saveHardScenarioSuite(suite, out);
    std::istringstream in(out.str());
    const auto loaded = workload::loadHardScenarioSuite(in, "mem");
    EXPECT_EQ(loaded.entries[0].genSeed, 18446744073709551615ull);
}

TEST(ScenarioSuite, CheckedInSuiteLoads)
{
    const auto suite = workload::loadHardScenarioSuite(
        std::string(DREAM_SOURCE_DIR) + "/scenarios/hard_v1.json");
    EXPECT_FALSE(suite.entries.empty());
    // Every entry carries expected UXCosts for the CI gate to
    // re-check.
    for (const auto& entry : suite.entries)
        EXPECT_FALSE(entry.expected.empty()) << entry.name;
}

TEST(ScenarioSuite, AddHardScenariosSweepsDeterministically)
{
    auto suite = sampleSuite();
    suite.windowUs = 2e5; // keep the test cheap
    const auto sweep = [&suite](int jobs) {
        engine::SweepGrid grid;
        grid.addHardScenarios(suite)
            .addSystem(hw::SystemPreset::Sys4k1Ws2Os)
            .addScheduler(runner::SchedKind::DreamFull)
            .seeds(suite.seeds)
            .window(suite.windowUs);
        std::ostringstream csv;
        engine::CsvSink sink(csv);
        engine::Engine(jobs).run(grid, {&sink});
        sink.close();
        return csv.str();
    };
    const std::string once = sweep(1);
    EXPECT_NE(once.find("hard-01"), std::string::npos);
    EXPECT_NE(once.find("hard-02"), std::string::npos);
    EXPECT_EQ(once, sweep(4));
}

} // namespace
} // namespace dream
