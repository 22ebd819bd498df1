/**
 * @file
 * The shared JSON reader: raw number tokens and value spans, located
 * rejection of malformed input, the writers reading back, and a
 * seeded mutation fuzz of the three front-ends built on the reader.
 * The fuzz starts from documents the repo's own writers produce
 * (saveHardScenarioSuite, TraceEventSink and
 * MetricsRegistry::writeJson) and checks that every mutant either
 * loads or throws std::runtime_error naming its source and line:col.
 */

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json_reject.h"
#include "obs/metrics.h"
#include "obs/trace_event.h"
#include "tools/trace_prof.h"
#include "util/json.h"
#include "workload/rng.h"
#include "workload/scenario_suite.h"

namespace dream {
namespace {

json::Document
parse(const std::string& text)
{
    return json::Document(text, "j");
}

TEST(Json, KeepsRawNumberTokensAndSpans)
{
    const std::string list =
        "[18446744073709551615, -0.5e+3, 0, nan, -nan, inf, -inf]";
    const std::string text =
        "{\"a\": " + list + ", \"b\": \"x\\n\\\"y\\\"\\/\"}";
    const auto doc = parse(text);
    const json::Value& a = *doc.root().find("a");
    ASSERT_EQ(a.items.size(), 7u);
    // 64-bit integers stay exact as tokens; %g's non-finite tokens
    // are numbers.
    EXPECT_EQ(a.items[0].text, "18446744073709551615");
    EXPECT_EQ(a.items[1].text, "-0.5e+3");
    EXPECT_EQ(a.items[1].number(), -500.0);
    EXPECT_TRUE(std::isnan(a.items[3].number()));
    EXPECT_TRUE(std::isnan(a.items[4].number()));
    EXPECT_EQ(a.items[5].number(), std::numeric_limits<double>::infinity());
    EXPECT_EQ(a.items[6].number(),
              -std::numeric_limits<double>::infinity());
    EXPECT_EQ(text.substr(a.begin, a.end - a.begin), list);
    EXPECT_EQ(doc.root().find("b")->text, "x\n\"y\"/");
    EXPECT_EQ(doc.root().find("c"), nullptr);
}

TEST(Json, WritersReadBack)
{
    const std::string raw = "q\"\\\b\f\n\r\t/";
    EXPECT_EQ(parse(json::quote(raw)).root().text, raw);
    EXPECT_EQ(json::number(0.1), "0.1");
    EXPECT_EQ(json::number(std::nan("")), "null");
    EXPECT_EQ(json::number(-std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(json::preciseDouble(
                  -std::numeric_limits<double>::infinity()),
              "-inf");
    for (const double v : {1.0 / 3.0, 1e-300, 123456789.125, -2.5}) {
        const std::string s = json::preciseDouble(v);
        EXPECT_EQ(parse(s).root().number(), v) << s;
    }
}

TEST(Json, RejectsMalformedInputWithLineAndColumn)
{
    const auto read = [](const std::string& text) { parse(text); };
    struct Case {
        const char* text;
        size_t offset; ///< the byte the error must blame
        const char* what;
    };
    const Case cases[] = {
        {"", 0, "JSON error: unexpected end of input"},
        {"[1,]", 3, "expected a value"},
        {"[01]", 2, "expected ',' or ']'"},
        {"[1.]", 3, "no fraction digits"},
        {"[1e]", 3, "no exponent digits"},
        {"[nul]", 1, "expected a value"},
        {"[infinity]", 4, "expected ',' or ']'"},
        {"{\"a\" 1}", 5, "expected ':'"},
        {"{1: 2}", 1, "expected a string key"},
        {"{\"a\": 1, \"a\": 2}", 9, "duplicate key \"a\""},
        {"\"a\\x\"", 3, "unsupported escape"},
        {"\"a\tb\"", 2, "control character"},
        {"\"abc", 4, "unterminated string"},
        {"{}\n  x", 5, "trailing content"},
        {"[\n  1,\n  tru\n]", 9, "expected a value"},
    };
    for (const Case& c : cases)
        test::expectRejectedAt(read, c.text, "j", c.offset, c.what);

    // Nesting is bounded, so hostile input cannot overflow the stack.
    test::expectRejectedAt(read, std::string(100000, '['), "j", 257,
                           "nesting deeper");
}

// ------------------------------------------------ mutation fuzz

/** One writer-produced document and the front-end that reads it. */
struct FuzzSeed {
    std::string name;
    std::string text;
    std::string context; ///< what the front-end's errors start with
    std::function<void(std::istream&)> read;
};

std::vector<FuzzSeed>
fuzzSeeds()
{
    std::vector<FuzzSeed> seeds;

    workload::HardScenarioSuite suite;
    suite.system = "4K-1WS+2OS";
    suite.seeds = {11, 13};
    workload::HardScenarioEntry entry;
    entry.name = "hard-01";
    entry.genSeed = 123456789123456789ull;
    entry.spec.maxTasks = 4;
    entry.spec.chainProb = 0.75;
    entry.expected = {{"FCFS", 3.25}, {"DREAM-Full", 1.125}};
    suite.entries.push_back(entry);
    std::ostringstream suite_text;
    workload::saveHardScenarioSuite(suite, suite_text);
    seeds.push_back({"suite", suite_text.str(), "fuzz",
                     [](std::istream& in) {
                         workload::loadHardScenarioSuite(in, "fuzz");
                     }});

    obs::TraceEventSink trace{7};
    trace.processName("point-key");
    trace.threadName(0, "accel0 WS0-2K");
    trace.runMeta(obs::TraceArgs()
                      .str("key", "point-key")
                      .num("window_us", 1000.0));
    trace.span(0, "ssd", "job", 10.0, 30.0,
               obs::TraceArgs().integer("frame", 1));
    trace.span(1, "schedule", "sched", 15.0, 0.0,
               obs::TraceArgs().num("wall_ns", 250.0));
    trace.instant(1, "frame_arrival", "frame", 20.0,
                  obs::TraceArgs().str("task", "a \"b\"\nc"));
    std::ostringstream trace_text;
    trace.writeJson(trace_text);
    seeds.push_back({"trace", trace_text.str(), "fuzz",
                     [](std::istream& in) {
                         tools::readTraceEventJson(in, "fuzz");
                     }});

    obs::MetricsRegistry metrics;
    metrics.count("frames/total", 42);
    metrics.count("costcache/hit", 9);
    metrics.markVolatile("costcache/hit");
    metrics.gaugeSet("busy", 0.5);
    metrics.histogram("wall_ns").record(100.0);
    metrics.histogram("empty");
    std::ostringstream metrics_text;
    metrics.writeJson(metrics_text, /*include_volatile=*/true);
    seeds.push_back({"metrics", metrics_text.str(), "fuzz",
                     [](std::istream& in) {
                         tools::readMetricsJson(in, "fuzz");
                     }});
    return seeds;
}

/** Every object member of @p v as a (key, value) span pair. */
void
collectMembers(const json::Value& v,
               std::vector<std::pair<std::string, const json::Value*>>&
                   out)
{
    for (const auto& item : v.items)
        collectMembers(item, out);
    for (const auto& [key, value] : v.members) {
        out.push_back({key, &value});
        collectMembers(value, out);
    }
}

TEST(JsonFuzz, EveryDuplicatedMemberIsRejectedAtTheCopy)
{
    for (const FuzzSeed& seed : fuzzSeeds()) {
        const json::Document doc(seed.text, seed.name);
        std::vector<std::pair<std::string, const json::Value*>> members;
        collectMembers(doc.root(), members);
        ASSERT_FALSE(members.empty()) << seed.name;
        for (const auto& [key, value] : members) {
            // The writers quote keys with json::quote, so the key's
            // text is the quoted key right before the value.
            const size_t begin = seed.text.rfind(json::quote(key),
                                                 value->begin);
            ASSERT_NE(begin, std::string::npos) << key;
            const std::string member =
                seed.text.substr(begin, value->end - begin);
            std::string text = seed.text;
            text.insert(begin, member + ", ");
            test::expectRejectedAt(
                [&seed](const std::string& t) {
                    std::istringstream in(t);
                    seed.read(in);
                },
                text, seed.context, begin + member.size() + 2,
                "duplicate key " + json::quote(key));
        }
    }
}

TEST(JsonFuzz, MutantsLoadOrFailWithALocatedError)
{
    // Bytes that steer mutants into the grammar's corners.
    const std::string alphabet = "{}[]\",:.-+eE019 \n\\tfnaiu\x01\xff";
    uint64_t state = 0x5eed;
    const auto below = [&state](size_t n) {
        state = workload::rng::splitmix64(state);
        return size_t(state % n);
    };
    for (const FuzzSeed& seed : fuzzSeeds()) {
        {
            std::istringstream in(seed.text);
            ASSERT_NO_THROW(seed.read(in)) << seed.name;
        }
        const std::regex located("^" + seed.context +
                                 ":[0-9]+:[0-9]+: ");
        size_t rejected = 0;
        for (int mutant = 0; mutant < 400; ++mutant) {
            std::string text = seed.text;
            for (size_t edits = 1 + below(3); edits > 0; --edits) {
                const size_t at = below(text.size());
                switch (below(3)) {
                  case 0: // flip one bit
                    text[at] = char(text[at] ^ (1 << below(8)));
                    break;
                  case 1:
                    text.insert(at, 1, alphabet[below(alphabet.size())]);
                    break;
                  default:
                    text.erase(at, 1 + below(4));
                    break;
                }
                if (text.empty())
                    break;
            }
            std::istringstream in(text);
            try {
                seed.read(in);
            } catch (const std::runtime_error& e) {
                ++rejected;
                EXPECT_TRUE(std::regex_search(e.what(), located))
                    << seed.name << " mutant " << mutant << ": "
                    << e.what();
            } catch (const std::exception& e) {
                ADD_FAILURE() << seed.name << " mutant " << mutant
                              << " threw a non-runtime_error: "
                              << e.what();
            }
        }
        EXPECT_GT(rejected, 0u) << seed.name;
    }
}

} // namespace
} // namespace dream
