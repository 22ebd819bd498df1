/**
 * @file
 * The flag table (src/util/flags.h) and the shared bench flags
 * (bench/bench_main.h): typed setters validate whole values, a
 * repeated flag keeps its last value, "--" ends the flags,
 * positionals collect what is left, --help lists the table in order,
 * and the exiting wrapper exits 0 on --help and 2 on errors.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_main.h"
#include "engine/worker_pool.h"
#include "util/flags.h"

namespace dream {
namespace {

/** @p args through the shared flag table of a @p kind bench. */
bench::Options
benchArgs(const std::vector<std::string>& args,
          bench::Kind kind = bench::Kind::Grid)
{
    bench::Options opts;
    flags::Table table;
    bench::addFlags(table, opts, kind);
    table.parse(args);
    return opts;
}

TEST(Flags, IntegerSettersTakeDigitsOnlyOverTheFullRange)
{
    // A fraction, an exponent or an out-of-range value must not
    // truncate, cast or wrap into some other seed.
    uint64_t seed = 7;
    flags::Table table;
    table.add({"--seed", "", "S", "seed", flags::integer(&seed)});
    for (const char* bad : {"1.9", "1e30", "-1", "18446744073709551616",
                            "", " 1", "+1", "0x10", "1 "})
        EXPECT_THROW(table.parse({"--seed", bad}), flags::Error) << bad;
    EXPECT_EQ(seed, 7u);
    ASSERT_TRUE(table.parse({"--seed", "18446744073709551615"}));
    EXPECT_EQ(seed, UINT64_MAX);

    // Bounds are inclusive and checked before narrowing.
    int budget = 160;
    flags::Table bounded;
    bounded.add({"--budget", "", "N", "", flags::integer(&budget, 1)});
    for (const char* bad : {"1.5", "0", "2147483648"})
        EXPECT_THROW(bounded.parse({"--budget", bad}), flags::Error) << bad;
    ASSERT_TRUE(bounded.parse({"--budget", "2147483647"}));
    EXPECT_EQ(budget, INT_MAX);
}

TEST(Flags, RealAndChoiceSettersValidateTheWholeValue)
{
    enum class Color { Red, Blue };
    double x = 1.0;
    double p = 1.0;
    Color color = Color::Red;
    flags::Table table;
    table.add({"--x", "", "X", "", flags::real(&x, 0.0, 10.0)});
    table.add({"--p", "", "P", "", flags::positive(&p)});
    table.add({"--color", "", "C", "",
               flags::choice(&color,
                             std::vector<std::pair<std::string, Color>>{
                                 {"red", Color::Red},
                                 {"blue", Color::Blue}})});
    for (const char* bad :
         {"nan", "inf", "-inf", "1e400", "2e6x", "", "-0.5", "11"})
        EXPECT_THROW(table.parse({"--x", bad}), flags::Error) << bad;
    for (const char* bad : {"0", "-1", "nan", "inf"})
        EXPECT_THROW(table.parse({"--p", bad}), flags::Error) << bad;
    for (const char* bad : {"green", "", "Blue"})
        EXPECT_THROW(table.parse({"--color", bad}), flags::Error) << bad;
    EXPECT_EQ(x, 1.0);
    EXPECT_EQ(p, 1.0);

    ASSERT_TRUE(
        table.parse({"--x", "2.5", "--p", "1e-9", "--color", "blue"}));
    EXPECT_EQ(x, 2.5);
    EXPECT_EQ(p, 1e-9);
    EXPECT_EQ(color, Color::Blue);
}

TEST(Flags, StringSwitchAndAppendSetters)
{
    std::string text = "x", name = "keep";
    std::vector<std::string> all;
    bool on = false;
    flags::Table table;
    table.add({"--text", "", "S", "", flags::text(&text)});
    table.add({"--name", "", "S", "", flags::nonEmpty(&name)});
    table.add({"--metrics", "", "F", "", flags::append(&all)});
    table.add({"--on", "", "", "", flags::set(&on)});
    EXPECT_THROW(table.parse({"--name", ""}), flags::Error);
    EXPECT_EQ(name, "keep");
    ASSERT_TRUE(table.parse({"--text", "", "--metrics", "a", "--on",
                             "--metrics", "b"}));
    EXPECT_EQ(text, "");
    EXPECT_EQ(all, (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(on);
}

TEST(Flags, RepeatedFlagKeepsItsLastValue)
{
    const auto opts = benchArgs({"--jobs", "2", "--out", "a.csv", "--shard",
                                 "1/4", "--jobs", "3", "--out", "b.csv",
                                 "--shard", "2/4"});
    EXPECT_EQ(opts.jobs, 3);
    EXPECT_EQ(opts.out, "b.csv");
    EXPECT_EQ(opts.shard, 2u);
    EXPECT_EQ(opts.shards, 4u);
}

TEST(Flags, DoubleDashEndsTheFlags)
{
    bool quiet = false;
    std::vector<std::string> files;
    flags::Table table;
    table.add({"--quiet", "", "", "", flags::set(&quiet)});
    table.positionals("FILE...", &files, 0);
    ASSERT_TRUE(table.parse({"a", "--quiet", "--", "--quiet", "-x"}));
    EXPECT_TRUE(quiet);
    EXPECT_EQ(files, (std::vector<std::string>{"a", "--quiet", "-x"}));
}

TEST(Flags, MalformedCommandLinesAreErrors)
{
    std::string out;
    std::vector<std::string> pair;
    flags::Table table;
    table.add({"--out", "", "F", "", flags::text(&out)});
    EXPECT_THROW(table.parse({"--out"}), flags::Error); // missing value
    EXPECT_THROW(table.parse({"--bogus"}), flags::Error);
    EXPECT_THROW(table.parse({"stray"}), flags::Error); // no positionals
    table.positionals("A B", &pair, 2, 2);
    EXPECT_THROW(table.parse({"a"}), flags::Error);
    EXPECT_THROW(table.parse({"a", "b", "c"}), flags::Error);
    ASSERT_TRUE(table.parse({"a", "--out", "o", "b"}));
    EXPECT_EQ(pair, (std::vector<std::string>{"a", "b"}));

    try {
        table.parse({"--out"});
    } catch (const flags::Error& e) {
        EXPECT_EQ(std::string(e.what()), "--out needs a value (F)");
    }
}

TEST(Flags, RegisteringANameTwiceThrows)
{
    int jobs = 0;
    flags::Table table;
    table.add({"--jobs", "-j", "N", "", flags::integer(&jobs)});
    EXPECT_THROW(table.add({"--jobs", "", "N", "", flags::integer(&jobs)}),
                 std::logic_error);
    EXPECT_THROW(
        table.add({"--jolts", "-j", "N", "", flags::integer(&jobs)}),
        std::logic_error);
    EXPECT_THROW(table.add({"--help", "", "", "", flags::integer(&jobs)}),
                 std::logic_error);

    // The bench table is no exception: an extra flag cannot shadow a
    // shared one.
    bench::Options opts;
    flags::Table bench_table;
    bench::addFlags(bench_table, opts);
    EXPECT_THROW(
        bench_table.add({"--out", "", "F", "", flags::text(&opts.out)}),
        std::logic_error);
}

TEST(Flags, HelpListsFlagsInTableOrderWithAliases)
{
    bench::Options opts;
    flags::Table table("epilog line");
    bench::addFlags(table, opts);
    const std::string help = table.usage("fig02");
    EXPECT_EQ(help.rfind("usage: fig02 [options]\n", 0), 0u) << help;
    EXPECT_NE(help.find("  -j, --jobs N "), std::string::npos) << help;
    size_t last = 0;
    for (const char* flag :
         {"--jobs", "--out", "--list", "--filter", "--shard K/N",
          "--record-trace DIR", "--trace-events DIR", "--metrics F",
          "--metrics-full F", "-h, --help",
          "epilog line"}) {
        const size_t at = help.find(flag);
        ASSERT_NE(at, std::string::npos) << flag;
        EXPECT_GT(at, last) << flag;
        last = at;
    }

    // --help wins over everything after it.
    EXPECT_FALSE(table.parse({"--jobs", "2", "--help", "--bogus"}));
    EXPECT_FALSE(table.parse({"-h"}));
}

TEST(Flags, ParseExitsTwoOnErrorsAndZeroOnHelp)
{
    const auto run = [](std::vector<std::string> args) {
        int jobs = 0;
        flags::Table table;
        table.add({"--jobs", "-j", "N", "", flags::integer(&jobs)});
        std::vector<char*> argv;
        for (auto& a : args)
            argv.push_back(a.data());
        table.parse(int(argv.size()), argv.data());
        std::exit(jobs == 5 ? 3 : 4);
    };
    EXPECT_EXIT(run({"build/prog", "--nope"}), ::testing::ExitedWithCode(2),
                "^prog: unknown flag '--nope'");
    EXPECT_EXIT(run({"prog", "--jobs", "-3"}), ::testing::ExitedWithCode(2),
                "prog: invalid --jobs value '-3'");
    EXPECT_EXIT(run({"prog", "--help"}), ::testing::ExitedWithCode(0), "");
    EXPECT_EXIT(run({"prog", "-j", "5"}), ::testing::ExitedWithCode(3), "");
}

TEST(BenchFlags, JobsMustBeANonNegativeInteger)
{
    // A negative count is an error, not "all cores".
    for (const char* bad : {"-3", "abc", "1.5", ""})
        EXPECT_THROW(benchArgs({"--jobs", bad}), flags::Error) << bad;
    EXPECT_EQ(benchArgs({"--jobs", "0"}).jobs,
              engine::WorkerPool::defaultJobs());
    EXPECT_EQ(benchArgs({"-j", "3"}).jobs, 3);
    EXPECT_EQ(benchArgs({}).jobs, 1);
}

TEST(BenchFlags, ShardParsesValidSpecsAndRejectsMalformedOnes)
{
    auto opts = benchArgs({"--shard", "2/4"});
    EXPECT_EQ(opts.shard, 2u);
    EXPECT_EQ(opts.shards, 4u);
    EXPECT_TRUE(opts.subsetRun());
    opts = benchArgs({"--shard", "1/1"});
    EXPECT_EQ(opts.range(5), (std::pair<size_t, size_t>{0, 5}));

    for (const char* bad :
         {"", "/", "3", "0/4", "5/4", "-1/4", "1/0", "a/4", "1/b", "1/4x",
          "1//4",
          // Out of int range: must be rejected, not wrapped.
          "4294967297/4294967297", "1/99999999999999999999"})
        EXPECT_THROW(benchArgs({"--shard", bad}), flags::Error) << bad;

    // --shard is the one range flag and CSV the one --out format:
    // --chunk and --json are unknown to every bench.
    for (const auto kind : {bench::Kind::Grid, bench::Kind::Rows}) {
        for (const std::string gone : {"--chunk", "--json"}) {
            try {
                benchArgs({gone, "0:3"}, kind);
                ADD_FAILURE() << gone << " was accepted";
            } catch (const flags::Error& e) {
                EXPECT_EQ(e.what(), "unknown flag '" + gone + "'");
            }
        }
    }
}

TEST(BenchFlags, RowBenchesRejectPerGridPointFlags)
{
    // fig13 and cluster_route run outside the engine: these flags
    // would silently write empty files or nothing at all.
    for (const char* flag : {"--filter", "--record-trace", "--trace-events",
                             "--metrics", "--metrics-full"})
        EXPECT_THROW(benchArgs({flag, "x"}, bench::Kind::Rows),
                     flags::Error)
            << flag;
    // --list stays, and lists no grid point.
    EXPECT_TRUE(benchArgs({"--list"}, bench::Kind::Rows).list);
    const auto opts = benchArgs(
        {"--jobs", "2", "--out", "o.csv", "--shard", "1/2"},
        bench::Kind::Rows);
    EXPECT_EQ(opts.jobs, 2);
    EXPECT_EQ(opts.out, "o.csv");
}

} // namespace
} // namespace dream
