/**
 * @file
 * dream_diff: compare two result CSVs from the same grid ("same
 * grid, two builds, same results" — the CI regression gate). Rows
 * are keyed by grid point; value columns compare numerically under
 * global or per-column absolute/relative tolerances. `--json` prints
 * the summary as JSON.
 *
 * Exit codes: 0 = no differences (always 0 without --fail-on-diff),
 * 1 = differences found and --fail-on-diff given, 2 = usage or
 * input error.
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/result_sink.h"
#include "tools/csv_diff.h"
#include "util/flags.h"

using namespace dream;

int
main(int argc, char** argv)
{
    tools::DiffOptions options;
    bool fail_on_diff = false;
    bool json = false;
    std::vector<std::string> paths;
    flags::Table table(
        "compares result CSVs keyed by grid point\n"
        "(scenario/system/scheduler/params/seed); reports added/removed\n"
        "grid points and out-of-tolerance cells. NaN compares equal to\n"
        "NaN.");
    table.add({"--abs-tol", "", "V",
               "global absolute tolerance (default 0)",
               flags::real(&options.tolerance.abs, 0.0)});
    table.add({"--rel-tol", "", "V",
               "global relative tolerance (default 0)",
               flags::real(&options.tolerance.rel, 0.0)});
    table.add({"--tol", "", "COL=ABS[:REL]",
               "per-column tolerance override",
               [&options](const std::string& v) {
                   // "COL=ABS[:REL]": a named column, then one or two
                   // tolerances >= 0.
                   const size_t eq = v.find('=');
                   const size_t colon = v.find(':', eq);
                   if (eq == 0 || eq == std::string::npos)
                       throw flags::Error("want COL=ABS[:REL]");
                   tools::Tolerance tol;
                   tol.abs = flags::parseReal(
                       v.substr(eq + 1, colon - eq - 1), 0.0, HUGE_VAL);
                   if (colon != std::string::npos)
                       tol.rel = flags::parseReal(v.substr(colon + 1), 0.0,
                                                  HUGE_VAL);
                   options.columnTolerances.emplace_back(v.substr(0, eq),
                                                         tol);
               }});
    table.add({"--fail-on-diff", "", "",
               "exit 1 when differences are found",
               flags::set(&fail_on_diff)});
    table.add({"--json", "", "", "machine-readable JSON summary",
               flags::set(&json)});
    table.positionals("BASELINE CANDIDATE", &paths, 2, 2);
    table.parse(argc, argv);
    const std::string& path_a = paths[0];
    const std::string& path_b = paths[1];

    try {
        const auto a = engine::readResultCsv(path_a);
        const auto b = engine::readResultCsv(path_b);
        const auto result = tools::diffResultCsvs(a, b, options);
        if (json)
            tools::printDiffJson(result, std::cout);
        else
            tools::printDiffSummary(result, std::cout);
        if (!result.identical() && fail_on_diff)
            return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dream_diff: %s\n", e.what());
        return 2;
    }
    return 0;
}
