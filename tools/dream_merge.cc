/**
 * @file
 * dream_merge: merge N shard or chunk result files (`bench --shard
 * K/N --out` / `bench --chunk B:E --out`) back into the canonical
 * single-run file. Both result formats merge: CSV inputs rebuild
 * the unsharded CSV, JSON inputs (`--json` bench runs, sniffed from
 * the content or forced with --json) rebuild the unsharded JSON
 * array — byte-identical either way, in any input order. Exits 0 on
 * success, 2 on any error (unreadable input, mixed formats, schema
 * mismatch, overlapping shards).
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tools/json_result.h"
#include "util/flags.h"

using namespace dream;

int
main(int argc, char** argv)
{
    std::string out_path;
    bool force_json = false;
    std::vector<std::string> inputs;
    flags::Table table(
        "merges shard/chunk result files (bench --shard K/N or --chunk\n"
        "B:E, CSV or --json) back into the canonical single-run file;\n"
        "errors on mixed formats, overlapping shards or mixed grids");
    table.add({"--out", "", "F",
               "write the merged result to F (default: stdout)",
               flags::text(&out_path)});
    table.add({"--json", "", "",
               "treat inputs/output as result JSON (otherwise sniffed\n"
               "from the input content)",
               flags::set(&force_json)});
    table.positionals("SHARD [SHARD...]", &inputs, 1);
    table.parse(argc, argv);

    try {
        // Format: --json forces JSON; otherwise the non-empty
        // inputs decide (and must agree). Empty files — rowless
        // shards — are compatible with either.
        bool saw_csv = false, saw_json = false;
        for (const auto& path : inputs) {
            switch (tools::sniffResultFormat(path)) {
              case tools::ResultFormat::Csv:  saw_csv = true;  break;
              case tools::ResultFormat::Json: saw_json = true; break;
              case tools::ResultFormat::Empty:                 break;
            }
        }
        if (saw_csv && saw_json)
            throw std::runtime_error(
                "mixed CSV and JSON inputs cannot be merged");
        if (force_json && saw_csv)
            throw std::runtime_error(
                "--json given but the inputs are CSV");
        const bool json = force_json || saw_json;

        // Merge into a buffer BEFORE opening (truncating) --out, so
        // a malformed or overlapping shard cannot destroy a
        // previous good merge: --out is only touched once the whole
        // merge has succeeded.
        std::ostringstream buffer;
        const size_t rows =
            tools::mergeResultFiles(inputs, json, buffer);

        if (out_path.empty()) {
            std::cout << buffer.str() << std::flush;
        } else {
            std::ofstream out_file(out_path);
            if (!out_file.is_open()) {
                std::fprintf(stderr,
                             "cannot open --out file for writing: "
                             "%s\n",
                             out_path.c_str());
                return 2;
            }
            out_file << buffer.str() << std::flush;
        }
        std::fprintf(stderr, "merged %zu rows from %zu shard(s)\n",
                     rows, inputs.size());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dream_merge: %s\n", e.what());
        return 2;
    }
    return 0;
}
