/**
 * @file
 * dream_merge: merge N shard result CSVs (`bench --shard K/N --out`)
 * back into the canonical single-run file — byte-identical to the
 * unsharded `--out`, in any input order. Exits 0 on success, 2 on
 * any error (unreadable or malformed input, schema mismatch,
 * overlapping shards).
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/result_sink.h"
#include "tools/csv_merge.h"
#include "util/flags.h"

using namespace dream;

int
main(int argc, char** argv)
{
    std::string out_path;
    std::vector<std::string> inputs;
    flags::Table table(
        "merges shard result CSVs (bench --shard K/N --out) back into the\n"
        "canonical single-run file; errors on overlapping shards or\n"
        "mixed grids");
    table.add({"--out", "", "F",
               "write the merged result to F (default: stdout)",
               flags::text(&out_path)});
    table.positionals("SHARD [SHARD...]", &inputs, 1);
    table.parse(argc, argv);

    try {
        std::vector<engine::CsvTable> tables;
        size_t rows = 0;
        for (const auto& path : inputs) {
            tables.push_back(engine::readResultCsv(path));
            rows += tables.back().rows.size();
        }
        // Merge into a buffer BEFORE opening (truncating) --out, so
        // a malformed or overlapping shard cannot destroy a
        // previous good merge: --out is only touched once the whole
        // merge has succeeded.
        std::ostringstream buffer;
        tools::mergeResultCsvs(tables, buffer);

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
