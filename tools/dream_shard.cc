/**
 * @file
 * dream_shard: single-host work-stealing orchestrator for sharded
 * bench runs. Splits the bench's (filtered) grid ordering into
 * M >> N chunks, drives N worker subprocesses over a dynamic queue
 * (a finished worker immediately grabs the next pending chunk),
 * requeues chunks whose worker failed, and merges the chunk files
 * into `--out` byte-identically to the bench's own unsharded
 * `--out`. Replaces the static `--shard K/N` → dream_merge loop as
 * the recommended way to fan a sweep out on one machine.
 *
 * Exit codes: 0 = merged OK, 1 = a chunk exhausted its retry
 * budget, 2 = usage or environment error.
 */

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tools/shard_sched.h"
#include "util/flags.h"

using namespace dream;

int
main(int argc, char** argv)
{
    tools::OrchestratorOptions opts;
    std::string report_path;
    flags::Table table(
        "the merged file is byte-identical to `BENCH --out` run\n"
        "unsharded; a killed worker's chunks are re-run on other\n"
        "workers");
    table.add({"--jobs", "-j", "N",
               "worker subprocesses (0 = all cores; default 0)",
               flags::integer(&opts.jobs)});
    table.add({"--chunks", "", "M",
               "chunk count (default: 4 x workers; chunks are contiguous\n"
               "ranges of the selected grid ordering, handed out\n"
               "dynamically as workers finish)",
               flags::integer(&opts.chunks, 1)});
    table.add({"--retries", "", "R",
               "extra attempts per failed chunk (default 2)",
               flags::integer(&opts.retries)});
    table.add({"--worker-jobs", "", "W",
               "--jobs each worker runs with (default 1)",
               flags::integer(&opts.workerJobs)});
    table.add({"--filter", "", "S", "forwarded to the bench",
               flags::text(&opts.filter)});
    table.add({"--json", "", "", "chunk + merged results as JSON",
               flags::set(&opts.json)});
    table.add({"--out", "", "F", "merged result file (default: stdout)",
               flags::text(&opts.out)});
    table.add({"--report", "", "F",
               "write the per-chunk markdown timing report to F",
               flags::text(&report_path)});
    table.add({"--tmp", "", "DIR",
               "chunk working dir (default: a fresh temp dir)",
               flags::text(&opts.tempDir)});
    table.add({"--quiet", "", "", "no per-chunk progress on stderr",
               flags::set(&opts.verbose, false)});
    table.rest("[--] BENCH [BENCH-ARGS...]", &opts.command, 1);
    table.parse(argc, argv);

    try {
        const auto result = tools::runOrchestrator(opts);

        if (!report_path.empty()) {
            std::ofstream report(report_path);
            if (!report.is_open()) {
                std::fprintf(stderr,
                             "cannot open --report file for "
                             "writing: %s\n",
                             report_path.c_str());
                return 2;
            }
            tools::writeChunkReport(opts, result, report);
        }

        if (!result.ok) {
            std::fprintf(stderr,
                         "dream_shard: %zu chunk(s) failed after "
                         "%d attempt(s) each; no merged output "
                         "written\n",
                         result.failedChunks, 1 + opts.retries);
            return 1;
        }
        std::fprintf(stderr,
                     "dream_shard: merged %zu rows from %zu "
                     "chunk(s) on %zu worker(s) in %.2fs "
                     "(%zu requeued attempt(s))\n",
                     result.rows, result.chunks.size(),
                     result.workers, result.wallSeconds,
                     result.requeues);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dream_shard: %s\n", e.what());
        return 2;
    }
    return 0;
}
