/**
 * @file
 * The JSON half of the result toolchain: reads the record arrays
 * JsonSink writes (`bench --json --out`) back into the same table
 * view the CSV reader produces — so dream_diff compares JSON runs
 * (even against CSV runs) with the existing grid-point-keyed diff —
 * and merges sharded/chunked JSON files byte-identically to the
 * unsharded `--json --out`, by re-emitting the verbatim record text
 * in global index order.
 */

#ifndef DREAM_TOOLS_JSON_RESULT_H
#define DREAM_TOOLS_JSON_RESULT_H

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "engine/result_sink.h"

namespace dream {
namespace tools {

/**
 * One result JSON file: the converted table view (schema + raw cell
 * text per row, exactly what readResultCsv yields for the CSV twin
 * of the same run — numeric cells keep JsonSink's formatValue
 * rendering) plus each record's verbatim source text, which the
 * merger re-emits so merged files reproduce JsonSink's bytes.
 */
struct JsonTable {
    engine::CsvTable table;
    /** Verbatim record text ("{...}"), parallel to table.rows. */
    std::vector<std::string> raw;

    /** True for a file with no records ("[]"). */
    bool empty() const { return raw.empty(); }
};

/**
 * Parse a result JSON array produced by JsonSink.
 *
 * @throws std::runtime_error "<result>:<line>:<col>: <what>" on
 * malformed JSON (duplicate keys included), records missing the
 * fixed metric fields or holding values of the wrong type, or
 * records disagreeing on the parameter keys (different grids in one
 * file).
 */
JsonTable readResultJson(std::istream& in);

/** readResultJson from a file; errors name @p path, not "<result>". */
JsonTable readResultJson(const std::string& path);

/**
 * Merge shard/chunk JSON tables into one canonical result array on
 * @p out — the JSON twin of mergeResultCsvs: rows sort by the
 * globally unique index, inputs may arrive in any order, empty
 * inputs are skipped, and all-empty input yields the rowless run's
 * "[]". Record text is re-emitted verbatim, so the merged file is
 * byte-identical to the unsharded `--json --out`.
 *
 * @throws std::runtime_error if the non-empty inputs disagree on
 * the parameter columns, or if two rows collide on the row index or
 * grid-point key (overlapping shards).
 */
void mergeResultJsons(const std::vector<JsonTable>& inputs,
                      std::ostream& out);

/** Result-file format, sniffed from the first non-space byte. */
enum class ResultFormat {
    Empty, ///< zero rows either way (e.g. an empty-shard CSV)
    Csv,
    Json, ///< starts with '['
};

/** Sniff @p path's format; throws std::runtime_error if unreadable. */
ResultFormat sniffResultFormat(const std::string& path);

/**
 * Read either result format into the diffable table view: sniffs
 * @p path and dispatches to readResultCsv or readResultJson. The
 * entry point dream_diff uses, so baselines and candidates mix
 * formats freely.
 */
engine::CsvTable readResultTable(const std::string& path);

/**
 * Read the shard/chunk files @p paths (all CSV, or all JSON with
 * @p json) and merge them onto @p out — the one reassembly path
 * shared by the dream_merge CLI and the dream_shard orchestrator.
 * Returns the total row count; @p rows_per_input (when non-null)
 * receives each input's row count, parallel to @p paths.
 *
 * @throws std::runtime_error on unreadable/malformed input or a
 * merge validation failure — callers buffer @p out so a previous
 * good file is never clobbered by a failed merge.
 */
size_t mergeResultFiles(const std::vector<std::string>& paths,
                        bool json, std::ostream& out,
                        std::vector<size_t>* rows_per_input = nullptr);

} // namespace tools
} // namespace dream

#endif // DREAM_TOOLS_JSON_RESULT_H
