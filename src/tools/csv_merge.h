/**
 * @file
 * Merging sharded result CSVs back into the canonical single-run
 * file. `bench --shard K/N --out shardK.csv` writes the K-th
 * contiguous key range of the deterministic grid ordering; this
 * module restores the unsharded ordering by sorting rows on the
 * globally unique index column and re-emitting them through the
 * same header/quoting helpers CsvSink uses — so the merged file is
 * byte-identical to what one unsharded `--out` run would have
 * written.
 */

#ifndef DREAM_TOOLS_CSV_MERGE_H
#define DREAM_TOOLS_CSV_MERGE_H

#include <ostream>
#include <vector>

#include "engine/result_sink.h"

namespace dream {
namespace tools {

/**
 * Merge shard tables into one canonical result CSV on @p out.
 * Inputs may arrive in any order; empty tables (empty shards write
 * rowless files) are skipped. If every input is empty, nothing is
 * written — matching an unsharded run with no rows.
 *
 * @throws std::runtime_error if the non-empty inputs disagree on
 * the parameter columns (different grids), or if two rows collide
 * on the row index or on the grid-point key (overlapping shards, or
 * a duplicate row within one input).
 */
void mergeResultCsvs(const std::vector<engine::CsvTable>& inputs,
                     std::ostream& out);

} // namespace tools
} // namespace dream

#endif // DREAM_TOOLS_CSV_MERGE_H
