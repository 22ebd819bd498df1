/**
 * @file
 * Fixed-width console table printer used by the bench harness to
 * emit the rows/series each paper table and figure reports, plus the
 * low-level CSV cell quoting/record reading shared by every CSV
 * producer and consumer in the repo (engine result sinks, the
 * merge/diff toolchain, frame traces).
 */

#ifndef DREAM_RUNNER_TABLE_H
#define DREAM_RUNNER_TABLE_H

#include <istream>
#include <string>
#include <vector>

#include "util/json.h"

namespace dream {
namespace runner {

/** Minimal aligned-column table writer. */
class Table {
public:
    /** Create a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Append a row of preformatted cells. */
    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns (header + separator + rows). */
    std::string str() const;

    /** Render and write to stdout. */
    void print() const;

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p digits fraction digits. */
std::string fmt(double v, int digits = 4);

/** Format a percentage (0.123 -> "12.3%"). */
std::string fmtPct(double v, int digits = 1);

/** Geometric mean of positive values (NaN on empty input — an empty
 *  geomean has no identity, and a silent 0 would read as a perfect
 *  score in lower-is-better tables). */
double geomean(const std::vector<double>& values);

// ------------------------------------------------- CSV primitives
//
// One quoting rule and one record reader for every CSV the repo
// writes or parses. The result sinks and reader, dream_merge and the
// frame-trace round trip all sit on these, so a cell that one layer
// writes always parses back identically in another.

/**
 * Quote one CSV cell RFC-4180 style: cells containing a comma,
 * quote, newline or carriage return are wrapped in double quotes
 * with embedded quotes doubled; all other cells pass through
 * verbatim. ('\r' is quoted too: readCsvRecord strips bare CRs —
 * Windows line endings — so an unquoted CR would not round-trip.)
 */
std::string csvQuote(const std::string& cell);

/**
 * Split one logical CSV record off @p in into unquoted cells.
 * Handles quoted cells (including embedded newlines and doubled
 * quotes) and CRLF line endings. Returns false at end of input.
 *
 * @throws std::runtime_error on an unterminated quoted cell.
 */
bool readCsvRecord(std::istream& in, std::vector<std::string>& cells);

/**
 * Shortest round-trip double rendering (json::preciseDouble). The
 * frame-trace writer uses it so recorded arrival/deadline times
 * replay bit-for-bit.
 */
using json::preciseDouble;

} // namespace runner
} // namespace dream

#endif // DREAM_RUNNER_TABLE_H
