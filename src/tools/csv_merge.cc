#include "tools/csv_merge.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "runner/table.h"

namespace dream {
namespace tools {

namespace {

/** One row of one input table, ordered for merged re-emission. */
struct ShardRowRef {
    size_t table;   ///< position in the caller's table list
    size_t row;     ///< row within that table
    uint64_t index; ///< the row's globally unique "index" cell
};

/** Every row of @p tables (at least one) in index order, after
 *  checking that they form one grid with no row twice. */
std::vector<ShardRowRef>
orderShardRows(const std::vector<const engine::CsvTable*>& tables)
{
    const auto& schema = tables.front()->schema;
    for (const auto* t : tables) {
        if (t->schema.paramColumns != schema.paramColumns)
            throw std::runtime_error(
                "shard schema mismatch: parameter columns differ "
                "across inputs (different grids?)");
    }

    // Restore canonical order: every bench writes a globally unique,
    // increasing index column, so the unsharded row order is the
    // index order of the union.
    std::vector<ShardRowRef> rows;
    for (size_t t = 0; t < tables.size(); ++t) {
        for (size_t r = 0; r < tables[t]->rows.size(); ++r)
            rows.push_back({t, r, tables[t]->rowIndex(r)});
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const ShardRowRef& a, const ShardRowRef& b) {
                         return a.index < b.index;
                     });
    for (size_t i = 1; i < rows.size(); ++i) {
        if (rows[i].index != rows[i - 1].index)
            continue;
        const std::string index = std::to_string(rows[i].index);
        if (rows[i].table == rows[i - 1].table)
            throw std::runtime_error("row index " + index +
                                     " appears twice in one input");
        throw std::runtime_error("overlapping shards: row index " + index +
                                 " appears in more than one input");
    }
    std::unordered_set<std::string> keys;
    keys.reserve(rows.size());
    for (const auto& ref : rows) {
        const std::string key =
            tables[ref.table]->rowKey(ref.row);
        if (!keys.insert(key).second)
            throw std::runtime_error(
                "overlapping shards: grid point '" + key +
                "' appears in more than one row");
    }
    return rows;
}

} // anonymous namespace

void
mergeResultCsvs(const std::vector<engine::CsvTable>& inputs,
                std::ostream& out)
{
    std::vector<const engine::CsvTable*> tables;
    for (const auto& t : inputs) {
        if (!t.empty())
            tables.push_back(&t);
    }
    if (tables.empty())
        return; // all shards empty: the rowless-run CSV is empty too

    const auto rows = orderShardRows(tables);

    // The breakdown header is the union over all rows in first-seen
    // order — exactly how CsvSink builds it, so a row's carried
    // columns are its non-empty cells, read in its own file's
    // column order.
    std::vector<std::string> breakdown;
    for (const auto& ref : rows) {
        const auto& sch = tables[ref.table]->schema;
        const size_t begin = sch.breakdownBegin();
        for (size_t c = 0; c < sch.breakdownColumns.size(); ++c) {
            if (tables[ref.table]->rows[ref.row][begin + c].empty())
                continue;
            const auto& name = sch.breakdownColumns[c];
            if (std::find(breakdown.begin(), breakdown.end(), name) ==
                breakdown.end())
                breakdown.push_back(name);
        }
    }

    out << engine::csvHeaderLine(
               tables.front()->schema.paramColumns, breakdown)
        << '\n';
    for (const auto& ref : rows) {
        const auto& sch = tables[ref.table]->schema;
        const auto& cells = tables[ref.table]->rows[ref.row];
        const size_t fixed = sch.breakdownBegin();
        for (size_t c = 0; c < fixed; ++c) {
            if (c)
                out << ',';
            out << runner::csvQuote(cells[c]);
        }
        for (const auto& name : breakdown) {
            const size_t c = sch.columnIndex(name);
            out << ',';
            if (c != std::string::npos)
                out << runner::csvQuote(cells[c]);
        }
        out << '\n';
    }
    out.flush();
}

} // namespace tools
} // namespace dream
