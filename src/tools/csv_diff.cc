#include "tools/csv_diff.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "util/json.h"

namespace dream {
namespace tools {

namespace {

/** Parse an entire cell as a double; false if not fully numeric. */
bool
parseNumeric(const std::string& cell, double* out)
{
    if (cell.empty())
        return false;
    char* end = nullptr;
    *out = std::strtod(cell.c_str(), &end);
    return end == cell.c_str() + cell.size();
}

/** In-tolerance numeric equality; exact string equality otherwise. */
bool
cellsMatch(const std::string& a, const std::string& b,
           const Tolerance& tol)
{
    if (a == b)
        return true;
    double va = 0.0, vb = 0.0;
    if (!parseNumeric(a, &va) || !parseNumeric(b, &vb))
        return false;
    if (std::isnan(va) || std::isnan(vb))
        return std::isnan(va) && std::isnan(vb);
    const double delta = std::abs(va - vb);
    return delta <= tol.abs ||
           delta <= tol.rel * std::max(std::abs(va), std::abs(vb));
}

/** Key -> row position; throws on a repeated key. */
std::unordered_map<std::string, size_t>
keyRows(const engine::CsvTable& t, const char* label)
{
    std::unordered_map<std::string, size_t> rows;
    rows.reserve(t.rows.size());
    for (size_t r = 0; r < t.rows.size(); ++r) {
        if (!rows.emplace(t.rowKey(r), r).second)
            throw std::runtime_error(
                std::string(label) + " repeats grid point '" +
                t.rowKey(r) + "' — not a single-run result CSV");
    }
    return rows;
}

} // anonymous namespace

const Tolerance&
DiffOptions::toleranceFor(const std::string& column) const
{
    for (const auto& kv : columnTolerances) {
        if (kv.first == column)
            return kv.second;
    }
    return tolerance;
}

size_t
DiffResult::changedRows() const
{
    std::unordered_set<std::string> keys;
    for (const auto& c : changed)
        keys.insert(c.key);
    return keys.size();
}

DiffResult
diffResultCsvs(const engine::CsvTable& a, const engine::CsvTable& b,
               const DiffOptions& options)
{
    if (!a.empty() && !b.empty() &&
        a.schema.paramColumns != b.schema.paramColumns)
        throw std::runtime_error(
            "parameter columns differ between the two CSVs — not "
            "the same grid");

    DiffResult result;
    result.rowsA = a.rows.size();
    result.rowsB = b.rows.size();

    const auto rows_a = keyRows(a, "first CSV");
    const auto rows_b = keyRows(b, "second CSV");

    // Compared columns: everything except the positional "index" —
    // the metric span plus the union of breakdown columns (A's
    // order first). Identity/param cells are the key itself.
    std::vector<std::string> value_columns;
    if (!a.empty() || !b.empty()) {
        value_columns = engine::csvMetricColumns();
        for (const auto& t : {&a, &b}) {
            for (const auto& name : t->schema.breakdownColumns) {
                if (std::find(value_columns.begin(),
                              value_columns.end(),
                              name) == value_columns.end())
                    value_columns.push_back(name);
            }
        }
    }

    for (size_t r = 0; r < a.rows.size(); ++r) {
        const std::string key = a.rowKey(r);
        const auto it = rows_b.find(key);
        if (it == rows_b.end()) {
            result.removed.push_back(key);
            continue;
        }
        ++result.compared;
        for (const auto& column : value_columns) {
            const size_t ca = a.schema.columnIndex(column);
            const size_t cb = b.schema.columnIndex(column);
            // A column absent from one file reads as blank cells, so
            // it only flags rows where the other file has a value.
            const std::string& va = ca == std::string::npos
                                        ? std::string()
                                        : a.rows[r][ca];
            const std::string& vb = cb == std::string::npos
                                        ? std::string()
                                        : b.rows[it->second][cb];
            if (!cellsMatch(va, vb, options.toleranceFor(column)))
                result.changed.push_back({key, column, va, vb});
        }
    }
    for (size_t r = 0; r < b.rows.size(); ++r) {
        const std::string key = b.rowKey(r);
        if (rows_a.find(key) == rows_a.end())
            result.added.push_back(key);
    }
    return result;
}

void
printDiffSummary(const DiffResult& result, std::ostream& out,
                 size_t max_cells)
{
    out << result.rowsA << " rows vs " << result.rowsB << " rows; "
        << result.compared << " grid points compared\n"
        << "added: " << result.added.size()
        << ", removed: " << result.removed.size()
        << ", changed cells: " << result.changed.size() << " (in "
        << result.changedRows() << " rows)\n";
    size_t shown = 0;
    for (const auto& key : result.removed) {
        if (shown == max_cells)
            break;
        ++shown;
        out << "  - " << key << '\n';
    }
    for (const auto& key : result.added) {
        if (shown == max_cells)
            break;
        ++shown;
        out << "  + " << key << '\n';
    }
    for (const auto& c : result.changed) {
        if (shown == max_cells)
            break;
        ++shown;
        out << "  " << c.key << ": " << c.column << ' '
            << (c.before.empty() ? "(blank)" : c.before) << " -> "
            << (c.after.empty() ? "(blank)" : c.after) << '\n';
    }
    const size_t total = result.added.size() + result.removed.size() +
                         result.changed.size();
    if (total > shown)
        out << "  ... and " << (total - shown) << " more\n";
    out << (result.identical() ? "result CSVs match\n"
                               : "result CSVs differ\n");
}

void
printDiffJson(const DiffResult& result, std::ostream& out)
{
    out << "{\"rows_a\": " << result.rowsA
        << ", \"rows_b\": " << result.rowsB
        << ", \"compared\": " << result.compared
        << ", \"identical\": "
        << (result.identical() ? "true" : "false");
    out << ", \"added\": [";
    for (size_t i = 0; i < result.added.size(); ++i)
        out << (i ? ", " : "") << json::quote(result.added[i]);
    out << "], \"removed\": [";
    for (size_t i = 0; i < result.removed.size(); ++i)
        out << (i ? ", " : "") << json::quote(result.removed[i]);
    out << "], \"changed\": [";
    for (size_t i = 0; i < result.changed.size(); ++i) {
        const auto& c = result.changed[i];
        out << (i ? ", " : "") << "{\"key\": " << json::quote(c.key)
            << ", \"column\": " << json::quote(c.column)
            << ", \"before\": " << json::quote(c.before)
            << ", \"after\": " << json::quote(c.after) << '}';
    }
    out << "]}\n";
}

} // namespace tools
} // namespace dream
