#include "tools/json_result.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "tools/csv_merge.h"
#include "util/json.h"

namespace dream {
namespace tools {

namespace {

using json::Value;
using Kind = json::Value::Kind;

/** A "params"/"breakdown" object: flat, number or string values. */
const Value&
needFlat(const json::Document& doc, const Value& record,
         const std::string& key)
{
    const Value& v = doc.member(record, key, Kind::Object);
    for (const auto& [name, cell] : v.members) {
        if (cell.kind != Kind::Number && cell.kind != Kind::String)
            doc.fail(cell, "\"" + key + "\" value \"" + name +
                               "\" must be a number or a string");
    }
    return v;
}

JsonTable
readResult(std::istream& in, const std::string& context)
{
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    JsonTable out;
    if (text.find_first_not_of(" \t\n\r") == std::string::npos)
        return out; // empty stream == rowless run, like the reader

    const json::Document doc(std::move(text), context);
    const Value& root = doc.root();
    if (root.kind != Kind::Array)
        doc.fail(root, "result JSON must be an array of records");
    for (const Value& record : root.items) {
        if (record.kind != Kind::Object)
            doc.fail(record, "record must be an object");
        out.raw.push_back(doc.source(record));
    }

    // Schema: parameter keys come from the first record (and must
    // agree everywhere — one file is one grid); breakdown columns
    // are the union in first-seen order, exactly like CsvSink.
    engine::CsvSchema& schema = out.table.schema;
    if (!root.items.empty()) {
        for (const auto& kv :
             needFlat(doc, root.items.front(), "params").members)
            schema.paramColumns.push_back(kv.first);
    }
    for (const Value& record : root.items) {
        const Value& params = needFlat(doc, record, "params");
        std::vector<std::string> keys;
        for (const auto& kv : params.members)
            keys.push_back(kv.first);
        if (keys != schema.paramColumns)
            doc.fail(params, "records disagree on the parameter keys "
                             "(different grids?)");
        for (const auto& kv :
             needFlat(doc, record, "breakdown").members) {
            if (std::find(schema.breakdownColumns.begin(),
                          schema.breakdownColumns.end(),
                          kv.first) ==
                schema.breakdownColumns.end())
                schema.breakdownColumns.push_back(kv.first);
        }
    }
    schema.columns = engine::csvIdentityColumns();
    schema.columns.insert(schema.columns.end(),
                          schema.paramColumns.begin(),
                          schema.paramColumns.end());
    const auto& metrics = engine::csvMetricColumns();
    schema.columns.insert(schema.columns.end(), metrics.begin(),
                          metrics.end());
    schema.columns.insert(schema.columns.end(),
                          schema.breakdownColumns.begin(),
                          schema.breakdownColumns.end());

    for (const Value& record : root.items) {
        std::vector<std::string> row;
        row.reserve(schema.columns.size());
        row.push_back(doc.member(record, "index", Kind::Number).text);
        for (const char* key : {"scenario", "system", "scheduler"})
            row.push_back(doc.member(record, key, Kind::String).text);
        for (const auto& kv : record.find("params")->members)
            row.push_back(kv.second.text);
        for (const auto& name : metrics)
            row.push_back(doc.member(record, name, Kind::Number).text);
        const Value* breakdown = record.find("breakdown");
        for (const auto& name : schema.breakdownColumns) {
            const Value* cell = breakdown->find(name);
            row.push_back(cell ? cell->text : "");
        }
        out.table.rows.push_back(std::move(row));
    }
    return out;
}

} // anonymous namespace

JsonTable
readResultJson(std::istream& in)
{
    return readResult(in, "<result>");
}

JsonTable
readResultJson(const std::string& path)
{
    std::ifstream in(path);
    if (!in.is_open())
        throw std::runtime_error("cannot open result JSON: " + path);
    return readResult(in, path);
}

void
mergeResultJsons(const std::vector<JsonTable>& inputs,
                 std::ostream& out)
{
    std::vector<const engine::CsvTable*> tables;
    std::vector<const JsonTable*> sources;
    for (const auto& t : inputs) {
        if (!t.empty()) {
            tables.push_back(&t.table);
            sources.push_back(&t);
        }
    }
    if (tables.empty()) {
        // All shards empty: JsonSink's rowless run is "[]".
        out << "[]\n";
        out.flush();
        return;
    }

    const auto rows = orderShardRows(tables);
    out << "[\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        out << "  " << sources[rows[i].table]->raw[rows[i].row]
            << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    out << "]\n";
    out.flush();
}

ResultFormat
sniffResultFormat(const std::string& path)
{
    std::ifstream in(path);
    if (!in.is_open())
        throw std::runtime_error("cannot open result file: " + path);
    int c;
    while ((c = in.get()) != std::istream::traits_type::eof()) {
        if (!std::isspace(static_cast<unsigned char>(c)))
            return c == '[' ? ResultFormat::Json : ResultFormat::Csv;
    }
    return ResultFormat::Empty;
}

engine::CsvTable
readResultTable(const std::string& path)
{
    switch (sniffResultFormat(path)) {
      case ResultFormat::Json:
        return readResultJson(path).table;
      case ResultFormat::Csv:
      case ResultFormat::Empty:
        return engine::readResultCsv(path);
    }
    return {}; // unreachable
}

size_t
mergeResultFiles(const std::vector<std::string>& paths, bool json,
                 std::ostream& out,
                 std::vector<size_t>* rows_per_input)
{
    size_t rows = 0;
    if (rows_per_input)
        rows_per_input->clear();
    if (json) {
        std::vector<JsonTable> tables;
        tables.reserve(paths.size());
        for (const auto& path : paths) {
            tables.push_back(readResultJson(path));
            if (rows_per_input)
                rows_per_input->push_back(
                    tables.back().table.rows.size());
            rows += tables.back().table.rows.size();
        }
        mergeResultJsons(tables, out);
    } else {
        std::vector<engine::CsvTable> tables;
        tables.reserve(paths.size());
        for (const auto& path : paths) {
            tables.push_back(engine::readResultCsv(path));
            if (rows_per_input)
                rows_per_input->push_back(tables.back().rows.size());
            rows += tables.back().rows.size();
        }
        mergeResultCsvs(tables, out);
    }
    return rows;
}

} // namespace tools
} // namespace dream
