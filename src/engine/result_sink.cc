#include "engine/result_sink.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "runner/table.h"
#include "util/flags.h"

namespace dream {
namespace engine {

const std::vector<std::string>&
csvIdentityColumns()
{
    static const std::vector<std::string> columns = {
        "index", "scenario", "system", "scheduler"};
    return columns;
}

const std::vector<std::string>&
csvMetricColumns()
{
    static const std::vector<std::string> columns = {
        "seed", "window_us", "ux_cost", "dlv_rate", "norm_energy",
        "energy_mj", "violation_frac", "drop_rate", "total_frames",
        "violated_frames", "dropped_frames", "sched_invocations"};
    return columns;
}

std::string
csvHeaderLine(const std::vector<std::string>& param_columns,
              const std::vector<std::string>& breakdown_columns)
{
    std::string out = "index,scenario,system,scheduler";
    for (const auto& name : param_columns)
        out += ',' + runner::csvQuote(name);
    for (const auto& name : csvMetricColumns())
        out += ',' + name;
    for (const auto& name : breakdown_columns)
        out += ',' + runner::csvQuote(name);
    return out;
}

double
RunRecord::breakdownValue(const std::string& name) const
{
    for (const auto& kv : breakdown) {
        if (kv.first == name)
            return kv.second;
    }
    return std::numeric_limits<double>::quiet_NaN();
}

std::string
RunRecord::cellKey() const
{
    return engine::cellKey(scenario, system, scheduler,
                           paramFragment(params));
}

std::string
RunRecord::key() const
{
    return cellKey() + "/seed=" + std::to_string(seed);
}

// ---------------------------------------------------------------- CSV

CsvSink::CsvSink(std::ostream& out) : out_(&out) {}

CsvSink::CsvSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path)), out_(owned_.get())
{}

CsvSink::~CsvSink()
{
    close();
}

bool
CsvSink::ok() const
{
    return !owned_ || owned_->is_open();
}

void
CsvSink::write(const RunRecord& r)
{
    assert(!flushed_ && "CsvSink reused after close()");
    pending_.push_back(r);
}

void
CsvSink::close()
{
    if (flushed_ || !out_)
        return;
    flushed_ = true;

    // Breakdown header: union over all records, first-seen order
    // (deterministic — records arrive in grid-index order).
    std::vector<std::string> breakdown_columns;
    for (const auto& r : pending_) {
        for (const auto& kv : r.breakdown) {
            if (std::find(breakdown_columns.begin(),
                          breakdown_columns.end(),
                          kv.first) == breakdown_columns.end())
                breakdown_columns.push_back(kv.first);
        }
    }

    if (!pending_.empty()) {
        std::vector<std::string> param_columns;
        for (const auto& kv : pending_.front().params)
            param_columns.push_back(kv.first);
        *out_ << csvHeaderLine(param_columns, breakdown_columns)
              << '\n';
    }
    for (const auto& r : pending_) {
        *out_ << r.index << ',' << runner::csvQuote(r.scenario) << ','
              << runner::csvQuote(r.system) << ','
              << runner::csvQuote(r.scheduler);
        for (const auto& kv : r.params)
            *out_ << ',' << formatValue(kv.second);
        *out_ << ',' << r.seed << ',' << formatValue(r.windowUs)
              << ',' << formatValue(r.uxCost) << ','
              << formatValue(r.dlvRate) << ','
              << formatValue(r.normEnergy) << ','
              << formatValue(r.energyMj) << ','
              << formatValue(r.violationFraction) << ','
              << formatValue(r.dropRate) << ',' << r.totalFrames
              << ',' << r.violatedFrames << ',' << r.droppedFrames
              << ',' << r.schedulerInvocations;
        for (const auto& name : breakdown_columns) {
            const double v = r.breakdownValue(name);
            *out_ << ',';
            if (!std::isnan(v))
                *out_ << formatValue(v);
        }
        *out_ << '\n';
    }
    pending_.clear();
    out_->flush();
}

// --------------------------------------------------------------- read

namespace {

using runner::readCsvRecord;

/** Parse and structurally validate a result-CSV header. */
CsvSchema
parseSchema(const std::vector<std::string>& header)
{
    CsvSchema schema;
    schema.columns = header;

    const auto& identity = csvIdentityColumns();
    const auto& metrics = csvMetricColumns();
    if (header.size() < identity.size() + metrics.size())
        throw std::runtime_error("result CSV header has only " +
                                 std::to_string(header.size()) +
                                 " columns");
    for (size_t i = 0; i < identity.size(); ++i) {
        if (header[i] != identity[i])
            throw std::runtime_error(
                "result CSV header column " + std::to_string(i) +
                " is '" + header[i] + "', expected '" + identity[i] +
                "'");
    }

    // Parameter columns run from the identity prefix to the fixed
    // metric span (located by its first column, "seed" — a free
    // parameter axis must not reuse a fixed column name).
    size_t seed_at = identity.size();
    while (seed_at < header.size() && header[seed_at] != metrics[0])
        ++seed_at;
    if (seed_at + metrics.size() > header.size())
        throw std::runtime_error(
            "result CSV header has no '" + metrics[0] +
            "' metric span");
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (header[seed_at + i] != metrics[i])
            throw std::runtime_error(
                "result CSV metric column mismatch: '" +
                header[seed_at + i] + "', expected '" + metrics[i] +
                "'");
    }

    schema.paramColumns.assign(header.begin() + long(identity.size()),
                               header.begin() + long(seed_at));
    schema.breakdownColumns.assign(
        header.begin() + long(seed_at + metrics.size()),
        header.end());
    return schema;
}

/** The "index" cell of 1-based data row @p row: decimal digits only,
 *  in uint64_t range (no sign, blank, suffix or wrap-around). */
uint64_t
parseRowIndex(const std::string& cell, size_t row)
{
    try {
        return flags::parseUint(cell, 0,
                                std::numeric_limits<uint64_t>::max());
    } catch (const flags::Error&) {
        throw std::runtime_error("result CSV row " + std::to_string(row) +
                                 ": index '" + cell +
                                 "' is not a decimal integer in uint64_t "
                                 "range");
    }
}

} // anonymous namespace

size_t
CsvSchema::columnIndex(const std::string& name) const
{
    for (size_t i = 0; i < columns.size(); ++i) {
        if (columns[i] == name)
            return i;
    }
    return std::string::npos;
}

uint64_t
CsvTable::rowIndex(size_t r) const
{
    return parseRowIndex(rows.at(r).at(0), r + 1);
}

std::string
CsvTable::rowKey(size_t r) const
{
    const auto& row = rows.at(r);
    const size_t n_params = schema.paramColumns.size();
    std::vector<std::pair<std::string, std::string>> params;
    for (size_t i = 0; i < n_params; ++i)
        params.push_back({schema.paramColumns[i], row.at(4 + i)});
    return cellKey(row.at(1), row.at(2), row.at(3),
                   paramFragment(params)) +
           "/seed=" + row.at(4 + n_params);
}

CsvTable
readResultCsv(std::istream& in)
{
    CsvTable table;
    std::vector<std::string> cells;
    if (!readCsvRecord(in, cells))
        return table; // empty file: a rowless (e.g. empty-shard) run
    table.schema = parseSchema(cells);
    while (readCsvRecord(in, cells)) {
        if (cells.size() != table.schema.columns.size())
            throw std::runtime_error(
                "result CSV row " +
                std::to_string(table.rows.size() + 1) + " has " +
                std::to_string(cells.size()) + " cells, header has " +
                std::to_string(table.schema.columns.size()));
        parseRowIndex(cells[0], table.rows.size() + 1);
        table.rows.push_back(cells);
    }
    return table;
}

CsvTable
readResultCsv(const std::string& path)
{
    std::ifstream in(path);
    if (!in.is_open())
        throw std::runtime_error("cannot open result CSV: " + path);
    try {
        return readResultCsv(in);
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

// ---------------------------------------------------------- aggregate

void
AggregateSink::write(const RunRecord& r)
{
    const std::string key = r.cellKey();
    auto it = cells_.find(key);
    if (it == cells_.end()) {
        order_.push_back(key);
        Sums s;
        s.scenario = r.scenario;
        s.system = r.system;
        s.scheduler = r.scheduler;
        s.params = r.params;
        it = cells_.emplace(key, std::move(s)).first;
    }
    Sums& s = it->second;
    s.uxCost.add(r.uxCost);
    s.dlvRate.add(r.dlvRate);
    s.normEnergy.add(r.normEnergy);
    s.energyMj.add(r.energyMj);
    s.violationFraction.add(r.violationFraction);
    s.dropRate.add(r.dropRate);
    for (const auto& kv : r.breakdown) {
        auto col = std::find_if(
            s.breakdown.begin(), s.breakdown.end(),
            [&](const auto& c) { return c.first == kv.first; });
        if (col == s.breakdown.end()) {
            s.breakdown.push_back({kv.first, {}});
            col = std::prev(s.breakdown.end());
        }
        col->second.add(kv.second);
    }
}

AggregateSink::Summary
AggregateSink::Sum::summary() const
{
    Summary s;
    if (count > 0)
        s.mean = total / double(count);
    return s;
}

std::vector<AggregateSink::Cell>
AggregateSink::cells() const
{
    std::vector<Cell> out;
    out.reserve(order_.size());
    for (const auto& key : order_) {
        const Sums& s = cells_.at(key);
        Cell c;
        c.key = key;
        c.scenario = s.scenario;
        c.system = s.system;
        c.scheduler = s.scheduler;
        c.params = s.params;
        c.runs = s.uxCost.count;
        c.uxCost = s.uxCost.summary();
        c.dlvRate = s.dlvRate.summary();
        c.normEnergy = s.normEnergy.summary();
        c.energyMj = s.energyMj.summary();
        c.violationFraction = s.violationFraction.summary();
        c.dropRate = s.dropRate.summary();
        for (const auto& col : s.breakdown)
            c.breakdown.push_back({col.first, col.second.summary()});
        out.push_back(std::move(c));
    }
    return out;
}

// ------------------------------------------------- report helpers

double
meanUxCost(const AggregateSink::Cell& cell)
{
    return cell.uxCost.mean;
}

std::vector<CellGroup>
groupCells(const std::vector<AggregateSink::Cell>& cells,
           const std::function<std::string(const AggregateSink::Cell&)>&
               key)
{
    std::vector<CellGroup> groups;
    for (const auto& cell : cells) {
        const std::string k = key(cell);
        auto it = std::find_if(
            groups.begin(), groups.end(),
            [&](const CellGroup& g) { return g.key == k; });
        if (it == groups.end()) {
            groups.push_back({k, {}});
            it = std::prev(groups.end());
        }
        it->cells.push_back(cell);
    }
    return groups;
}

const AggregateSink::Cell*
findCell(const std::vector<AggregateSink::Cell>& cells,
         const std::string& scenario, const std::string& system,
         const std::string& scheduler, const ParamMap& params)
{
    for (const auto& cell : cells) {
        if (cell.scenario == scenario && cell.system == system &&
            cell.scheduler == scheduler &&
            (params.empty() || cell.params == params)) {
            return &cell;
        }
    }
    return nullptr;
}

const AggregateSink::Cell&
cellAt(const std::vector<AggregateSink::Cell>& cells,
       const std::string& scenario, const std::string& system,
       const std::string& scheduler, const ParamMap& params)
{
    const auto* cell =
        findCell(cells, scenario, system, scheduler, params);
    if (!cell)
        throw std::out_of_range(
            "no aggregated cell for " +
            cellKey(scenario, system, scheduler, paramFragment(params)));
    return *cell;
}

std::vector<SchedulerRatio>
schedulerRatios(const std::vector<AggregateSink::Cell>& cells,
                const std::string& numerator_sched,
                const std::string& denominator_sched,
                const CellMetric& metric)
{
    std::vector<SchedulerRatio> out;
    for (const auto& num : cells) {
        if (num.scheduler != numerator_sched)
            continue;
        const auto* den = findCell(cells, num.scenario, num.system,
                                   denominator_sched, num.params);
        if (!den)
            continue;
        SchedulerRatio r;
        r.scenario = num.scenario;
        r.system = num.system;
        r.params = num.params;
        r.numerator = metric(num);
        r.denominator = metric(*den);
        r.ratio = r.denominator != 0.0
                      ? r.numerator / r.denominator
                      : std::numeric_limits<double>::quiet_NaN();
        out.push_back(std::move(r));
    }
    return out;
}

} // namespace engine
} // namespace dream
