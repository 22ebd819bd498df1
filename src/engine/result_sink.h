/**
 * @file
 * Result records and sinks of the sweep engine.
 *
 * Every grid point produces one RunRecord. The engine delivers
 * records to sinks in flat-index order after all workers joined, so
 * sink output is byte-identical for any --jobs value. CsvSink
 * buffers rows and emits them on close (the header needs the union
 * of breakdown columns); AggregateSink folds records into per-cell
 * means (of UXCost, drop rate, energy, ...), where a cell is a grid
 * point minus the seed.
 *
 * Records additionally carry named breakdown columns (e.g. Supernet
 * variant shares), and the report helpers at the bottom (groupCells,
 * findCell, schedulerRatios) turn aggregated cells into the grouped
 * tables and ratio columns the paper's figures report.
 */

#ifndef DREAM_ENGINE_RESULT_SINK_H
#define DREAM_ENGINE_RESULT_SINK_H

#include <cstdint>
#include <fstream>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/sweep_grid.h"

namespace dream {
namespace engine {

/** Metrics of one simulated grid point. */
struct RunRecord {
    size_t index = 0;
    std::string scenario;
    std::string system;
    std::string scheduler;
    ParamMap params;
    uint64_t seed = 0;
    double windowUs = 0.0;

    double uxCost = 0.0;
    double dlvRate = 0.0;    ///< sum of per-task DLV rates (Alg. 2)
    double normEnergy = 0.0; ///< sum of per-task normalised energies
    double energyMj = 0.0;
    double violationFraction = 0.0;
    double dropRate = 0.0;   ///< dropped / total frames
    uint64_t totalFrames = 0;
    uint64_t violatedFrames = 0;
    uint64_t droppedFrames = 0;
    uint64_t schedulerInvocations = 0;

    /**
     * Named breakdown columns beyond the fixed metrics, e.g. the
     * Supernet variant shares of Figure 14 ("OFA_Supernet_v0_share",
     * ...). Filled by fillMetrics() from the run's stats; empty for
     * runs without breakdown-carrying features. CsvSink's header
     * carries the union of every record's columns; AggregateSink
     * summarises them per cell.
     */
    std::vector<std::pair<std::string, double>> breakdown;

    /** Value of breakdown column @p name; NaN if absent. */
    double breakdownValue(const std::string& name) const;

    /** Grid identity incl. seed (matches SweepGrid::Point::key()). */
    std::string key() const;
    /** Grid identity without the seed (the aggregation cell). */
    std::string cellKey() const;
};

/** Receives every RunRecord of an engine run, in index order. */
class ResultSink {
public:
    virtual ~ResultSink() = default;

    /** Consume one record. */
    virtual void write(const RunRecord& record) = 0;

    /** Flush/finalise output. Idempotent; also called by dtors. */
    virtual void close() {}
};

/**
 * Writes records as CSV rows. Rows are buffered and emitted on
 * close() (also called by the destructor), because the header's
 * breakdown columns are the union over all records in first-seen
 * order — a grid whose first point lacks a breakdown-carrying
 * feature (e.g. a generated scenario without a Supernet) must not
 * drop the columns of later points. Records with absent columns get
 * blank cells, so every row has the same column count.
 */
class CsvSink : public ResultSink {
public:
    /** Write to a caller-owned stream. */
    explicit CsvSink(std::ostream& out);
    /** Write to a file (truncates). */
    explicit CsvSink(const std::string& path);
    ~CsvSink() override;

    /** False if a file path could not be opened for writing. */
    bool ok() const;

    void write(const RunRecord& record) override;
    void close() override;

private:
    std::unique_ptr<std::ofstream> owned_;
    std::ostream* out_;
    std::vector<RunRecord> pending_;
    bool flushed_ = false;
};

/** Per-cell (grid point minus seed) statistical aggregation. */
class AggregateSink : public ResultSink {
public:
    /** Summary of one metric across a cell's seeds. */
    struct Summary {
        double mean = 0.0; ///< summed in record (seed) order
    };

    /** Aggregated results of one cell. */
    struct Cell {
        std::string key;
        std::string scenario;
        std::string system;
        std::string scheduler;
        ParamMap params;
        size_t runs = 0;
        Summary uxCost;
        Summary dlvRate;
        Summary normEnergy;
        Summary energyMj;
        Summary violationFraction;
        Summary dropRate;
        /** Breakdown columns, summarised per name (record order). */
        std::vector<std::pair<std::string, Summary>> breakdown;
    };

    void write(const RunRecord& record) override;

    /** Summarised cells in first-seen (i.e. grid index) order. */
    std::vector<Cell> cells() const;

private:
    /** Running sum of one metric, added in record (seed) order. */
    struct Sum {
        double total = 0.0;
        size_t count = 0;

        void add(double v)
        {
            total += v;
            ++count;
        }
        Summary summary() const;
    };

    struct Sums {
        std::string scenario, system, scheduler;
        ParamMap params;
        Sum uxCost, dlvRate, normEnergy, energyMj, violationFraction,
            dropRate;
        std::vector<std::pair<std::string, Sum>> breakdown;
    };

    std::vector<std::string> order_;
    std::unordered_map<std::string, Sums> cells_;
};

// -------------------------------------------- CSV schema + reader
//
// The counterpart of CsvSink: schema introspection over a result
// CSV's header and a reader returning the raw (unquoted) cell text
// of every row. The merge/diff tools are built on this — raw cells
// round-trip byte-identically through runner::csvQuote(), the one
// quoting rule of every CSV writer, and numbers are only parsed
// where a comparison needs them.

/**
 * The fixed identity columns every result CSV starts with
 * ("index", "scenario", "system", "scheduler").
 */
const std::vector<std::string>& csvIdentityColumns();

/**
 * The fixed metric columns between the parameter and breakdown
 * spans ("seed", "window_us", ..., "sched_invocations").
 */
const std::vector<std::string>& csvMetricColumns();

/**
 * The header line (no trailing newline) of a result CSV with the
 * given parameter and breakdown column names. Shared by CsvSink and
 * dream_merge so a merged file reproduces the writer's bytes.
 */
std::string
csvHeaderLine(const std::vector<std::string>& param_columns,
              const std::vector<std::string>& breakdown_columns);

/** Introspected structure of one result CSV header. */
struct CsvSchema {
    /** Every header column, in file order. */
    std::vector<std::string> columns;
    /** Free-parameter columns (between "scheduler" and "seed"). */
    std::vector<std::string> paramColumns;
    /** Breakdown columns (after "sched_invocations"). */
    std::vector<std::string> breakdownColumns;

    /** Column position of @p name; npos if absent. */
    size_t columnIndex(const std::string& name) const;

    /** First breakdown column position (== columns.size() if none). */
    size_t breakdownBegin() const
    {
        return columns.size() - breakdownColumns.size();
    }
};

/** One result CSV: schema plus raw cell text per row. */
struct CsvTable {
    CsvSchema schema;
    /** Raw (unquoted) cells; every row has schema.columns.size(). */
    std::vector<std::vector<std::string>> rows;

    /** True for a file with no rows (and thus no header). */
    bool empty() const { return rows.empty(); }

    /**
     * Row @p r's "index" cell as a number.
     * @throws std::runtime_error, as readResultCsv does, unless the
     * cell is a decimal integer in uint64_t range.
     */
    uint64_t rowIndex(size_t r) const;
    /**
     * Grid-point identity of row @p r — scenario, system,
     * scheduler, parameter values and seed, formatted like
     * SweepGrid::Point::key() ("VR/4K-2WS/FCFS/alpha=1/seed=11").
     */
    std::string rowKey(size_t r) const;
};

/**
 * Parse a result CSV produced by CsvSink. An empty stream yields an
 * empty table (CsvSink writes no header for a rowless run — the
 * empty-shard case).
 *
 * @throws std::runtime_error on a malformed header (fixed columns
 * missing or out of order), an inconsistent cell count, an "index"
 * cell that is not a decimal integer in uint64_t range, or invalid
 * quoting.
 */
CsvTable readResultCsv(std::istream& in);

/** readResultCsv from a file; the error names @p path. */
CsvTable readResultCsv(const std::string& path);

// ------------------------------------------------- report helpers
//
// Small composable views over AggregateSink::cells() that benches use
// to render grouped tables and scheduler-pair ratio columns without
// hand-rolled map plumbing.

/** Selects the reported metric of a cell (default: mean UXCost). */
using CellMetric = std::function<double(const AggregateSink::Cell&)>;

/** The default report metric: the cell's mean UXCost. */
double meanUxCost(const AggregateSink::Cell& cell);

/** Cells sharing one group key, in first-seen (grid) order. */
struct CellGroup {
    std::string key;
    std::vector<AggregateSink::Cell> cells;
};

/**
 * Group @p cells by @p key (e.g. the system name for the per-system
 * tables of Figures 7/8). Groups and members keep first-seen order,
 * so output is deterministic for any --jobs value.
 */
std::vector<CellGroup>
groupCells(const std::vector<AggregateSink::Cell>& cells,
           const std::function<std::string(const AggregateSink::Cell&)>&
               key);

/**
 * The cell with the given identity (empty @p params matches any);
 * nullptr if absent.
 */
const AggregateSink::Cell*
findCell(const std::vector<AggregateSink::Cell>& cells,
         const std::string& scenario, const std::string& system,
         const std::string& scheduler, const ParamMap& params = {});

/**
 * findCell for report code where absence is a bench bug: throws
 * std::out_of_range naming the missing cell instead of returning
 * nullptr (so a mismatched grid/report axis fails loudly, not with a
 * null dereference).
 */
const AggregateSink::Cell&
cellAt(const std::vector<AggregateSink::Cell>& cells,
       const std::string& scenario, const std::string& system,
       const std::string& scheduler, const ParamMap& params = {});

/** One scheduler-pair ratio row (numerator / denominator metric). */
struct SchedulerRatio {
    std::string scenario;
    std::string system;
    ParamMap params;
    double numerator = 0.0;
    double denominator = 0.0;
    double ratio = 0.0;

    /** The relative reduction 1 - ratio (Figure 2's headline). */
    double reduction() const { return 1.0 - ratio; }
};

/**
 * Ratio columns between two scheduler axis values: for every
 * (scenario, system, params) cell pair present for both schedulers,
 * metric(@p numerator_sched) / metric(@p denominator_sched), in grid
 * order. Pairs missing either side are skipped.
 */
std::vector<SchedulerRatio>
schedulerRatios(const std::vector<AggregateSink::Cell>& cells,
                const std::string& numerator_sched,
                const std::string& denominator_sched,
                const CellMetric& metric = meanUxCost);

} // namespace engine
} // namespace dream

#endif // DREAM_ENGINE_RESULT_SINK_H
