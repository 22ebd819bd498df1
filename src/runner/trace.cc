#include "runner/trace.h"

#include <climits>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "runner/table.h"
#include "util/flags.h"

namespace dream {
namespace runner {

const std::string&
frameTraceCsvHeader()
{
    static const std::string header =
        "task,model,frame,arrival_us,deadline_us,completion_us,"
        "latency_us,violated,dropped,in_window,variant,energy_mj";
    return header;
}

void
writeFrameTraceCsv(std::ostream& os, const sim::RunStats& stats,
                   const workload::Scenario& scenario,
                   const TraceMeta& meta)
{
    for (const auto& kv : meta) {
        // "# key=value" has no escape syntax: a newline would turn
        // the rest of the value into a bogus header line, and '=' in
        // the key would shift the split point. Refuse loudly rather
        // than record a trace that cannot be read back.
        if (kv.first.find_first_of("=\n\r") != std::string::npos ||
            kv.second.find_first_of("\n\r") != std::string::npos)
            throw std::invalid_argument(
                "frame-trace metadata cannot represent '" + kv.first +
                "=" + kv.second + "'");
        os << "# " << kv.first << '=' << kv.second << '\n';
    }
    os << frameTraceCsvHeader() << '\n';
    for (const auto& fr : stats.frames) {
        const auto& model = scenario.tasks[size_t(fr.task)].model;
        const bool completed = fr.isCompleted();
        os << fr.task << ',' << csvQuote(model.name) << ','
           << fr.frameIdx << ',' << preciseDouble(fr.arrivalUs) << ','
           << preciseDouble(fr.deadlineUs) << ',';
        if (completed) {
            os << preciseDouble(fr.completionUs) << ','
               << preciseDouble(fr.completionUs - fr.arrivalUs);
        } else {
            os << ','; // empty completion + latency: never completed
        }
        os << ',' << (fr.violated ? 1 : 0) << ','
           << (fr.dropped ? 1 : 0) << ',' << (fr.inWindow ? 1 : 0)
           << ',' << fr.variant << ',' << preciseDouble(fr.energyMj)
           << '\n';
    }
}

std::string
frameTraceCsv(const sim::RunStats& stats,
              const workload::Scenario& scenario, const TraceMeta& meta)
{
    std::ostringstream os;
    writeFrameTraceCsv(os, stats, scenario, meta);
    return os.str();
}

namespace {

[[noreturn]] void
rowError(size_t row, const std::string& what)
{
    throw std::runtime_error("frame-trace CSV row " +
                             std::to_string(row) + ": " + what);
}

/**
 * A finite number no smaller than @p lo. A NaN arrival would stall
 * the replay's event loop, and a negative one would break the
 * stream's arrival order, so neither is read as a time.
 */
double
parseDouble(const std::string& cell, size_t row, const char* column,
            double lo = -HUGE_VAL)
{
    try {
        return flags::parseReal(cell, lo, HUGE_VAL);
    } catch (const flags::Error& e) {
        rowError(row, std::string("malformed '") + column +
                          "' value '" + cell + "' (" + e.what() + ")");
    }
}

/** Empty cell -> NaN (never-completed frames). */
double
parseOptionalDouble(const std::string& cell, size_t row, const char* column)
{
    if (cell.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return parseDouble(cell, row, column);
}

int
parseInt(const std::string& cell, size_t row, const char* column)
{
    try {
        return int(flags::parseUint(cell, 0, INT_MAX));
    } catch (const flags::Error& e) {
        rowError(row, std::string("malformed '") + column +
                          "' value '" + cell + "' (" + e.what() + ")");
    }
}

bool
parseFlag(const std::string& cell, size_t row, const char* column)
{
    if (cell == "0")
        return false;
    if (cell == "1")
        return true;
    rowError(row, std::string("malformed '") + column + "' flag '" +
                      cell + "' (want 0 or 1)");
}

} // anonymous namespace

workload::FrameTrace
readFrameTraceCsv(std::istream& in)
{
    workload::FrameTrace trace;

    // Leading "# key=value" metadata lines.
    while (in.peek() == '#') {
        std::string line;
        std::getline(in, line);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        size_t start = 1;
        while (start < line.size() && line[start] == ' ')
            ++start;
        const size_t eq = line.find('=', start);
        if (eq == std::string::npos)
            throw std::runtime_error(
                "frame-trace metadata line without '=': " + line);
        trace.meta.emplace_back(line.substr(start, eq - start),
                                line.substr(eq + 1));
    }

    std::vector<std::string> cells;
    if (!readCsvRecord(in, cells))
        throw std::runtime_error("frame-trace CSV has no header");
    {
        std::string header;
        for (size_t i = 0; i < cells.size(); ++i)
            header += (i ? "," : "") + cells[i];
        if (header != frameTraceCsvHeader())
            throw std::runtime_error(
                "unexpected frame-trace CSV header '" + header +
                "', expected '" + frameTraceCsvHeader() + "'");
    }
    const size_t n_columns = cells.size();

    while (readCsvRecord(in, cells)) {
        const size_t row = trace.frames.size() + 1;
        if (cells.size() != n_columns)
            rowError(row, "has " + std::to_string(cells.size()) +
                              " cells, header has " +
                              std::to_string(n_columns));
        workload::TraceFrame fr;
        fr.task = parseInt(cells[0], row, "task");
        fr.model = cells[1];
        fr.frameIdx = parseInt(cells[2], row, "frame");
        fr.arrivalUs = parseDouble(cells[3], row, "arrival_us", 0.0);
        fr.deadlineUs = parseDouble(cells[4], row, "deadline_us");
        fr.completionUs =
            parseOptionalDouble(cells[5], row, "completion_us");
        fr.latencyUs =
            parseOptionalDouble(cells[6], row, "latency_us");
        if (std::isnan(fr.completionUs) != std::isnan(fr.latencyUs))
            rowError(row, "completion_us and latency_us must be "
                          "empty together");
        fr.violated = parseFlag(cells[7], row, "violated");
        fr.dropped = parseFlag(cells[8], row, "dropped");
        fr.inWindow = parseFlag(cells[9], row, "in_window");
        fr.variant = parseInt(cells[10], row, "variant");
        fr.energyMj = parseDouble(cells[11], row, "energy_mj");
        trace.frames.push_back(std::move(fr));
    }
    return trace;
}

workload::FrameTrace
readFrameTraceCsv(const std::string& path)
{
    std::ifstream in(path);
    if (!in.is_open())
        throw std::runtime_error(path + ": cannot open frame-trace CSV");
    try {
        return readFrameTraceCsv(in);
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

RecordedPoint
loadRecordedPoint(const std::string& path)
{
    RecordedPoint p;
    p.trace = std::make_shared<const workload::FrameTrace>(
        readFrameTraceCsv(path));
    const auto fail = [&](const std::string& why) {
        return std::runtime_error(path + ": " + why);
    };
    const auto meta = [&](const std::string& key) {
        const std::string value = p.trace->metaValue(key);
        if (value.empty())
            throw fail("metadata is missing '" + key +
                       "' (was the trace recorded with --record-trace?)");
        return value;
    };
    // Numbers parse strictly: a corrupted seed silently becoming 0,
    // or a NaN window, would replay a different run (or never end)
    // instead of rejecting the file.
    const auto number = [&](const std::string& key, auto parse) {
        const std::string value = meta(key);
        try {
            return parse(value);
        } catch (const flags::Error& e) {
            throw fail("malformed " + key + " metadata '" + value +
                       "' (" + e.what() + ")");
        }
    };
    const auto uint = [](const std::string& v) {
        return flags::parseUint(v, 0, UINT64_MAX);
    };

    p.scenario = meta("scenario");
    std::string base = p.scenario;
    const size_t at = base.rfind("@p");
    if (at != std::string::npos) {
        try {
            p.cascadeProb = flags::parseReal(base.substr(at + 2), 0.0, 1.0);
            base.resize(at);
        } catch (const flags::Error&) {
            // "@p" is part of the name itself.
        }
    }
    bool found = false;
    for (const auto preset : workload::allScenarioPresets()) {
        if (workload::toString(preset) == base) {
            p.preset = preset;
            found = true;
        }
    }
    if (!found)
        throw fail("cannot replay scenario '" + p.scenario +
                   "': not a Table 3 preset (generated scenarios are "
                   "not replayable from metadata)");
    if (!hw::parseSystemPreset(meta("system"), &p.system))
        throw fail("unknown system preset '" + meta("system") + "'");
    if (!parseSchedKind(meta("scheduler"), &p.scheduler))
        throw fail("unknown scheduler '" + meta("scheduler") + "'");
    if (!p.trace->metaValue("params").empty())
        throw fail("parameterised grid points (params=" +
                   p.trace->metaValue("params") +
                   ") are not replayable from metadata");
    p.seed = number("seed", uint);
    p.windowUs = number("window_us", [](const std::string& v) {
        double w = 0.0;
        flags::positive(&w)(v);
        return w;
    });
    p.index = size_t(number("index", uint));
    return p;
}

} // namespace runner
} // namespace dream
