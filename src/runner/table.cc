#include "runner/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace dream {
namespace runner {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::str() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string>& cells) {
        for (size_t c = 0; c < cells.size(); ++c) {
            os << cells[c];
            if (c + 1 < cells.size()) {
                os << std::string(widths[c] - cells[c].size() + 2, ' ');
            }
        }
        os << "\n";
    };
    emit(headers_);
    size_t total = 0;
    for (size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    os << std::string(total, '-') << "\n";
    for (const auto& row : rows_)
        emit(row);
    return os.str();
}

void
Table::print() const
{
    std::fputs(str().c_str(), stdout);
}

std::string
fmt(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

std::string
fmtPct(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", digits, v * 100.0);
    return buf;
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(std::max(v, 1e-300));
    return std::exp(log_sum / double(values.size()));
}

std::string
csvQuote(const std::string& s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

bool
readCsvRecord(std::istream& in, std::vector<std::string>& cells)
{
    cells.clear();
    int c = in.get();
    if (c == std::istream::traits_type::eof())
        return false;

    std::string cell;
    bool quoted = false;
    for (;; c = in.get()) {
        if (c == std::istream::traits_type::eof()) {
            if (quoted)
                throw std::runtime_error(
                    "unterminated quoted CSV cell");
            break;
        }
        if (quoted) {
            if (c == '"') {
                if (in.peek() == '"') {
                    cell += '"';
                    in.get();
                } else {
                    quoted = false;
                }
            } else {
                cell += char(c);
            }
            continue;
        }
        if (c == '"' && cell.empty()) {
            quoted = true;
        } else if (c == ',') {
            cells.push_back(std::move(cell));
            cell.clear();
        } else if (c == '\n') {
            break;
        } else if (c != '\r') {
            cell += char(c);
        }
    }
    cells.push_back(std::move(cell));
    return true;
}

} // namespace runner
} // namespace dream
