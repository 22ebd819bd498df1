#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/json.h"

namespace dream {
namespace obs {

void
LatencyHistogram::record(double value)
{
    if (std::isnan(value))
        return;
    samples_.push_back(value);
    sorted_ = false;
}

void
LatencyHistogram::merge(const LatencyHistogram& other)
{
    if (other.samples_.empty())
        return;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
}

const std::vector<double>&
LatencyHistogram::sorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    return samples_;
}

double
LatencyHistogram::min() const
{
    return samples_.empty() ? std::numeric_limits<double>::quiet_NaN()
                            : sorted().front();
}

double
LatencyHistogram::max() const
{
    return samples_.empty() ? std::numeric_limits<double>::quiet_NaN()
                            : sorted().back();
}

double
LatencyHistogram::sum() const
{
    // Accumulate in sorted order so the merge order of per-point
    // registries can never change the rounding of the total.
    double total = 0.0;
    for (const double v : sorted())
        total += v;
    return total;
}

double
LatencyHistogram::mean() const
{
    if (samples_.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return sum() / double(samples_.size());
}

double
LatencyHistogram::quantile(double q) const
{
    if (samples_.empty())
        return std::numeric_limits<double>::quiet_NaN();
    const auto& s = sorted();
    if (q <= 0.0)
        return s.front();
    if (q >= 1.0)
        return s.back();
    const double pos = q * double(s.size() - 1);
    const size_t lo = size_t(pos);
    const double frac = pos - double(lo);
    if (lo + 1 >= s.size())
        return s.back();
    return s[lo] + frac * (s[lo + 1] - s[lo]);
}

void
MetricsRegistry::count(const std::string& name, uint64_t delta)
{
    counters_[name] += delta;
}

void
MetricsRegistry::gaugeAdd(const std::string& name, double delta)
{
    gauges_[name] += delta;
}

void
MetricsRegistry::gaugeSet(const std::string& name, double value)
{
    gauges_[name] = value;
}

LatencyHistogram&
MetricsRegistry::histogram(const std::string& name)
{
    return histograms_[name];
}

void
MetricsRegistry::markVolatile(const std::string& name)
{
    volatile_.insert(name);
}

void
MetricsRegistry::merge(const MetricsRegistry& other)
{
    for (const auto& kv : other.counters_)
        counters_[kv.first] += kv.second;
    for (const auto& kv : other.gauges_)
        gauges_[kv.first] += kv.second;
    for (const auto& kv : other.histograms_)
        histograms_[kv.first].merge(kv.second);
    volatile_.insert(other.volatile_.begin(), other.volatile_.end());
}

void
MetricsRegistry::writeJson(std::ostream& out,
                           bool include_volatile) const
{
    const auto skip = [&](const std::string& name) {
        return !include_volatile && volatile_.count(name) != 0;
    };

    out << "{\n  \"counters\": {";
    bool first = true;
    for (const auto& kv : counters_) {
        if (skip(kv.first))
            continue;
        out << (first ? "\n" : ",\n") << "    " << json::quote(kv.first)
            << ": " << kv.second;
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto& kv : gauges_) {
        if (skip(kv.first))
            continue;
        out << (first ? "\n" : ",\n") << "    " << json::quote(kv.first)
            << ": " << json::number(kv.second);
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto& kv : histograms_) {
        if (skip(kv.first))
            continue;
        const LatencyHistogram& h = kv.second;
        out << (first ? "\n" : ",\n") << "    " << json::quote(kv.first)
            << ": {\"count\": " << h.count()
            << ", \"min\": " << json::number(h.min())
            << ", \"max\": " << json::number(h.max())
            << ", \"sum\": " << json::number(h.sum())
            << ", \"mean\": " << json::number(h.mean())
            << ", \"p50\": " << json::number(h.quantile(0.50))
            << ", \"p90\": " << json::number(h.quantile(0.90))
            << ", \"p99\": " << json::number(h.quantile(0.99))
            << ", \"p999\": " << json::number(h.quantile(0.999))
            << "}";
        first = false;
    }
    out << (first ? "" : "\n  ") << "}\n}\n";
}

} // namespace obs
} // namespace dream
