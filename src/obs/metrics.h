/**
 * @file
 * The metrics half of the telemetry layer: counters, gauges and an
 * exact-quantile latency histogram collected into a MetricsRegistry.
 *
 * Determinism contract: registries merge associatively and every
 * derived statistic (quantiles, sums) is computed from the sorted
 * sample set, so a registry merged from per-point registries in grid
 * index order dumps byte-identical JSON for any worker count —
 * `--metrics` obeys the same `--jobs N == --jobs 1` contract as
 * `--out`. Wall-clock measurements (scheduler decision time, worker
 * busy seconds) are inherently run-dependent; mark them volatile and
 * they stay out of the canonical dump.
 */

#ifndef DREAM_OBS_METRICS_H
#define DREAM_OBS_METRICS_H

#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace dream {
namespace obs {

/**
 * Exact latency quantiles over a stored sample set. "Exact" as
 * opposed to bucketed estimators: every sample is kept and quantiles
 * come from the sorted set with linear interpolation (the same rule
 * as engine::AggregateSink), so p99.9 of a merged registry equals
 * p99.9 of the union of samples — merging is concatenation and the
 * result is independent of merge order. NaN samples are ignored
 * (a never-completed frame must not poison the distribution).
 */
class LatencyHistogram {
public:
    /** Record one sample; NaN is dropped. */
    void record(double value);

    /** Append every sample of @p other. */
    void merge(const LatencyHistogram& other);

    /** Recorded (non-NaN) sample count. */
    uint64_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /** Smallest / largest sample; NaN when empty. */
    double min() const;
    double max() const;
    /** Sum over the sorted samples (deterministic); 0 when empty. */
    double sum() const;
    /** sum() / count(); NaN when empty. */
    double mean() const;

    /**
     * The q-quantile (q in [0, 1]) of the sample set, linearly
     * interpolated between the two nearest order statistics; NaN
     * when empty.
     */
    double quantile(double q) const;

    /** The samples, sorted ascending. */
    const std::vector<double>& sorted() const;

private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * A named bag of counters (uint64, additive), gauges (double,
 * additive on merge — per-run totals such as busy microseconds sum
 * across runs) and latency histograms. Names are free-form
 * "area/detail" paths; the JSON dump orders every section by name.
 */
class MetricsRegistry {
public:
    /** Add @p delta to counter @p name (created at 0). */
    void count(const std::string& name, uint64_t delta = 1);
    /** Add @p delta to gauge @p name (created at 0). */
    void gaugeAdd(const std::string& name, double delta);
    /** Set gauge @p name to @p value. */
    void gaugeSet(const std::string& name, double value);
    /** The histogram @p name, created empty on first use. */
    LatencyHistogram& histogram(const std::string& name);

    /**
     * Mark metric @p name as wall-clock volatile: it is kept in the
     * registry (profilers may read it) but excluded from writeJson
     * unless include_volatile is set, so the canonical dump stays
     * deterministic across hosts and worker counts.
     */
    void markVolatile(const std::string& name);

    /** True when nothing has been recorded. */
    bool empty() const
    {
        return counters_.empty() && gauges_.empty() &&
               histograms_.empty();
    }

    /**
     * Fold @p other into this registry: counters and gauges add,
     * histograms concatenate their samples, volatile marks union.
     */
    void merge(const MetricsRegistry& other);

    /**
     * Dump as a JSON object with "counters", "gauges" and
     * "histograms" sections, each ordered by metric name. Histograms
     * dump the fixed layout {count, min, max, sum, mean, p50, p90,
     * p99, p999}; statistics of an empty histogram are null. Doubles
     * render with json::number, so equal sample sets dump equal
     * bytes.
     */
    void writeJson(std::ostream& out,
                   bool include_volatile = false) const;

    const std::map<std::string, uint64_t>& counters() const
    {
        return counters_;
    }
    const std::map<std::string, double>& gauges() const
    {
        return gauges_;
    }
    const std::map<std::string, LatencyHistogram>& histograms() const
    {
        return histograms_;
    }

private:
    std::map<std::string, uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, LatencyHistogram> histograms_;
    std::set<std::string> volatile_;
};

} // namespace obs
} // namespace dream

#endif // DREAM_OBS_METRICS_H
