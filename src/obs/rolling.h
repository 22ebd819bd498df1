/**
 * @file
 * Sliding-window telemetry for serve mode: exact quantiles and event
 * rates over the trailing span of virtual time. Samples are keyed by
 * the simulator clock, never wall time, so rolling reports are as
 * deterministic as the run that produced them.
 */

#ifndef DREAM_OBS_ROLLING_H
#define DREAM_OBS_ROLLING_H

#include <cstdint>
#include <deque>

#include "obs/metrics.h"

namespace dream {
namespace obs {

/**
 * Exact quantiles over the samples recorded in the trailing span of
 * virtual time. snapshot() builds a LatencyHistogram over the live
 * window, so a rolling window and a LatencyHistogram fed the same
 * samples agree bit-for-bit — the property tests/test_serve.cc pins.
 *
 * Samples must be recorded in nondecreasing time order (the
 * simulator's event order guarantees this). Eviction keeps samples
 * with t > cutoff, cutoff = now - span.
 */
class RollingQuantileWindow {
public:
    explicit RollingQuantileWindow(double span_us);

    /** Record @p value at virtual time @p t_us (NaN values kept out
     *  by LatencyHistogram at snapshot time). */
    void record(double t_us, double value);

    /** Slide the window forward to @p t_us, evicting aged samples.
     *  Time never moves backwards; stale calls are no-ops. */
    void advanceTo(double t_us);

    /** Exact-quantile histogram over the current window samples. */
    LatencyHistogram snapshot() const;

    uint64_t count() const { return uint64_t(samples_.size()); }
    bool empty() const { return samples_.empty(); }

private:
    struct Sample {
        double tUs;
        double value;
    };

    void evict(double now_us);

    double spanUs_;
    double lastUs_ = 0.0;
    std::deque<Sample> samples_;
};

/**
 * Count of events in the trailing span of virtual time, for rolling
 * rates (SLO violations, drops, rejects per window).
 */
class RollingEventCounter {
public:
    explicit RollingEventCounter(double span_us);

    /** Record one event at virtual time @p t_us. */
    void record(double t_us);

    /** Slide the window forward to @p t_us. */
    void advanceTo(double t_us);

    /** Events currently inside the window. */
    uint64_t count() const { return uint64_t(events_.size()); }

private:
    double spanUs_;
    double lastUs_ = 0.0;
    std::deque<double> events_;
};

} // namespace obs
} // namespace dream

#endif // DREAM_OBS_ROLLING_H
