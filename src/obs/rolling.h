/**
 * @file
 * Sliding-window telemetry for serve mode: event counts and exact
 * quantiles over the trailing span of virtual time. Samples are keyed
 * by the simulator clock, never wall time, so rolling reports are as
 * deterministic as the run that produced them.
 */

#ifndef DREAM_OBS_ROLLING_H
#define DREAM_OBS_ROLLING_H

#include <cstdint>
#include <deque>
#include <optional>

#include "obs/metrics.h"

namespace dream {
namespace obs {

/**
 * The events recorded in the trailing span of virtual time. Each
 * event may carry a value: count() counts every event in the window,
 * and snapshot() builds a LatencyHistogram over the values only, so a
 * window and a LatencyHistogram fed the same values agree
 * bit-for-bit — the property tests/test_serve.cc pins.
 *
 * Events must be recorded in nondecreasing time order (the
 * simulator's event order guarantees this). Eviction keeps events
 * with t > cutoff, cutoff = now - span.
 */
class RollingWindow {
public:
    explicit RollingWindow(double span_us);

    /** Record one event at virtual time @p t_us, with @p value a
     *  sample of snapshot() (NaN values are kept out by
     *  LatencyHistogram). */
    void record(double t_us, std::optional<double> value = {});

    /** Slide the window forward to @p t_us, evicting aged events.
     *  Time never moves backwards; stale calls are no-ops. */
    void advanceTo(double t_us);

    /** Events currently inside the window, valued or not. */
    uint64_t count() const { return uint64_t(events_.size()); }

    /** Exact-quantile histogram over the values in the window. */
    LatencyHistogram snapshot() const;

private:
    struct Event {
        double tUs;
        std::optional<double> value;
    };

    double spanUs_;
    double lastUs_ = 0.0;
    std::deque<Event> events_;
};

} // namespace obs
} // namespace dream

#endif // DREAM_OBS_ROLLING_H
