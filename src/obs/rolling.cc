#include "obs/rolling.h"

#include <algorithm>
#include <stdexcept>

namespace dream {
namespace obs {

RollingWindow::RollingWindow(double span_us) : spanUs_(span_us)
{
    if (!(span_us > 0.0))
        throw std::invalid_argument(
            "rolling window span must be positive");
}

void
RollingWindow::record(double t_us, std::optional<double> value)
{
    advanceTo(t_us);
    events_.push_back(Event{t_us, value});
}

void
RollingWindow::advanceTo(double t_us)
{
    lastUs_ = std::max(lastUs_, t_us);
    const double cutoff = lastUs_ - spanUs_;
    while (!events_.empty() && events_.front().tUs <= cutoff)
        events_.pop_front();
}

LatencyHistogram
RollingWindow::snapshot() const
{
    LatencyHistogram h;
    for (const auto& e : events_) {
        if (e.value)
            h.record(*e.value);
    }
    return h;
}

} // namespace obs
} // namespace dream
