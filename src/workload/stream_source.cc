#include "workload/stream_source.h"

#include <stdexcept>
#include <utility>

namespace dream {
namespace workload {

StreamSource::StreamSource(const ArrivalSource& source)
    : source_(&source)
{
}

void
StreamSource::push(FrameSpec frame)
{
    if (closed_)
        throw std::logic_error("push() on a closed StreamSource");
    if (frame.arrivalUs < lastArrivalUs_)
        throw std::invalid_argument(
            "stream frames must be pushed in nondecreasing "
            "arrival order");
    lastArrivalUs_ = frame.arrivalUs;
    queue_.push_back(std::move(frame));
}

void
StreamSource::close()
{
    closed_ = true;
}

std::deque<FrameSpec>
StreamSource::drain()
{
    if (!closed_)
        throw std::logic_error("drain() on an open StreamSource");
    return std::exchange(queue_, {});
}

} // namespace workload
} // namespace dream
