#include "workload/stream_source.h"

#include <iterator>
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
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (closed_)
            throw std::logic_error("push() on a closed StreamSource");
        if (frame.arrivalUs < lastArrivalUs_)
            throw std::invalid_argument(
                "stream frames must be pushed in nondecreasing "
                "arrival order");
        lastArrivalUs_ = frame.arrivalUs;
        queue_.push_back(std::move(frame));
    }
    cv_.notify_all();
}

void
StreamSource::close()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    cv_.notify_all();
}

std::vector<FrameSpec>
StreamSource::waitDrain()
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    std::vector<FrameSpec> out(std::make_move_iterator(queue_.begin()),
                               std::make_move_iterator(queue_.end()));
    queue_.clear();
    return out;
}

} // namespace workload
} // namespace dream
