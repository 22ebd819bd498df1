#include "workload/stream_source.h"

#include <iterator>
#include <stdexcept>
#include <utility>

namespace dream {
namespace workload {

StreamSource::StreamSource(const ArrivalSource& delegate)
    : delegate_(&delegate)
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

bool
StreamSource::closed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

size_t
StreamSource::pending() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
}

std::vector<FrameSpec>
StreamSource::drain()
{
    std::lock_guard<std::mutex> lock(mu_);
    return takeQueued();
}

std::vector<FrameSpec>
StreamSource::waitDrain()
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    return takeQueued();
}

std::vector<FrameSpec>
StreamSource::takeQueued()
{
    std::vector<FrameSpec> out(std::make_move_iterator(queue_.begin()),
                               std::make_move_iterator(queue_.end()));
    queue_.clear();
    return out;
}

std::vector<FrameSpec>
StreamSource::rootFrames(double window_us) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<FrameSpec> out;
    for (const auto& frame : queue_) {
        if (frame.arrivalUs < window_us)
            out.push_back(frame);
    }
    return out;
}

FrameSpec
StreamSource::childFrame(TaskId child, int frame_idx,
                         double parent_arrival_us,
                         double parent_completion_us) const
{
    return delegate_->childFrame(child, frame_idx, parent_arrival_us,
                                 parent_completion_us);
}

} // namespace workload
} // namespace dream
