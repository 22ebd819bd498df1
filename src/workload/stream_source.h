/**
 * @file
 * The serving intake queue. Producers push root frames into a
 * StreamSource one at a time; serve::Cluster drains it and offers
 * each frame straight to its device's serve loop. It is not an
 * ArrivalSource: the frames it holds are consumed, never re-listed.
 * Cascade children materialise through source(), the FrameSource
 * (generative) or ReplaySource (replay) the intake was built over.
 */

#ifndef DREAM_WORKLOAD_STREAM_SOURCE_H
#define DREAM_WORKLOAD_STREAM_SOURCE_H

#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "workload/frame_source.h"

namespace dream {
namespace workload {

/**
 * Producer/consumer queue of root frames.
 *
 * Producers push() frames in nondecreasing arrival order and close()
 * the stream when done; the consumer (serve::Cluster) drains them
 * with waitDrain() until it returns empty. The queue is
 * mutex-guarded; determinism holds regardless of producer timing
 * because frames carry their own virtual arrival times and must be
 * pushed in order.
 */
class StreamSource {
public:
    /** @p source materialises cascade children (and must outlive
     *  this queue); the caller keeps ownership. */
    explicit StreamSource(const ArrivalSource& source);

    /** The source cascade children materialise through. */
    const ArrivalSource& source() const { return *source_; }

    /**
     * Queue one externally-released frame. Throws
     * std::invalid_argument when @p frame arrives before the last
     * pushed frame, std::logic_error after close().
     */
    void push(FrameSpec frame);

    /** Mark the end of the stream; further push() calls throw. */
    void close();

    /**
     * Block until at least one frame is queued or the stream is
     * closed, then move everything queued out. An empty result
     * therefore means end-of-stream.
     */
    std::vector<FrameSpec> waitDrain();

private:
    const ArrivalSource* source_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<FrameSpec> queue_;
    double lastArrivalUs_ = 0.0;
    bool closed_ = false;
};

} // namespace workload
} // namespace dream

#endif // DREAM_WORKLOAD_STREAM_SOURCE_H
