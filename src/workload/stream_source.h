/**
 * @file
 * The serving intake queue. Producers push root frames into a
 * StreamSource one at a time and close it; serve::Cluster then drains
 * it once and offers each frame straight to its device's serve loop.
 * It is not an ArrivalSource: the frames it holds are consumed, never
 * re-listed. Cascade children materialise through source(), the
 * FrameSource (generative) or ReplaySource (replay) the intake was
 * built over.
 */

#ifndef DREAM_WORKLOAD_STREAM_SOURCE_H
#define DREAM_WORKLOAD_STREAM_SOURCE_H

#include <deque>

#include "workload/frame_source.h"

namespace dream {
namespace workload {

/**
 * Queue of root frames, filled before serving starts.
 *
 * Producers push() frames in nondecreasing arrival order and close()
 * the stream when done; the consumer (serve::Cluster) then takes
 * them all with drain(). Nothing blocks and nothing is shared across
 * threads: frames carry their own virtual arrival times, so serving
 * does not depend on when they were pushed.
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

    /** Move the queue out: every frame, in push order. Throws
     *  std::logic_error before close(). */
    std::deque<FrameSpec> drain();

private:
    const ArrivalSource* source_;
    std::deque<FrameSpec> queue_;
    double lastArrivalUs_ = 0.0;
    bool closed_ = false;
};

} // namespace workload
} // namespace dream

#endif // DREAM_WORKLOAD_STREAM_SOURCE_H
