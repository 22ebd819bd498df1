/**
 * @file
 * Streaming arrival source: the third ArrivalSource implementation.
 * Where FrameSource materialises a whole window up front and
 * ReplaySource re-injects a recorded trace, StreamSource is fed one
 * frame at a time through a thread-safe ingest queue — the seam a
 * long-running serve loop (tools/dream_serve) pushes live traffic
 * through. Cascade children are delegated to a wrapped source so
 * generative dynamicity (FrameSource) and replay (ReplaySource) both
 * work unchanged behind it.
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
 * Producer/consumer frame queue behind the ArrivalSource interface.
 *
 * Producers push() frames in nondecreasing arrival order and close()
 * the stream when done; the consumer (a serve loop) drains them and
 * offers each to the simulator. rootFrames() snapshots the currently
 * queued frames without consuming them, so a StreamSource whose
 * whole load was pushed up front is a drop-in offline source too.
 *
 * The queue is mutex-guarded (const-thread-safe like its siblings);
 * determinism is preserved regardless of producer timing because
 * frames carry their own virtual arrival times and must be pushed in
 * order.
 */
class StreamSource : public ArrivalSource {
public:
    /** @p delegate materialises cascade children (and must outlive
     *  this source); the caller keeps ownership. */
    explicit StreamSource(const ArrivalSource& delegate);

    /**
     * Queue one externally-released frame. Throws
     * std::invalid_argument when @p frame arrives before the last
     * pushed frame, std::logic_error after close().
     */
    void push(FrameSpec frame);

    /** Mark the end of the stream; further push() calls throw. */
    void close();

    bool closed() const;

    /** Frames currently queued (pushed, not yet drained). */
    size_t pending() const;

    /** Pop every currently queued frame, without blocking. Frames
     *  are moved out of the queue, not copied. */
    std::vector<FrameSpec> drain();

    /**
     * Block until at least one frame is queued or the stream is
     * closed, then pop everything queued. An empty result therefore
     * means end-of-stream.
     */
    std::vector<FrameSpec> waitDrain();

    /** Snapshot of queued frames with arrival inside [0, window). */
    std::vector<FrameSpec> rootFrames(double window_us) const override;

    /** Delegated to the wrapped source. */
    FrameSpec childFrame(TaskId child, int frame_idx,
                         double parent_arrival_us,
                         double parent_completion_us) const override;

private:
    /** Move every queued frame out; the caller holds mu_. */
    std::vector<FrameSpec> takeQueued();

    const ArrivalSource* delegate_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<FrameSpec> queue_;
    double lastArrivalUs_ = 0.0;
    bool closed_ = false;
};

} // namespace workload
} // namespace dream

#endif // DREAM_WORKLOAD_STREAM_SOURCE_H
