/**
 * @file
 * The traced run's instruments, all outside the program:
 *
 *  - SpanLog keeps named host-time spans (start, end, parent, id) in
 *    memory and writes them once, as Chrome trace-event JSON through
 *    obs::TraceEventSink, so Perfetto and `dream_prof --check` read
 *    the file.
 *  - ProbeScheduler is a forwarding sim::Scheduler. The benchmark
 *    hands it to the grid's and the cluster's scheduler factories, so
 *    it sees every Scheduler::plan call: it times the call, groups
 *    calls into decisions (first call of a scheduling event to the
 *    return of its last, empty call), measures the host gap between
 *    consecutive calls of one decision (the simulator applying the
 *    plan and rebuilding ready/live), and counts the plan contents.
 *    It returns the inner plan unchanged, so results are identical.
 */

#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "sim/scheduler.h"

namespace perfbench {

enum class SpanKind : uint8_t {
    Setup,       ///< one whole workload set-up
    Generate,    ///< scenario generation / preset build
    Acquire,     ///< cost::acquireCostTable
    Materialise, ///< FrameSource::rootFrames + intake push
    Rep,         ///< one timed repetition of the workload
    Point,       ///< one sweep grid point (factory to scheduler dtor)
    PointSetup,  ///< point start to the scheduler factory call
    ClusterRun,  ///< serve::Cluster::run
    Decision,    ///< one scheduling event (first to last plan call)
    Plan,        ///< one Scheduler::plan call
};

const char* toString(SpanKind kind);

struct Span {
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint32_t id = 0;     ///< 0 = leaf span nobody refers to
    uint32_t parent = 0; ///< 0 = root
    uint32_t decision = 0;
    uint32_t track = 0;
    SpanKind kind = SpanKind::Plan;
};

/**
 * Spans of one traced run. Structural spans (set-up, points, runs)
 * are always kept; decision and plan spans are kept up to a fixed
 * budget so a multi-million-call sweep stays small in memory. Every
 * call is still counted and timed in PlanStats either way.
 */
class SpanLog {
public:
    static constexpr size_t kDetailBudget = 120000;

    uint32_t newId() { return nextId_.fetch_add(1) + 1; }

    /** Keep one structural span (thread-safe). */
    void add(const Span& span);
    /** Claim room for one detail span; false once the budget is spent. */
    bool claimDetail();
    /** Keep a probe's buffered detail spans and count the ones it
     *  could not keep (thread-safe). */
    void addDetail(const std::vector<Span>& spans, uint64_t dropped);

    size_t size() const;
    /** Copies of the kept spans of @p kind. */
    std::vector<Span> spans(SpanKind kind) const;
    uint64_t detailDropped() const { return dropped_; }

    /**
     * Write every span, sorted by (track, start), as trace-event JSON:
     * ts/dur in host microseconds since @p origin_ns, args carry id,
     * parent and decision. Returns false on an I/O error.
     */
    bool write(const std::string& path, int64_t origin_ns,
               const std::string& label) const;

private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::atomic<uint32_t> nextId_{0};
    std::atomic<size_t> detailLeft_{kDetailBudget};
    uint64_t dropped_ = 0;
};

/** Counts and host timings of the plan calls one or more probes saw. */
struct PlanStats {
    uint64_t calls = 0;
    uint64_t nonEmpty = 0;
    uint64_t decisions = 0;
    uint64_t dispatches = 0;
    uint64_t drops = 0;
    uint64_t switches = 0;
    uint64_t liveSum = 0;
    uint64_t readySum = 0;
    uint64_t liveMax = 0;
    double planNs = 0.0; ///< summed plan() time
    double gapNs = 0.0;  ///< summed time between calls of a decision
    std::vector<float> planSamples;     ///< ns per call
    std::vector<float> gapSamples;      ///< ns per gap
    std::vector<float> decisionSamples; ///< ns per decision

    void merge(const PlanStats& other);
};

/** Shared state of one traced repetition. */
struct Tracer {
    SpanLog spans;
    std::mutex mu;
    PlanStats plans; ///< merged from every finished probe
    /** Resident set when the repetition started, after returning
     *  freed heap to the OS, and the highest one sampled while it ran
     *  (KB). */
    double rssStartKb = 0.0;
    std::atomic<double> rssMaxKb{0.0};

    /** Start the repetition's resident-set accounting. */
    void startRss();
    /** Called with the live context whenever a capturing probe's live
     *  set reaches a new power of two (micro-benchmark fixtures). */
    std::function<void(const dream::sim::SchedulerContext&)> capture;
};

/** The forwarding scheduler wrapper (see the file comment). */
class ProbeScheduler : public dream::sim::Scheduler {
public:
    /**
     * @p parent is the span the probe's decisions hang under and
     * @p track the trace-event track they are drawn on. When
     * @p point is set, destruction also closes that span (a sweep
     * point ends when the engine destroys its scheduler).
     */
    ProbeScheduler(std::unique_ptr<dream::sim::Scheduler> inner,
                   Tracer& tracer, uint32_t parent, uint32_t track,
                   bool capture = false);
    ~ProbeScheduler() override;

    /** Close @p point (already carrying start, id and parent) on
     *  destruction. */
    void closeOnDestroy(const Span& point);

    std::string name() const override { return inner_->name(); }
    void reset(const dream::sim::SchedulerContext& ctx) override;
    dream::sim::Plan
    plan(const dream::sim::SchedulerContext& ctx) override;

private:
    void observe(const dream::sim::SchedulerContext& ctx,
                 const dream::sim::Plan& plan, int64_t t0, int64_t t1);

    std::unique_ptr<dream::sim::Scheduler> inner_;
    Tracer& tracer_;
    uint32_t parent_;
    uint32_t track_;
    bool capture_;
    size_t nextCaptureLive_ = 1;
    PlanStats stats_;
    std::vector<Span> detail_;
    uint64_t dropped_ = 0;
    bool inDecision_ = false;
    uint32_t decisionId_ = 0;
    int64_t decisionStartNs_ = 0;
    int64_t lastEndNs_ = 0;
    bool closePoint_ = false;
    Span point_;
};

/** Trace-event track of the calling thread (1, 2, ... per thread). */
uint32_t threadTrack();

/**
 * Set bench.spans and, when @p opts names a span file, write @p log
 * to it (times relative to @p origin_ns); a failed write fails a gate.
 */
void reportSpans(const Options& opts, const SpanLog& log,
                 int64_t origin_ns, const std::string& label,
                 Outcome& out);

/**
 * The sched.* values and the sim round-gap values of @p p, for a
 * phase of @p wall_ns host time on @p workers threads.
 */
void planValues(const PlanStats& p, double wall_ns, double workers,
                Values& v);

} // namespace perfbench

#endif // PERFBENCH_PROBE_H
