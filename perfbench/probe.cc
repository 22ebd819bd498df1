#include "probe.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.h"
#include "obs/trace_event.h"

namespace perfbench {

namespace {

/** RSS is sampled once per this many plan calls of one probe. */
constexpr uint64_t kRssSampleEvery = 4096;

void
raiseMax(std::atomic<double>& slot, double value)
{
    double seen = slot.load();
    while (value > seen && !slot.compare_exchange_weak(seen, value)) {
    }
}

} // anonymous namespace

const char*
toString(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Setup:
        return "setup";
      case SpanKind::Generate:
        return "workload.generate";
      case SpanKind::Acquire:
        return "costmodel.acquire";
      case SpanKind::Materialise:
        return "workload.materialise";
      case SpanKind::Rep:
        return "rep";
      case SpanKind::Point:
        return "engine.point";
      case SpanKind::PointSetup:
        return "engine.point_setup";
      case SpanKind::ClusterRun:
        return "serve.cluster_run";
      case SpanKind::Decision:
        return "sched.decision";
      case SpanKind::Plan:
        return "sched.plan";
    }
    return "?";
}

void
SpanLog::add(const Span& span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
}

bool
SpanLog::claimDetail()
{
    // Once the budget is spent this is a plain load, so probes on
    // several threads do not contend for the counter.
    size_t left = detailLeft_.load(std::memory_order_relaxed);
    while (left > 0 &&
           !detailLeft_.compare_exchange_weak(left, left - 1)) {
    }
    return left > 0;
}

void
SpanLog::addDetail(const std::vector<Span>& spans, uint64_t dropped)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
    dropped_ += dropped;
}

size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
SpanLog::write(const std::string& path, int64_t origin_ns,
               const std::string& label) const
{
    std::vector<Span> sorted;
    {
        std::lock_guard<std::mutex> lock(mu_);
        sorted = spans_;
    }
    // Per-track start order, parents before their children, so every
    // track's timestamps are non-decreasing (dream_prof --check).
    std::sort(sorted.begin(), sorted.end(),
              [](const Span& a, const Span& b) {
                  if (a.track != b.track)
                      return a.track < b.track;
                  if (a.startNs != b.startNs)
                      return a.startNs < b.startNs;
                  return a.endNs > b.endNs;
              });

    dream::obs::TraceEventSink sink(0);
    sink.processName("perfbench " + label);
    sink.threadName(0, "benchmark");
    uint32_t named = 0;
    for (const Span& s : sorted) {
        if (s.track > named) {
            named = s.track;
            sink.threadName(s.track, "track " + std::to_string(s.track));
        }
        dream::obs::TraceArgs args;
        if (s.id)
            args.integer("id", s.id);
        args.integer("parent", s.parent);
        if (s.decision)
            args.integer("decision", s.decision);
        // The category is the layer: the name's prefix before '.'.
        const std::string name = toString(s.kind);
        const size_t dot = name.find('.');
        const std::string cat =
            dot == std::string::npos ? "bench" : name.substr(0, dot);
        sink.span(s.track, name, cat,
                  double(s.startNs - origin_ns) * 1e-3,
                  double(s.endNs - s.startNs) * 1e-3, args);
    }
    std::ofstream out(path);
    if (!out.is_open())
        return false;
    sink.writeJson(out);
    return bool(out);
}

std::vector<Span>
SpanLog::spans(SpanKind kind) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const Span& s : spans_) {
        if (s.kind == kind)
            out.push_back(s);
    }
    return out;
}

void
Tracer::startRss()
{
    trimHeap();
    rssStartKb = currentRssKb();
    rssMaxKb = rssStartKb;
}

void
PlanStats::merge(const PlanStats& o)
{
    calls += o.calls;
    nonEmpty += o.nonEmpty;
    decisions += o.decisions;
    dispatches += o.dispatches;
    drops += o.drops;
    switches += o.switches;
    liveSum += o.liveSum;
    readySum += o.readySum;
    liveMax = std::max(liveMax, o.liveMax);
    planNs += o.planNs;
    gapNs += o.gapNs;
    planSamples.insert(planSamples.end(), o.planSamples.begin(),
                       o.planSamples.end());
    gapSamples.insert(gapSamples.end(), o.gapSamples.begin(),
                      o.gapSamples.end());
    decisionSamples.insert(decisionSamples.end(),
                           o.decisionSamples.begin(),
                           o.decisionSamples.end());
}

uint32_t
threadTrack()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t track = next.fetch_add(1) + 1;
    return track;
}

ProbeScheduler::ProbeScheduler(
    std::unique_ptr<dream::sim::Scheduler> inner, Tracer& tracer,
    uint32_t parent, uint32_t track, bool capture)
    : inner_(std::move(inner)), tracer_(tracer), parent_(parent),
      track_(track), capture_(capture)
{}

ProbeScheduler::~ProbeScheduler()
{
    tracer_.spans.addDetail(detail_, dropped_);
    if (closePoint_) {
        point_.endNs = nowNs();
        tracer_.spans.add(point_);
    }
    std::lock_guard<std::mutex> lock(tracer_.mu);
    tracer_.plans.merge(stats_);
}

void
ProbeScheduler::closeOnDestroy(const Span& point)
{
    point_ = point;
    closePoint_ = true;
}

void
ProbeScheduler::reset(const dream::sim::SchedulerContext& ctx)
{
    inner_->reset(ctx);
}

dream::sim::Plan
ProbeScheduler::plan(const dream::sim::SchedulerContext& ctx)
{
    const int64_t t0 = nowNs();
    dream::sim::Plan plan = inner_->plan(ctx);
    const int64_t t1 = nowNs();
    observe(ctx, plan, t0, t1);
    return plan;
}

void
ProbeScheduler::observe(const dream::sim::SchedulerContext& ctx,
                        const dream::sim::Plan& plan, int64_t t0,
                        int64_t t1)
{
    PlanStats& s = stats_;
    s.calls += 1;
    s.planNs += double(t1 - t0);
    s.planSamples.push_back(float(t1 - t0));
    const size_t live = ctx.live.size();
    s.liveSum += live;
    s.readySum += ctx.ready.size();
    s.liveMax = std::max<uint64_t>(s.liveMax, live);
    s.dispatches += plan.dispatches.size();
    s.drops += plan.drops.size();
    s.switches += plan.switches.size();

    const auto keep = [&](const Span& span) {
        if (tracer_.spans.claimDetail())
            detail_.push_back(span);
        else
            ++dropped_;
    };
    if (!inDecision_) {
        inDecision_ = true;
        decisionId_ = tracer_.spans.newId();
        decisionStartNs_ = t0;
        s.decisions += 1;
    } else {
        const double gap = double(t0 - lastEndNs_);
        s.gapNs += gap;
        s.gapSamples.push_back(float(gap));
    }
    keep({t0, t1, 0, decisionId_, decisionId_, track_, SpanKind::Plan});
    if (plan.empty()) {
        // The simulator stops re-invoking on an empty plan: the
        // scheduling event is over.
        s.decisionSamples.push_back(float(t1 - decisionStartNs_));
        keep({decisionStartNs_, t1, decisionId_, parent_, decisionId_,
              track_, SpanKind::Decision});
        inDecision_ = false;
    } else {
        s.nonEmpty += 1;
        lastEndNs_ = t1;
    }

    if (s.calls % kRssSampleEvery == 0)
        raiseMax(tracer_.rssMaxKb, currentRssKb());
    if (capture_ && tracer_.capture && live >= nextCaptureLive_) {
        tracer_.capture(ctx);
        while (nextCaptureLive_ <= live)
            nextCaptureLive_ *= 2;
    }
}

void
reportSpans(const Options& opts, const SpanLog& log, int64_t origin_ns,
            const std::string& label, Outcome& out)
{
    out.values["bench.spans"] = double(log.size());
    if (opts.spanFile.empty())
        return;
    out.gate(log.write(opts.spanFile, origin_ns, label),
             "cannot write span file " + opts.spanFile);
    std::printf("spans: %zu written to %s (%llu plan/decision spans "
                "past the in-memory budget counted, not kept)\n",
                log.size(), opts.spanFile.c_str(),
                (unsigned long long) log.detailDropped());
}

void
planValues(const PlanStats& p, double wall_ns, double workers, Values& v)
{
    const double calls = double(std::max<uint64_t>(p.calls, 1));
    v["sched.plan_calls"] = double(p.calls);
    v["sched.plan_ns_p50"] = quantile(p.planSamples, 0.5);
    v["sched.plan_ns_p99"] = quantile(p.planSamples, 0.99);
    v["sched.busy_frac"] = p.planNs / (wall_ns * workers);
    v["sched.decisions"] = double(p.decisions);
    v["sched.decision_us_p50"] = quantile(p.decisionSamples, 0.5) * 1e-3;
    v["sched.decision_us_p99"] = quantile(p.decisionSamples, 0.99) * 1e-3;
    v["sched.rounds_per_decision"] =
        double(p.calls) / double(std::max<uint64_t>(p.decisions, 1));
    v["sched.useful_round_frac"] = double(p.nonEmpty) / calls;
    v["sched.live_mean"] = double(p.liveSum) / calls;
    v["sched.live_max"] = double(p.liveMax);
    v["sched.ready_mean"] = double(p.readySum) / calls;
    v["sched.dispatches"] = double(p.dispatches);
    v["sched.drops"] = double(p.drops);
    v["sched.switches"] = double(p.switches);
    v["sim.round_gaps"] = double(p.gapSamples.size());
    v["sim.round_gap_ns_p50"] = quantile(p.gapSamples, 0.5);
    v["sim.round_gap_ns_p99"] = quantile(p.gapSamples, 0.99);
    v["sim.gap_frac"] = p.gapNs / (wall_ns * workers);
}

} // namespace perfbench
