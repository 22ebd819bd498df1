/**
 * @file
 * The two serving workloads, both through serve::Cluster the way
 * tools/dream_serve drives it: set-up generates the session mix,
 * acquires its cost table and fills the intake with every root frame;
 * the timed call is Cluster::run, which drains the intake as fast as
 * the host allows (open loop in virtual time, single thread).
 *
 *  overload  the stock generated mix (generator seed 11) at 4x rate
 *            on one device under DREAM-Full, admission off, 20 s
 *            window — the backlog, and with it the live set, grows
 *            through the whole run;
 *  cluster   a fourteen-session bursty mix with Supernet tasks on
 *            four devices behind finish_time_fairness routing, with a
 *            queue bound and a backlog bound that degrades — frames
 *            are admitted, degraded and rejected, live sets stay
 *            small and the serve layer's own work shows.
 *
 * --seed is the simulation seed (per-frame skip, exit and cascade
 * draws). The mixes' generator seeds are fixed: a generated mix's
 * load swings from idle to many times overloaded with its generator
 * seed, which would make seeds incomparable.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "costmodel/cost_table_cache.h"
#include "engine/engine.h"
#include "engine/result_sink.h"
#include "metrics/uxcost.h"
#include "micro.h"
#include "obs/metrics.h"
#include "probe.h"
#include "runner/experiment.h"
#include "runner/table.h"
#include "runner/trace.h"
#include "serve/cluster.h"
#include "workload/scenario_gen.h"
#include "workload/stream_source.h"

namespace perfbench {

using namespace dream;

namespace {

struct ServeWorkload {
    std::string name;
    workload::ScenarioGenSpec spec;
    uint64_t genSeed = 11;
    double rateScale = 1.0;
    double windowUs = 2e6;
    size_t devices = 1;
    serve::AdmissionConfig admission;
    /** Gate: the served stats equal an offline Simulator::run. */
    bool verifyOffline = false;
    /** Gate: offered = admitted + degraded + rejected = roots, each
     *  outcome above zero. */
    bool checkTallies = false;
};

ServeWorkload
overloadWorkload()
{
    // dream_serve --gen default --rate-scale 4 --window 2e7
    ServeWorkload w;
    w.name = "overload";
    w.genSeed = 11;
    w.rateScale = 4.0;
    w.windowUs = 2e7;
    w.devices = 1;
    w.verifyOffline = true;
    return w;
}

ServeWorkload
clusterWorkload()
{
    // bench/cluster_route's bursty14 mix with Supernet tasks present,
    // at 3x rate over a 4 s window: enough load that the queue bound
    // rejects and the backlog bound degrades the Supernet sessions.
    ServeWorkload w;
    w.name = "cluster";
    w.rateScale = 3.0;
    w.windowUs = 4e6;
    w.spec.minTasks = 14;
    w.spec.maxTasks = 14;
    w.spec.chainProb = 0.3;
    w.spec.minFps = 10.0;
    w.spec.activationProb = 0.6;
    w.spec.horizonUs = w.windowUs;
    w.spec.supernetProb = 0.5;
    w.genSeed = 5;
    w.devices = kClusterDevices;
    w.admission = clusterAdmission();
    w.checkTallies = true;
    return w;
}

/** Everything set-up produces; the timed call consumes the intake. */
struct ServeState {
    workload::Scenario scenario;
    hw::SystemConfig system;
    std::shared_ptr<const cost::CostTable> costs;
    std::unique_ptr<workload::FrameSource> source;
    /** Root frames in arrival order. */
    std::vector<workload::FrameSpec> roots;
    std::unique_ptr<workload::StreamSource> intake;
};

struct SetupTimes {
    double totalS = 0.0;
    double generateMs = 0.0;
    double acquireMs = 0.0;
    double materialiseMs = 0.0;
};

/** One full set-up from a cold cost-table cache. */
SetupTimes
setUp(const ServeWorkload& w, uint64_t seed, ServeState& st,
      SpanLog* log)
{
    st = ServeState{};
    cost::CostTableCache::global().clear();
    const auto span = [&](SpanKind kind, int64_t t0, int64_t t1,
                          uint32_t parent) {
        if (log)
            log->add({t0, t1, 0, parent, 0, 0, kind});
    };
    const uint32_t setup_id = log ? log->newId() : 0;
    const int64_t t0 = nowNs();

    st.scenario =
        workload::ScenarioGenerator(w.spec).generate(w.genSeed);
    if (w.rateScale != 1.0) {
        for (auto& task : st.scenario.tasks)
            task.fps *= w.rateScale;
    }
    st.system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const int64_t t1 = nowNs();

    st.costs = cost::acquireCostTable(st.system, st.scenario);
    const int64_t t2 = nowNs();

    st.source = std::make_unique<workload::FrameSource>(st.scenario, seed);
    st.roots = rootsInArrivalOrder(*st.source, w.windowUs);
    st.intake = std::make_unique<workload::StreamSource>(*st.source);
    for (const auto& frame : st.roots)
        st.intake->push(frame);
    st.intake->close();
    const int64_t t3 = nowNs();

    span(SpanKind::Generate, t0, t1, setup_id);
    span(SpanKind::Acquire, t1, t2, setup_id);
    span(SpanKind::Materialise, t2, t3, setup_id);
    if (log)
        log->add({t0, t3, setup_id, 0, 0, 0, SpanKind::Setup});
    return {secondsBetween(t0, t3), (t1 - t0) * 1e-6, (t2 - t1) * 1e-6,
            (t3 - t2) * 1e-6};
}

serve::ClusterConfig
clusterConfig(const ServeWorkload& w, uint64_t seed)
{
    serve::ClusterConfig c;
    c.devices = w.devices;
    c.router = serve::RouterPolicy::FinishTimeFairness;
    c.serve.windowUs = w.windowUs;
    c.serve.seed = seed;
    c.serve.admission = w.admission;
    c.serve.log = nullptr;
    return c;
}

/** Digest of a run's canonical outputs: the frame trace, the result
 *  row, admission tallies, routing and fairness. */
uint64_t
resultDigest(const serve::ClusterResult& r, const ServeState& st)
{
    std::ostringstream row;
    {
        engine::RunRecord record;
        engine::fillMetrics(record, r.stats);
        engine::CsvSink sink(row);
        sink.write(record);
        sink.close();
    }
    row << r.admission.offered << ',' << r.admission.admitted << ','
        << r.admission.degraded << ',' << r.admission.rejected << ','
        << runner::preciseDouble(r.fairnessSpread);
    for (const int d : r.assignment)
        row << ',' << d;
    return fnv1a(row.str(),
                 fnv1a(runner::frameTraceCsv(r.stats, st.scenario)));
}

/** Frames accounted for: RunStats frames plus admission rejects. */
double
framesAccounted(const serve::ClusterResult& r)
{
    return double(r.stats.totalFrames() + r.admission.rejected);
}

/** The timed Cluster::run over the intake set-up filled. Returns its
 *  host seconds. */
double
serveRep(const ServeWorkload& w, uint64_t seed, ServeState& st,
         const serve::Cluster::SchedulerFactory& make,
         obs::MetricsRegistry* metrics, serve::ClusterResult& out)
{
    serve::ClusterConfig config = clusterConfig(w, seed);
    config.serve.metrics = metrics;
    serve::Cluster cluster(st.system, st.scenario, *st.costs, config);
    const int64_t t0 = nowNs();
    out = cluster.run(make, *st.intake);
    const int64_t t1 = nowNs();
    st.intake.reset();
    return secondsBetween(t0, t1);
}

std::unique_ptr<sim::Scheduler>
makeDreamFull()
{
    return runner::makeScheduler(runner::SchedKind::DreamFull);
}

/** A Cluster::run with every device's scheduler wrapped in a probe. */
struct TracedRep {
    double seconds = 0.0;
    serve::ClusterResult result;
};

TracedRep
tracedRep(const ServeWorkload& w, uint64_t seed, ServeState& st,
          Tracer& tracer, bool capture)
{
    TracedRep rep;
    const uint32_t run_id = tracer.spans.newId();
    uint32_t device = 0;
    const auto make = [&]() -> std::unique_ptr<sim::Scheduler> {
        const uint32_t track = 1 + device;
        auto probe = std::make_unique<ProbeScheduler>(
            makeDreamFull(), tracer, run_id, track, capture);
        ++device;
        return probe;
    };
    tracer.startRss();
    const int64_t t0 = nowNs();
    rep.seconds = serveRep(w, seed, st, make, nullptr, rep.result);
    tracer.spans.add({t0, t0 + int64_t(rep.seconds * 1e9), run_id, 0, 0,
                      0, SpanKind::ClusterRun});
    // The result still holds every retained frame record.
    tracer.rssMaxKb = std::max(tracer.rssMaxKb.load(), currentRssKb());
    return rep;
}

/** End-to-end values every serve run reports from its stats. */
void
outcomeValues(const serve::ClusterResult& r, Values& v)
{
    v["uxcost"] = metrics::uxCost(r.stats);
    v["violation_rate"] =
        double(r.stats.totalViolated() + r.admission.rejected) /
        framesAccounted(r);
}

/** The per-layer values of the sim and serve layers. */
void
simServeValues(const serve::ClusterResult& r, const ServeWorkload& w,
               Values& v)
{
    const sim::RunStats& s = r.stats;
    v["sim.frames_retained"] = double(s.frames.size());
    double busy = 0.0;
    for (const double b : s.accelBusyUs)
        busy += b;
    v["sim.accel_util"] = busy / (w.windowUs * double(s.accelBusyUs.size()));
    v["sim.context_switches"] = double(s.contextSwitches);
    std::vector<double> latency;
    for (const auto& f : s.frames) {
        if (f.isCompleted())
            latency.push_back(f.completionUs - f.arrivalUs);
    }
    v["sim.latency_samples"] = double(latency.size());
    v["sim.frame_latency_us_p50"] = quantile(latency, 0.5);
    v["sim.frame_latency_us_p99"] = quantile(std::move(latency), 0.99);
    v["serve.admitted"] = double(r.admission.admitted);
    v["serve.degraded"] = double(r.admission.degraded);
    v["serve.rejected"] = double(r.admission.rejected);
    v["serve.fairness_spread"] = r.fairnessSpread;
}

Outcome
runServe(const ServeWorkload& w, const Options& opts)
{
    Outcome out;
    ServeState st;
    Tracer tracer; // the traced repetition and its set-up
    const int64_t origin_ns = nowNs();

    // Every repetition sets up afresh, so set-up is sampled across
    // the whole run like the timed call.
    std::vector<double> gen_ms, acq_ms, mat_ms;
    double tables_built = 0.0;
    const auto set_up = [&](SpanLog* log) {
        const SetupTimes t = setUp(w, opts.seed, st, log);
        tables_built = double(cost::CostTableCache::global().stats().misses);
        gen_ms.push_back(t.generateMs);
        acq_ms.push_back(t.acquireMs);
        mat_ms.push_back(t.materialiseMs);
        return t.totalS;
    };

    // The untraced repetitions; the first one is the reference every
    // other run must reproduce.
    serve::ClusterResult reference;
    bool have_reference = false;
    uint64_t reference_digest = 0;
    bool reps_agree = true;
    std::vector<double> setup_s;
    const auto untraced = [&] {
        setup_s.push_back(set_up(nullptr));
        serve::ClusterResult r;
        const double s =
            serveRep(w, opts.seed, st, makeDreamFull, nullptr, r);
        const uint64_t d = resultDigest(r, st);
        if (!have_reference) {
            have_reference = true;
            reference_digest = d;
            reference = std::move(r);
        } else {
            reps_agree = reps_agree && d == reference_digest;
        }
        return s;
    };
    // The traced run splits its time between plain, traced and
    // telemetry-hooked repetitions.
    const std::vector<Rep> plain =
        repeatFor(opts.trace ? opts.seconds * 0.4 : opts.seconds, 3,
                  untraced);
    const double run_s = medianCorrected(plain);
    printReps("timed calls", plain);
    const double frames = framesAccounted(reference);
    out.attempted = uint64_t(plain.size()) * reference.admission.offered;
    if (!opts.trace) {
        for (size_t i = 0; i < plain.size(); ++i)
            setup_s[i] /= plain[i].slowness;
        out.values["setup_s"] = median(setup_s);
        out.values["frames_per_s"] = frames / run_s;
        out.values["points_per_s"] = 1.0 / run_s;
        out.values["peak_rss_mb"] = peakRssMb();
        outcomeValues(reference, out.values);
    }

    // The micro timings' fixture is the largest context any device's
    // scheduler saw, captured as its live set doubled.
    LargestContext context;
    if (opts.trace)
        tracer.capture = [&](const sim::SchedulerContext& ctx) {
            context.offer(ctx);
        };
    // The traced repetitions: spans and per-layer values come from the
    // first; the end-to-end run makes just that one, as a gate.
    std::optional<TracedRep> first;
    const std::vector<Rep> traced_reps =
        repeatFor(opts.trace ? opts.seconds * 0.3 : 0.0, 1, [&] {
            Tracer spare;
            Tracer& t = first ? spare : tracer;
            set_up(opts.trace && !first ? &t.spans : nullptr);
            TracedRep r =
                tracedRep(w, opts.seed, st, t, opts.trace && !first);
            const double s = r.seconds;
            if (!first)
                first = std::move(r);
            return s;
        });
    const TracedRep& traced = *first;
    out.gate(resultDigest(traced.result, st) == reference_digest,
             w.name + ": traced run's results differ from the "
                      "untraced run's");
    out.gate(reps_agree, w.name + ": untraced repetitions disagree");

    if (w.verifyOffline) {
        // ARCHITECTURE.md invariant 5: serving the stream is the
        // offline batch run.
        sim::SimConfig config;
        config.windowUs = w.windowUs;
        config.seed = opts.seed;
        sim::Simulator offline(st.system, st.scenario, *st.costs, config);
        const auto sched = makeDreamFull();
        serve::ClusterResult batch;
        batch.stats = offline.run(*sched);
        batch.admission = reference.admission;
        batch.assignment = reference.assignment;
        batch.fairnessSpread = reference.fairnessSpread;
        out.gate(resultDigest(batch, st) == reference_digest,
                 w.name + ": served RunStats differ from the offline "
                          "Simulator::run");
    }
    if (w.checkTallies) {
        const serve::AdmissionStats& a = reference.admission;
        out.gate(a.offered == a.admitted + a.degraded + a.rejected &&
                     a.offered == st.roots.size(),
                 w.name + ": offered != admitted + degraded + "
                          "rejected != root frames");
        out.gate(a.admitted > 0 && a.degraded > 0 && a.rejected > 0,
                 w.name + ": an admission outcome never occurred");
    }
    if (!opts.trace)
        return out;

    // ----------------------------------------------- per-layer values
    Values& v = out.values;
    v["workload.generate_ms"] = median(gen_ms);
    v["workload.materialise_ms"] = median(mat_ms);
    v["workload.root_frames"] = double(st.roots.size());
    v["costmodel.acquire_ms"] = median(acq_ms);
    v["costmodel.tables_built"] = tables_built;
    // Cluster::run acquires no table: costmodel.hit_frac reads 0.
    const double wall_ns = traced.seconds * 1e9;
    const PlanStats& p = tracer.plans;
    planValues(p, wall_ns, 1.0, v);
    v["serve.self_frac"] = (wall_ns - p.planNs - p.gapNs) / wall_ns;
    simServeValues(traced.result, w, v);
    v["sim.rss_kb_per_frame"] =
        (tracer.rssMaxKb.load() - tracer.rssStartKb) /
        framesAccounted(traced.result);

    v["bench.trace_overhead"] = medianCorrected(traced_reps) / run_s;

    uint64_t hooked_digest = reference_digest;
    const std::vector<Rep> hooked =
        repeatFor(opts.seconds * 0.3, 1, [&] {
            set_up(nullptr);
            obs::MetricsRegistry registry;
            serve::ClusterResult r;
            const double s =
                serveRep(w, opts.seed, st, makeDreamFull, &registry, r);
            if (resultDigest(r, st) != reference_digest)
                hooked_digest = 0;
            return s;
        });
    v["obs.hooks_slowdown"] = medianCorrected(hooked) / run_s;
    out.gate(hooked_digest == reference_digest,
             w.name + ": telemetry hooks changed the results");

    // A point is one Cluster::run here: the serve path has no engine.
    std::vector<double> run_ms;
    for (const Rep& r : traced_reps)
        run_ms.push_back(r.seconds * 1e3);
    v["engine.points"] = double(run_ms.size());
    v["engine.point_ms_p50"] = quantile(run_ms, 0.5);
    v["engine.point_ms_p99"] = quantile(run_ms, 0.99);

    if (context.get()) {
        MicroFixture f;
        f.context = context.get();
        f.roots = &st.roots;
        f.windowUs = w.windowUs;
        f.violationRate = double(reference.stats.totalViolated()) /
                          double(reference.stats.totalFrames());
        microTimings(f, v);
    }

    reportSpans(opts, tracer.spans, origin_ns, w.name, out);
    return out;
}

} // anonymous namespace

Outcome
runOverload(const Options& opts)
{
    return runServe(overloadWorkload(), opts);
}

Outcome
runCluster(const Options& opts)
{
    return runServe(clusterWorkload(), opts);
}

} // namespace perfbench
