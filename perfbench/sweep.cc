/**
 * @file
 * The sweep workload: the Figure 7 grid (5 Table 3 scenarios x 4
 * heterogeneous systems x 6 evaluation schedulers x 5 seeds) run by
 * engine::Engine on up to four workers, closed loop — a worker starts
 * its next point when the last one ends. Set-up builds the grid and
 * acquires the grid's 20 cost tables, so the timed phase runs with a
 * warm table cache, the way a long sweep spends most of its time.
 *
 * --seed is the first of the grid's five simulation seeds. Five,
 * not Figure 7's three, so one repetition is long enough that the
 * last points' tail on the workers stays a small share of it.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench.h"
#include "costmodel/cost_table_cache.h"
#include "engine/engine.h"
#include "engine/result_sink.h"
#include "micro.h"
#include "obs/metrics.h"
#include "probe.h"
#include "runner/experiment.h"
#include "runner/table.h"
#include "workload/frame_source.h"

namespace perfbench {

using namespace dream;

namespace {

int
workers()
{
    return std::clamp(int(std::thread::hardware_concurrency()), 1, 4);
}

/** The span a grid point opens in its scenario factory; the point's
 *  scheduler factory runs next on the same worker thread. */
struct OpenPoint {
    int64_t startNs = 0;
    uint32_t id = 0;
};
thread_local OpenPoint tlPoint;

/**
 * The Figure 7 grid. With a @p tracer, each scenario factory opens a
 * point span and each scheduler comes wrapped in a ProbeScheduler
 * that closes it; names stay those of the stock factories, so records
 * are identical either way.
 */
engine::SweepGrid
buildGrid(uint64_t seed, Tracer* tracer, uint32_t rep_id)
{
    engine::SweepGrid grid;
    for (const auto preset : workload::allScenarioPresets()) {
        if (!tracer) {
            grid.addScenario(preset);
            continue;
        }
        grid.addScenario(workload::toString(preset), [tracer, preset] {
            tlPoint = {nowNs(), tracer->spans.newId()};
            return workload::makeScenario(preset);
        });
    }
    for (const auto preset : hw::heterogeneousPresets())
        grid.addSystem(preset);
    for (const auto kind : runner::evaluationSchedulers()) {
        if (!tracer) {
            grid.addScheduler(kind);
            continue;
        }
        grid.addScheduler(
            runner::toString(kind),
            [tracer, kind, rep_id](const engine::ParamMap&)
                -> std::unique_ptr<sim::Scheduler> {
                const uint32_t track = threadTrack();
                const OpenPoint p = tlPoint;
                tracer->spans.add({p.startNs, nowNs(), 0, p.id, 0, track,
                                   SpanKind::PointSetup});
                // DREAM-Full points offer their contexts to the micro
                // timings' fixture when the tracer asks for them.
                auto probe = std::make_unique<ProbeScheduler>(
                    runner::makeScheduler(kind), *tracer, p.id, track,
                    kind == runner::SchedKind::DreamFull);
                probe->closeOnDestroy(
                    {p.startNs, 0, p.id, rep_id, 0, track,
                     SpanKind::Point});
                return probe;
            });
    }
    grid.seeds({seed, seed + 1, seed + 2, seed + 3, seed + 4})
        .window(runner::kDefaultWindowUs);
    return grid;
}

struct SetupTimes {
    double totalS = 0.0;
    double generateMs = 0.0;
    double acquireMs = 0.0;
};

/**
 * One full set-up from a cold cost-table cache: build the grid and
 * acquire every (system, scenario) table the grid will ask for.
 */
SetupTimes
setUp(uint64_t seed, engine::SweepGrid& grid,
      std::vector<std::shared_ptr<const cost::CostTable>>& tables,
      SpanLog* log)
{
    tables.clear();
    cost::CostTableCache::global().clear();
    const uint32_t setup_id = log ? log->newId() : 0;
    const int64_t t0 = nowNs();
    grid = buildGrid(seed, nullptr, 0);
    std::vector<workload::Scenario> scenarios;
    for (const auto preset : workload::allScenarioPresets())
        scenarios.push_back(workload::makeScenario(preset));
    std::vector<hw::SystemConfig> systems;
    for (const auto preset : hw::heterogeneousPresets())
        systems.push_back(hw::makeSystem(preset));
    const int64_t t1 = nowNs();
    for (const auto& system : systems) {
        for (const auto& scenario : scenarios)
            tables.push_back(cost::acquireCostTable(system, scenario));
    }
    const int64_t t2 = nowNs();
    if (log) {
        log->add({t0, t1, 0, setup_id, 0, 0, SpanKind::Generate});
        log->add({t1, t2, 0, setup_id, 0, 0, SpanKind::Acquire});
        log->add({t0, t2, setup_id, 0, 0, 0, SpanKind::Setup});
    }
    return {secondsBetween(t0, t2), (t1 - t0) * 1e-6, (t2 - t1) * 1e-6};
}

/** Digest of the records' exact --out CSV bytes. */
uint64_t
recordsDigest(const std::vector<engine::RunRecord>& records)
{
    std::ostringstream out;
    {
        engine::CsvSink sink(out);
        for (const auto& r : records)
            sink.write(r);
        sink.close();
    }
    return fnv1a(out.str());
}

/** Geomean UXCost of one scheduler's cells, or of every cell. */
double
geomeanUx(const std::vector<engine::AggregateSink::Cell>& cells,
          const std::string& scheduler = {})
{
    std::vector<double> ux;
    for (const auto& cell : cells) {
        if (scheduler.empty() || cell.scheduler == scheduler)
            ux.push_back(cell.uxCost.mean);
    }
    return runner::geomean(ux);
}

} // anonymous namespace

Outcome
runSweep(const Options& opts)
{
    Outcome out;
    const int jobs = workers();
    const int64_t origin_ns = nowNs();
    Tracer tracer; // the traced repetition and its set-up

    // Every repetition sets up afresh, so set-up is sampled across
    // the whole run like the timed sweep.
    engine::SweepGrid grid;
    std::vector<std::shared_ptr<const cost::CostTable>> tables;
    std::vector<double> gen_ms, acq_ms;
    double tables_built = 0.0;
    const auto set_up = [&](SpanLog* log) {
        const SetupTimes t = setUp(opts.seed, grid, tables, log);
        tables_built = double(cost::CostTableCache::global().stats().misses);
        gen_ms.push_back(t.generateMs);
        acq_ms.push_back(t.acquireMs);
        return t.totalS;
    };

    // The untraced repetitions; the first one is the reference every
    // other run must reproduce.
    const engine::Engine engine{engine::EngineOptions(jobs)};
    std::vector<engine::RunRecord> reference;
    uint64_t reference_digest = 0;
    bool reps_agree = true;
    std::vector<double> setup_s;
    const auto untraced = [&] {
        setup_s.push_back(set_up(nullptr));
        const int64_t t0 = nowNs();
        std::vector<engine::RunRecord> records = engine.run(grid);
        const double s = secondsBetween(t0, nowNs());
        const uint64_t d = recordsDigest(records);
        if (reference.empty()) {
            reference = std::move(records);
            reference_digest = d;
        } else {
            reps_agree = reps_agree && d == reference_digest;
        }
        return s;
    };
    // The traced run splits its time between plain, traced and
    // telemetry-hooked repetitions.
    const std::vector<Rep> plain =
        repeatFor(opts.trace ? opts.seconds * 0.4 : opts.seconds, 3,
                  untraced, jobs);
    const double run_s = medianCorrected(plain);
    printReps("timed calls", plain);
    out.attempted = uint64_t(plain.size()) * grid.size();

    double frames = 0.0, violated = 0.0;
    engine::AggregateSink cells_sink;
    for (const auto& r : reference) {
        frames += double(r.totalFrames);
        violated += double(r.violatedFrames);
        cells_sink.write(r);
    }
    const auto cells = cells_sink.cells();
    const double ux_full = geomeanUx(cells, "DREAM-Full");
    const double vs_planaria = 1.0 - ux_full / geomeanUx(cells, "Planaria");
    const double vs_veltair = 1.0 - ux_full / geomeanUx(cells, "Veltair");
    std::printf("metrics: DREAM-Full geomean UXCost reduction vs Planaria "
                "%.1f%% (paper 32.2%%), vs Veltair %.1f%% (paper 50.0%%); "
                "the simulator's cost model is not validated against "
                "hardware\n",
                100.0 * vs_planaria, 100.0 * vs_veltair);
    if (!opts.trace) {
        for (size_t i = 0; i < plain.size(); ++i)
            setup_s[i] /= plain[i].slowness;
        out.values["setup_s"] = median(setup_s);
        out.values["frames_per_s"] = frames / run_s;
        out.values["points_per_s"] = double(grid.size()) / run_s;
        out.values["peak_rss_mb"] = peakRssMb();
        out.values["uxcost"] = geomeanUx(cells);
        out.values["violation_rate"] = violated / frames;
    }

    // The traced repetitions: every scheduler wrapped, one span per
    // point. Spans and per-layer values come from the first; the
    // end-to-end run makes just that one, as a gate. The micro
    // timings' fixture is the largest context a DREAM-Full point saw.
    LargestContext context;
    if (opts.trace)
        tracer.capture = [&](const sim::SchedulerContext& ctx) {
            context.offer(ctx);
        };
    int64_t traced_ns = 0;
    uint64_t traced_digest = 0;
    cost::CostTableCache::Stats stats0, stats1;
    const std::vector<Rep> traced_reps =
        repeatFor(opts.trace ? opts.seconds * 0.3 : 0.0, 1, [&] {
            const bool first = traced_ns == 0;
            Tracer spare;
            Tracer& t = first ? tracer : spare;
            set_up(opts.trace && first ? &t.spans : nullptr);
            const uint32_t rep_id = t.spans.newId();
            const engine::SweepGrid traced_grid =
                buildGrid(opts.seed, &t, rep_id);
            const auto before = cost::CostTableCache::global().stats();
            t.startRss();
            const int64_t t0 = nowNs();
            const auto records = engine.run(traced_grid);
            const int64_t t1 = nowNs();
            t.spans.add({t0, t1, rep_id, 0, 0, 0, SpanKind::Rep});
            if (first) {
                traced_ns = t1 - t0;
                traced_digest = recordsDigest(records);
                stats0 = before;
                stats1 = cost::CostTableCache::global().stats();
            }
            return secondsBetween(t0, t1);
        },
        jobs);
    out.gate(traced_digest == reference_digest,
             "sweep: traced run's records differ from the untraced "
             "run's");
    out.gate(reps_agree, "sweep: untraced repetitions disagree");
    if (!opts.trace)
        return out;

    // ----------------------------------------------- per-layer values
    Values& v = out.values;
    v["workload.generate_ms"] = median(gen_ms);
    v["costmodel.acquire_ms"] = median(acq_ms);
    v["costmodel.tables_built"] = tables_built;
    const double hits = double(stats1.hits - stats0.hits);
    v["costmodel.hit_frac"] =
        hits / std::max(hits + double(stats1.misses - stats0.misses), 1.0);
    planValues(tracer.plans, double(traced_ns), double(jobs), v);
    v["sim.rss_kb_per_frame"] =
        (tracer.rssMaxKb.load() - tracer.rssStartKb) / frames;

    std::vector<double> point_ms;
    double point_ns = 0.0;
    for (const Span& s : tracer.spans.spans(SpanKind::Point)) {
        point_ms.push_back(double(s.endNs - s.startNs) * 1e-6);
        point_ns += double(s.endNs - s.startNs);
    }
    v["engine.points"] = double(point_ms.size());
    v["engine.point_ms_p50"] = quantile(point_ms, 0.5);
    v["engine.point_ms_p99"] = quantile(point_ms, 0.99);
    v["engine.busy_frac"] = point_ns / (double(traced_ns) * jobs);
    // The engine materialises every point's frames inside the point;
    // timed here for the grid's (scenario, seed) pairs on their own.
    double materialise_ns = 0.0, root_frames = 0.0;
    for (const auto preset : workload::allScenarioPresets()) {
        const workload::Scenario scenario = workload::makeScenario(preset);
        for (const uint64_t seed : grid.seedList()) {
            const int64_t t0 = nowNs();
            const workload::FrameSource source(scenario, seed);
            root_frames +=
                double(source.rootFrames(grid.windowUs()).size());
            materialise_ns += double(nowNs() - t0);
        }
    }
    v["workload.materialise_ms"] = materialise_ns * 1e-6;
    v["workload.root_frames"] = root_frames;
    v["metrics.reduction_vs_planaria"] = vs_planaria;
    v["metrics.reduction_vs_veltair"] = vs_veltair;

    v["bench.trace_overhead"] = medianCorrected(traced_reps) / run_s;

    // The program's own telemetry attached (EngineOptions::metrics).
    // Its deterministic simulator metrics also give the sim layer's
    // outcome values, which the engine's records do not carry.
    obs::MetricsRegistry hooks;
    bool hooked_agree = true;
    const std::vector<Rep> hooked =
        repeatFor(opts.seconds * 0.3, 1, [&] {
            set_up(nullptr);
            hooks = obs::MetricsRegistry{};
            engine::EngineOptions o(jobs);
            o.metrics = &hooks;
            const int64_t t0 = nowNs();
            const auto records = engine::Engine(o).run(grid);
            const double s = secondsBetween(t0, nowNs());
            hooked_agree =
                hooked_agree && recordsDigest(records) == reference_digest;
            return s;
        },
        jobs);
    v["obs.hooks_slowdown"] = medianCorrected(hooked) / run_s;
    out.gate(hooked_agree, "sweep: telemetry hooks changed the records");

    const auto counter = [&](const std::string& name) {
        const auto it = hooks.counters().find(name);
        return it == hooks.counters().end() ? 0.0 : double(it->second);
    };
    const auto ends_with = [](const std::string& s, const std::string& tail) {
        return s.size() >= tail.size() &&
               s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
    };
    double busy = 0.0, idle = 0.0;
    for (const auto& [name, value] : hooks.gauges()) {
        if (name.rfind("accel/", 0) != 0)
            continue;
        if (ends_with(name, "/busy_us"))
            busy += value;
        else if (ends_with(name, "/idle_us"))
            idle += value;
    }
    v["sim.frames_retained"] = counter("frames/admitted");
    v["sim.context_switches"] = counter("sim/context_switches");
    v["sim.accel_util"] = busy / (busy + idle);
    const auto& latency = hooks.histogram("frame/latency_us");
    v["sim.latency_samples"] = double(latency.count());
    v["sim.frame_latency_us_p50"] = latency.quantile(0.5);
    v["sim.frame_latency_us_p99"] = latency.quantile(0.99);

    if (const ContextSnapshot* snap = context.get()) {
        const std::vector<workload::FrameSpec> roots = rootsInArrivalOrder(
            workload::FrameSource(snap->scenario, opts.seed),
            grid.windowUs());
        MicroFixture f;
        f.context = snap;
        f.roots = &roots;
        f.windowUs = grid.windowUs();
        f.violationRate = violated / frames;
        microTimings(f, v);
    }

    reportSpans(opts, tracer.spans, origin_ns, "sweep", out);
    return out;
}

} // namespace perfbench
