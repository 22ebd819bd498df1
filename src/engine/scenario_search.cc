#include "engine/scenario_search.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <set>

#include "engine/engine.h"
#include "engine/sweep_grid.h"
#include "workload/rng.h"
#include "workload/scenario_suite.h"

namespace dream {
namespace engine {

namespace {

/** Neighbours drawn per hill-climbing round. */
constexpr int kNeighbors = 8;
/** Mutation-radius halvings before a start is abandoned. */
constexpr int kMaxShrinks = 3;

uint64_t
nextU64(uint64_t& state)
{
    state = workload::rng::splitmix64(state);
    return state;
}

double
clampTo(double v, double lo, double hi)
{
    return std::min(hi, std::max(lo, v));
}

ScenarioSearch::Options
validated(ScenarioSearch::Options opts)
{
    assert(opts.budget > 0 && opts.starts > 0);
    assert(opts.windowUs > 0.0);
    std::string why;
    if (!workload::validateGenSpec(opts.base, &why)) {
        assert(false && "ScenarioSearch base spec invalid");
    }
    return opts;
}

/** The engine-backed evaluator: one SweepGrid batch per call. */
ScenarioSearch::BatchEvalFn
makeEngineEvaluator(const ScenarioSearch::Options& opts)
{
    return [opts](const std::vector<
               std::pair<workload::ScenarioGenSpec, uint64_t>>& pts) {
        SweepGrid grid;
        for (size_t i = 0; i < pts.size(); ++i) {
            const workload::ScenarioGenSpec spec = pts[i].first;
            const uint64_t seed = pts[i].second;
            grid.addScenario("cand" + std::to_string(i),
                             [spec, seed]() {
                                 const workload::ScenarioGenerator
                                     gen(spec);
                                 return gen.generate(seed);
                             });
        }
        grid.addSystem(opts.system);
        grid.addScheduler(opts.scheduler);
        const bool baseline =
            opts.scheduler != runner::SchedKind::Fcfs;
        if (baseline)
            grid.addScheduler(runner::SchedKind::Fcfs);
        grid.seeds({opts.simSeed});
        grid.window(opts.windowUs);

        const Engine engine(EngineOptions(opts.jobs));
        const std::vector<RunRecord> records = engine.run(grid);
        // Flat order: scenario slowest, scheduler next, seed fastest
        // — candidate i owns records [i*per, i*per + per).
        const size_t per = baseline ? 2 : 1;
        assert(records.size() == pts.size() * per);
        std::vector<std::pair<double, double>> out(pts.size());
        for (size_t i = 0; i < pts.size(); ++i) {
            const double target = records[i * per].uxCost;
            const double fcfs =
                baseline ? records[i * per + 1].uxCost : target;
            out[i] = {target, fcfs};
        }
        return out;
    };
}

} // anonymous namespace

ScenarioSearch::ScenarioSearch(Options opts)
    : opts_(validated(opts)), evaluate_(makeEngineEvaluator(opts_))
{
}

ScenarioSearch::ScenarioSearch(BatchEvalFn evaluate, Options opts)
    : opts_(validated(opts)), evaluate_(std::move(evaluate))
{
}

std::vector<ScenarioSearch::Candidate>
ScenarioSearch::memoizedBatch(
    const std::vector<std::pair<workload::ScenarioGenSpec, uint64_t>>&
        pts)
{
    // Resolve each point against the transposition table; the first
    // in-batch occurrence of a missing identity simulates, duplicates
    // read the table afterwards (so simulations() == tableSize()
    // always holds). Points beyond the simulation budget are dropped.
    std::vector<CandidateKey> keys(pts.size());
    std::vector<char> resolved(pts.size(), 0);
    std::vector<size_t> need;
    std::set<CandidateKey> in_batch;
    const uint64_t budget = uint64_t(opts_.budget);
    for (size_t i = 0; i < pts.size(); ++i) {
        keys[i] = {workload::serializeGenSpec(pts[i].first),
                   pts[i].second};
        if (table_.count(keys[i])) {
            ++hits_;
            resolved[i] = 1;
        } else if (in_batch.insert(keys[i]).second) {
            if (simulations_ + need.size() < budget) {
                need.push_back(i);
                resolved[i] = 1;
            } else {
                in_batch.erase(keys[i]); // over budget: dropped
            }
        } else {
            ++hits_;
            resolved[i] = 1;
        }
    }
    if (!need.empty()) {
        std::vector<std::pair<workload::ScenarioGenSpec, uint64_t>>
            sub;
        sub.reserve(need.size());
        for (const size_t i : need)
            sub.push_back(pts[i]);
        const auto costs = evaluate_(sub);
        assert(costs.size() == sub.size());
        simulations_ += need.size();
        for (size_t k = 0; k < need.size(); ++k) {
            Candidate c;
            c.spec = sub[k].first;
            c.genSeed = sub[k].second;
            c.uxTarget = costs[k].first;
            c.uxBaseline = costs[k].second;
            c.value = opts_.goal == Goal::MaxGap
                          ? c.uxTarget - c.uxBaseline
                          : c.uxTarget;
            table_.emplace(keys[need[k]], c);
            evaluated_.push_back(c);
        }
    }
    std::vector<Candidate> out;
    out.reserve(pts.size());
    for (size_t i = 0; i < pts.size(); ++i) {
        if (resolved[i])
            out.push_back(table_.at(keys[i]));
    }
    return out;
}

std::pair<workload::ScenarioGenSpec, uint64_t>
ScenarioSearch::mutate(const workload::ScenarioGenSpec& spec,
                       uint64_t genSeed, double radius,
                       uint64_t& rng) const
{
    using workload::rng::nextUniform;
    workload::ScenarioGenSpec s = spec;

    // The generation seed is the cheapest axis of variation — a
    // reroll lands on an entirely different mix of the same flavour —
    // so it mutates most often.
    if (nextUniform(rng) < 0.5)
        genSeed = nextU64(rng);

    const auto step = [&](double scale) {
        return (2.0 * nextUniform(rng) - 1.0) * radius * scale;
    };

    if (nextUniform(rng) < 0.35)
        s.targetLoad = clampTo(s.targetLoad + step(4.0), 0.0, 12.0);
    if (nextUniform(rng) < 0.35) {
        s.supernetProb = s.supernetProb < 0.0
                             ? nextUniform(rng)
                             : clampTo(s.supernetProb + step(1.0),
                                       0.0, 1.0);
    }
    if (nextUniform(rng) < 0.35) {
        const double v = s.skipProbMin < 0.0
                             ? 0.9 * nextUniform(rng)
                             : clampTo(s.skipProbMin + step(0.5),
                                       0.0, 0.95);
        s.skipProbMin = s.skipProbMax = v;
    }
    if (nextUniform(rng) < 0.35) {
        const double v = s.exitProbMin < 0.0
                             ? 0.9 * nextUniform(rng)
                             : clampTo(s.exitProbMin + step(0.5),
                                       0.0, 0.95);
        s.exitProbMin = s.exitProbMax = v;
    }
    if (nextUniform(rng) < 0.35)
        s.chainProb = clampTo(s.chainProb + step(0.5), 0.0, 1.0);
    if (nextUniform(rng) < 0.35)
        s.activationProb =
            clampTo(s.activationProb + step(0.5), 0.0, 1.0);
    if (nextUniform(rng) < 0.35)
        s.minTriggerProb = clampTo(s.minTriggerProb + step(0.5),
                                   0.05, s.maxTriggerProb);
    if (nextUniform(rng) < 0.35) {
        const int delta =
            int((2.0 * nextUniform(rng) - 1.0) * radius * 3.0);
        s.maxTasks = std::min(12, std::max(s.minTasks,
                                           s.maxTasks + delta));
    }
    return {s, genSeed};
}

ScenarioSearch::Candidate
ScenarioSearch::climbFrom(const Candidate& start, uint64_t& rng)
{
    Candidate cur = start;
    double radius = 1.0;
    int shrinks = 0;
    while (shrinks < kMaxShrinks &&
           simulations_ < uint64_t(opts_.budget)) {
        std::vector<std::pair<workload::ScenarioGenSpec, uint64_t>>
            batch;
        batch.reserve(size_t(kNeighbors));
        for (int n = 0; n < kNeighbors; ++n)
            batch.push_back(
                mutate(cur.spec, cur.genSeed, radius, rng));
        const std::vector<Candidate> results = memoizedBatch(batch);
        if (results.empty())
            break;
        const Candidate* best = &results.front();
        for (const Candidate& c : results) {
            if (c.value > best->value)
                best = &c;
        }
        if (best->value > cur.value) {
            cur = *best;
        } else {
            radius *= 0.5;
            ++shrinks;
        }
    }
    return cur;
}

ScenarioSearch::Result
ScenarioSearch::run()
{
    uint64_t rng = opts_.searchSeed;

    // Depth-0 pass: probe every start in ONE memoized batch. Start 0
    // is the base spec itself; the rest scatter across the knob
    // space (radius 1 mutations of the base, which jump disabled
    // knobs to fresh uniform draws).
    std::vector<std::pair<workload::ScenarioGenSpec, uint64_t>>
        starts;
    starts.reserve(size_t(opts_.starts));
    starts.emplace_back(opts_.base, nextU64(rng));
    for (int s = 1; s < opts_.starts; ++s) {
        auto cand = mutate(opts_.base, 0, 1.0, rng);
        cand.second = nextU64(rng); // always a fresh mix
        starts.push_back(std::move(cand));
    }
    const std::vector<Candidate> probes = memoizedBatch(starts);

    // Best-first exploration (ties: start order), with the
    // ParamSearch dominance cut mirrored for maximization: a start
    // whose probe value is already below a completed climb's optimum
    // is pruned.
    std::vector<size_t> order(probes.size());
    std::iota(order.begin(), order.end(), size_t(0));
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return probes[a].value > probes[b].value;
                     });

    bool have = false;
    double incumbent = 0.0;
    for (const size_t k : order) {
        if (simulations_ >= uint64_t(opts_.budget))
            break;
        if (have && probes[k].value < incumbent) {
            ++pruned_;
            continue;
        }
        const Candidate c = climbFrom(probes[k], rng);
        if (!have || c.value > incumbent)
            incumbent = c.value;
        have = true;
    }

    // The frontier is every distinct candidate ever evaluated,
    // hardest first. Sorting the evaluation-order list (never the
    // key-ordered memo) keeps ties in evaluation order.
    Result result;
    result.frontier = evaluated_;
    std::stable_sort(result.frontier.begin(), result.frontier.end(),
                     [](const Candidate& a, const Candidate& b) {
                         return a.value > b.value;
                     });
    if (!result.frontier.empty())
        result.best = result.frontier.front();
    return result;
}

} // namespace engine
} // namespace dream
