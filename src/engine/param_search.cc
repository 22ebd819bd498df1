#include "engine/param_search.h"

#include <bit>
#include <cassert>
#include <set>

namespace dream {
namespace engine {

ParamSearch::ParamSearch(core::BatchCostFn evaluate)
    : evaluate_(std::move(evaluate))
{
}

std::vector<double>
ParamSearch::lookup(const std::vector<std::pair<double, double>>& pts)
{
    const auto key = [](const std::pair<double, double>& p) {
        return PointKey{std::bit_cast<uint64_t>(p.first),
                        std::bit_cast<uint64_t>(p.second)};
    };
    // First occurrences of points missing from the table, in batch
    // order — the only points that simulate. A repeat within the
    // batch reads the table afterwards, like any other hit.
    std::vector<std::pair<double, double>> fresh;
    std::set<PointKey> in_batch;
    for (const auto& p : pts) {
        const PointKey k = key(p);
        if (table_.count(k) || !in_batch.insert(k).second)
            ++hits_;
        else
            fresh.push_back(p);
    }
    if (!fresh.empty()) {
        const std::vector<double> costs = evaluate_(fresh);
        assert(costs.size() == fresh.size());
        simulations_ += fresh.size();
        for (size_t i = 0; i < fresh.size(); ++i)
            table_.emplace(key(fresh[i]), costs[i]);
    }
    std::vector<double> out;
    out.reserve(pts.size());
    for (const auto& p : pts)
        out.push_back(table_.at(key(p)));
    return out;
}

core::SearchResult
ParamSearch::optimize(double a0, double b0)
{
    const uint64_t hits0 = hits_;
    const uint64_t sims0 = simulations_;
    const core::BatchCostFn memoized = [this](const auto& pts) {
        return lookup(pts);
    };
    core::SearchResult r = walk_.optimize(memoized, a0, b0);
    r.memoHits = int(hits_ - hits0);
    r.simulated = int(simulations_ - sims0);
    return r;
}

} // namespace engine
} // namespace dream
