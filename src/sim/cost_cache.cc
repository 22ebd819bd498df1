#include "sim/cost_cache.h"

#include <algorithm>

namespace dream {
namespace sim {

const Request::CostCache&
ensureCostCache(const Request& req, const cost::CostTable& costs)
{
    Request::CostCache& cache = req.costCache;
    if (cache.version == req.pathVersion && cache.table == &costs)
        return cache;

    // Unbound while rebuilding: a lookup that throws (a layer missing
    // from a frozen table) must not leave stale rows marked valid.
    cache.table = nullptr;
    const size_t n = req.path.size();
    const size_t num_accs = costs.numAccelerators();
    cache.rows.clear();
    cache.rows.reserve(n);
    for (const auto& layer : req.path)
        cache.rows.push_back(costs.view(layer));
    cache.suffixAvg.assign(n + 1, 0.0);
    cache.suffixMin.assign(n + 1, 0.0);
    cache.suffixByAcc.assign(num_accs, std::vector<double>(n + 1, 0.0));
    for (size_t i = n; i-- > 0;) {
        double sum = 0.0;
        double best = 0.0;
        for (size_t a = 0; a < num_accs; ++a) {
            const double lat = cache.rows[i].cost(a).latencyUs;
            sum += lat;
            best = (a == 0) ? lat : std::min(best, lat);
            cache.suffixByAcc[a][i] = cache.suffixByAcc[a][i + 1] + lat;
        }
        cache.suffixAvg[i] =
            cache.suffixAvg[i + 1] + sum / double(num_accs);
        cache.suffixMin[i] = cache.suffixMin[i + 1] + best;
    }
    cache.table = &costs;
    cache.version = req.pathVersion;
    return cache;
}

} // namespace sim
} // namespace dream
