#include "sim/cost_cache.h"

#include <algorithm>

namespace dream {
namespace sim {

std::shared_ptr<const Resolution>
resolve(const models::Path& path, const cost::CostTable& costs)
{
    auto res = std::make_shared<Resolution>();
    const size_t n = path.size();
    const size_t num_accs = costs.numAccelerators();
    res->path = path;
    res->table = &costs;
    res->rows.reserve(n);
    for (const auto& layer : path) {
        res->rows.push_back(costs.view(layer));
        res->worstCaseEnergyMj += res->rows.back().agg().maxEnergyMj;
    }
    res->suffixAvg.assign(n + 1, 0.0);
    res->suffixMin.assign(n + 1, 0.0);
    res->suffixByAcc.assign(num_accs, std::vector<double>(n + 1, 0.0));
    for (size_t i = n; i-- > 0;) {
        double sum = 0.0;
        double best = 0.0;
        for (size_t a = 0; a < num_accs; ++a) {
            const double lat = res->rows[i].cost(a).latencyUs;
            sum += lat;
            best = (a == 0) ? lat : std::min(best, lat);
            res->suffixByAcc[a][i] = res->suffixByAcc[a][i + 1] + lat;
        }
        res->suffixAvg[i] = res->suffixAvg[i + 1] + sum / double(num_accs);
        res->suffixMin[i] = res->suffixMin[i + 1] + best;
    }
    return res;
}

const Resolution&
reResolve(const Request& req, const cost::CostTable& costs)
{
    req.resolution = resolve(req.path, costs);
    return *req.resolution;
}

} // namespace sim
} // namespace dream
