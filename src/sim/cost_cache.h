/**
 * @file
 * Path resolutions: the cost-table rows of an execution path plus
 * suffix-sum latencies and the worst-case energy over them.
 *
 * Each path layer is looked up in the CostTable once, when the
 * resolution is built; scoring and dispatch then read the layer's row
 * (CostTable::LayerView) instead of hashing the layer's shape again.
 * Scoring (ToGo, minimum_to_go, Planaria's remaining-latency) also
 * needs O(remaining layers x accelerators) sums at every scheduling
 * event; they are precomputed from the rows. A resolution depends
 * only on the path and the table, so the simulator builds one per
 * distinct path per run and every request on the path shares it.
 */

#ifndef DREAM_SIM_COST_CACHE_H
#define DREAM_SIM_COST_CACHE_H

#include <memory>

#include "costmodel/cost_table.h"
#include "models/path.h"
#include "sim/request.h"

namespace dream {
namespace sim {

/** Resolve @p path against @p costs: one table lookup per layer. */
std::shared_ptr<const Resolution> resolve(const models::Path& path,
                                          const cost::CostTable& costs);

/**
 * ensureCostCache's miss: resolve @p req's path under @p costs
 * privately and re-point the request to the result, leaving the
 * resolution it held (and every request sharing it) alone.
 */
const Resolution& reResolve(const Request& req,
                            const cost::CostTable& costs);

/**
 * The resolution of @p req's path under @p costs. Returns the
 * request's own when it was built for this path and this table;
 * otherwise takes reResolve's path — a copied request read under
 * another table does so. Scoring calls this several times per
 * scheduling event, so the hit is inline.
 */
inline const Resolution&
ensureCostCache(const Request& req, const cost::CostTable& costs)
{
    const Resolution* res = req.resolution.get();
    if (res && res->table == &costs && res->path.id() == req.path.id())
        return *res;
    return reResolve(req, costs);
}

} // namespace sim
} // namespace dream

#endif // DREAM_SIM_COST_CACHE_H
