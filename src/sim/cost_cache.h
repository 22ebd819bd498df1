/**
 * @file
 * Per-request cost cache: the cost-table rows of a request's path
 * plus suffix-sum latencies over them.
 *
 * Each path layer is looked up in the CostTable once, when the cache
 * is built; scoring and dispatch then read the layer's row
 * (CostTable::LayerView) instead of hashing the layer's shape again.
 * Scoring (ToGo, minimum_to_go, Planaria's remaining-latency) also
 * needs O(remaining layers x accelerators) sums at every scheduling
 * event; they are precomputed from the rows. The cache is keyed by
 * Request::pathVersion (bumped by a Supernet variant switch) and by
 * the table the rows point into, and is rebuilt when either changes.
 */

#ifndef DREAM_SIM_COST_CACHE_H
#define DREAM_SIM_COST_CACHE_H

#include "costmodel/cost_table.h"
#include "sim/request.h"

namespace dream {
namespace sim {

/** Build (if stale for @p costs) and return the request's cache. */
const Request::CostCache& ensureCostCache(const Request& req,
                                          const cost::CostTable& costs);

} // namespace sim
} // namespace dream

#endif // DREAM_SIM_COST_CACHE_H
