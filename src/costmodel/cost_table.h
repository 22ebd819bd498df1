/**
 * @file
 * Precomputed latency/energy tables for a target system.
 *
 * DREAM's inputs include "latency and energy information for each layer
 * for each accelerator in the system generated offline using a cost
 * model or a simulator" (Section 4, Figure 4). CostTable is that
 * artefact: it memoises estimateLayer() for every (layer shape,
 * accelerator, slice allocation) and offers the aggregate queries the
 * scoring algorithms need (average / sum / min across accelerators).
 *
 * Every entry also carries its cross-accelerator aggregates
 * (LayerAgg), computed once when the entry is built, and view()
 * exposes an entry through a single hash lookup — the scoring hot
 * path (MapScore line 8/9/13 needs per-accelerator AND aggregate
 * costs of the same layer) pays one lookup per layer instead of one
 * per query.
 *
 * A table has one mode: addModel() computes entries, and lookups
 * only read them. A lookup of a layer that no added model covers
 * throws std::logic_error, so concurrent const lookups never mutate
 * and a table may be shared across threads, which is what
 * CostTableCache does.
 */

#ifndef DREAM_COSTMODEL_COST_TABLE_H
#define DREAM_COSTMODEL_COST_TABLE_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "costmodel/layer_cost.h"
#include "hw/system.h"
#include "models/model.h"

namespace dream {
namespace cost {

/** Shape key identifying a layer for memoisation. */
struct LayerKey {
    uint32_t kind, inH, inW, inC, outC, kH, kW, stride, groups, repeat;

    bool operator==(const LayerKey&) const = default;
};

/** Total order over LayerKey (canonical model-set serialisation). */
bool operator<(const LayerKey& a, const LayerKey& b);

/** FNV-1a style hash for LayerKey. */
struct LayerKeyHash {
    size_t operator()(const LayerKey& k) const;
};

/** Make the memoisation key for a layer. */
LayerKey makeKey(const models::Layer& layer);

/**
 * Cross-accelerator aggregates of one layer's full-slice costs,
 * precomputed when the layer's entry is built. Values are computed
 * with the exact accumulation order of the original per-call loops
 * (ascending accelerator index), so switching callers to the
 * precomputed fields is bit-identical.
 */
struct LayerAgg {
    double avgLatencyUs = 0.0;
    double sumLatencyUs = 0.0;
    double minLatencyUs = 0.0;
    double sumEnergyMj = 0.0;
    double maxEnergyMj = 0.0;
};

/**
 * Latency/energy lookup for one target system. addModel() computes
 * the full (accelerator x slice) cost matrix of each new layer shape
 * offline, matching the paper's flow; every lookup reads an entry
 * addModel() built and throws std::logic_error for any other layer.
 */
class CostTable {
public:
    explicit CostTable(const hw::SystemConfig& system);

    /** Compute costs for every layer of a model (incl. variants). */
    void addModel(const models::Model& model);

    /** Number of accelerators in the target system. */
    size_t numAccelerators() const { return system_.size(); }
    /** The target system. */
    const hw::SystemConfig& system() const { return system_; }
    /** Number of distinct layer shapes cached. */
    size_t numLayers() const { return cache_.size(); }

    /** Cost of @p layer on accelerator @p acc with all slices. */
    const LayerCost& cost(const models::Layer& layer, size_t acc) const
    {
        return view(layer).cost(acc);
    }
    /** Mean full-slice latency of @p layer across accelerators. */
    double avgLatencyUs(const models::Layer& layer) const
    {
        return view(layer).agg().avgLatencyUs;
    }
    /** Minimum full-slice latency of @p layer across accelerators. */
    double minLatencyUs(const models::Layer& layer) const
    {
        return view(layer).agg().minLatencyUs;
    }

private:
    /** Per-layer cost matrix: [accelerator][slices-1]. */
    struct Entry {
        std::vector<std::vector<LayerCost>> byAccel;
        LayerAgg agg;
    };

public:
    /**
     * One layer's entry behind a single hash lookup: per-accelerator
     * costs plus the precomputed aggregates. Valid as long as the
     * table lives: entries are never erased, and adding entries does
     * not move existing ones. A view reads its own table's numbers
     * only, so a holder of views (sim::Resolution) must also
     * record which table they came from.
     */
    class LayerView {
    public:
        /** Cost on accelerator @p acc with all slices. */
        const LayerCost& cost(size_t acc) const
        {
            return entry_->byAccel[acc].back();
        }
        /** Cost on accelerator @p acc with @p slices slices. */
        const LayerCost& cost(size_t acc, uint32_t slices) const
        {
            return entry_->byAccel[acc][slices - 1];
        }
        /** The precomputed cross-accelerator aggregates. */
        const LayerAgg& agg() const { return entry_->agg; }

    private:
        friend class CostTable;
        explicit LayerView(const Entry* entry) : entry_(entry) {}
        const Entry* entry_;
    };

    /** The entry for @p layer; throws std::logic_error when no
     *  added model covers it. */
    LayerView view(const models::Layer& layer) const;

private:
    /** Build @p layer's entry unless its shape already has one. */
    void addLayer(const models::Layer& layer);

    hw::SystemConfig system_;
    std::unordered_map<LayerKey, Entry, LayerKeyHash> cache_;
};

/**
 * Best-case latency of a layer sequence (a layer vector or a
 * models::Path): each layer on its fastest accelerator, summed front
 * to back. The admission backlog, the router's per-frame work and the
 * cluster's fairness denominator all use it. A back-to-front sum
 * (sim::Resolution::suffixMin[0]) rounds differently.
 */
template <class Layers>
double
bestCaseLatencyUs(const CostTable& costs, const Layers& layers)
{
    double total = 0.0;
    for (const models::Layer& layer : layers)
        total += costs.minLatencyUs(layer);
    return total;
}

} // namespace cost
} // namespace dream

#endif // DREAM_COSTMODEL_COST_TABLE_H
