/**
 * @file
 * Process-wide cache of shared CostTables: the one way a run gets a
 * table.
 *
 * Sweeps pay a large fixed tax per grid point when every point
 * builds its own CostTable: a 10k-point parameter scan over one
 * (system, model set) pair re-runs the analytical cost model 10k
 * times for identical inputs. CostTableCache keys tables by the
 * canonical identity of that pair — every SystemConfig field plus
 * the sorted, deduplicated set of layer-shape keys across the
 * scenario's models and Supernet variants — and hands out immutable
 * shared tables, so each distinct pair is built exactly once per
 * process.
 *
 * Determinism argument: a CostTable is a pure function of
 * (SystemConfig, layer-shape set). The key captures both inputs
 * exactly (full equality compare, no hash truncation), a table's
 * addModel() calls all happen before it is published, and lookups
 * never mutate — so a run on the shared table computes the same
 * numbers as a run on a table built for that run alone, byte for
 * byte, at any --jobs value (ARCHITECTURE.md invariant 3). Only the
 * hit/miss/evict counters depend on scheduling history; they are
 * marked volatile in the metrics registry.
 */

#ifndef DREAM_COSTMODEL_COST_TABLE_CACHE_H
#define DREAM_COSTMODEL_COST_TABLE_CACHE_H

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "costmodel/cost_table.h"
#include "workload/scenario.h"

namespace dream {

namespace obs {
class MetricsRegistry;
}

namespace cost {

/**
 * Canonical identity of a (system, model set) pair. Exact: equality
 * compares every field, so two pairs share a table only when their
 * cost tables would be identical.
 */
struct TableKey {
    /** Canonical serialisation of every SystemConfig field. */
    std::string system;
    /** Sorted, deduplicated layer-shape keys of the model set. */
    std::vector<LayerKey> layers;

    bool operator==(const TableKey&) const = default;
};

/** FNV-1a over the key's canonical bytes (bucket index only). */
struct TableKeyHash {
    size_t operator()(const TableKey& k) const;
};

/** Canonical serialisation of a system. Doubles serialise by bit
 *  pattern. */
std::string systemFingerprint(const hw::SystemConfig& system);

/** The cache key of (system, the scenario's model set). */
TableKey makeTableKey(const hw::SystemConfig& system,
                      const workload::Scenario& scenario);

/**
 * Thread-safe LRU cache of immutable CostTables. Tables build under
 * the cache lock, so concurrent workers missing on the same key build
 * it once (the second worker hits), and the miss count equals the
 * number of distinct keys seen (modulo evictions).
 */
class CostTableCache {
public:
    /** Default capacity: far above any bench's distinct-pair count. */
    static constexpr size_t kDefaultCapacity = 64;

    struct Result {
        std::shared_ptr<const CostTable> table;
        bool hit = false;      ///< served from the cache
        uint64_t evicted = 0;  ///< entries evicted by this acquire
    };

    struct Stats {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        size_t entries = 0;
    };

    explicit CostTableCache(size_t capacity = kDefaultCapacity);

    /**
     * The table of (system, scenario's model set): built now on a
     * miss, shared on a hit. The returned shared_ptr keeps the table
     * alive past eviction.
     */
    Result acquire(const hw::SystemConfig& system,
                   const workload::Scenario& scenario);

    Stats stats() const;
    /** Drop every entry and zero the counters (tests, perf passes). */
    void clear();

    /** The process-wide instance engine/runner acquire from. */
    static CostTableCache& global();

private:
    mutable std::mutex mu_;
    const size_t capacity_;
    /** Keys in LRU order, most recent first. */
    std::list<TableKey> lru_;
    struct Slot {
        std::shared_ptr<const CostTable> table;
        std::list<TableKey>::iterator lruPos;
    };
    std::unordered_map<TableKey, Slot, TableKeyHash> map_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
};

/**
 * The one entry point run paths use: the table of (system,
 * scenario), shared through CostTableCache::global(). When
 * @p metrics is non-null, records the outcome as counters
 * costcache/{hit,miss,evict}, marked volatile (hit order is
 * scheduling-dependent, so the canonical --metrics dump must not
 * depend on it).
 */
std::shared_ptr<const CostTable>
acquireCostTable(const hw::SystemConfig& system,
                 const workload::Scenario& scenario,
                 obs::MetricsRegistry* metrics = nullptr);

} // namespace cost
} // namespace dream

#endif // DREAM_COSTMODEL_COST_TABLE_CACHE_H
