#include "costmodel/cost_table_cache.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"

namespace dream {
namespace cost {

namespace {

/** Append a value's canonical bytes to @p out. Doubles go by bit
 *  pattern: the key must distinguish exactly what the cost model
 *  distinguishes, no more ("90.0" vs "90" formatting) and no less
 *  (negative zero aside, distinct bits give distinct costs). */
void
appendBits(std::string& out, uint64_t v)
{
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    out.append(buf, sizeof v);
}

void
appendDouble(std::string& out, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    appendBits(out, bits);
}

} // anonymous namespace

std::string
systemFingerprint(const hw::SystemConfig& system)
{
    std::string fp;
    fp += system.name;
    fp += '\0';
    appendBits(fp, system.accelerators.size());
    for (const auto& acc : system.accelerators) {
        fp += acc.name;
        fp += '\0';
        appendBits(fp, acc.numPes);
        appendBits(fp, uint64_t(acc.dataflow));
        appendBits(fp, acc.sramBytes);
        appendDouble(fp, acc.dramGbps);
        appendDouble(fp, acc.clockMhz);
        appendBits(fp, acc.numSlices);
    }
    return fp;
}

TableKey
makeTableKey(const hw::SystemConfig& system,
             const workload::Scenario& scenario)
{
    TableKey key;
    key.system = systemFingerprint(system);
    for (const auto& task : scenario.tasks) {
        for (const auto& l : task.model.layers)
            key.layers.push_back(makeKey(l));
        for (const auto& v : task.model.variants) {
            for (const auto& l : v.bodyLayers)
                key.layers.push_back(makeKey(l));
        }
    }
    // Canonical form: the model SET, not the task list — scenarios
    // that run the same networks in a different task arrangement
    // produce the same table.
    std::sort(key.layers.begin(), key.layers.end());
    key.layers.erase(
        std::unique(key.layers.begin(), key.layers.end()),
        key.layers.end());
    return key;
}

size_t
TableKeyHash::operator()(const TableKey& k) const
{
    size_t h = 1469598103934665603ull;
    auto mix = [&h](uint8_t b) {
        h ^= b;
        h *= 1099511628211ull;
    };
    for (const char c : k.system)
        mix(uint8_t(c));
    const LayerKeyHash layer_hash;
    for (const auto& l : k.layers) {
        const size_t lh = layer_hash(l);
        for (size_t i = 0; i < sizeof lh; ++i)
            mix(uint8_t(lh >> (8 * i)));
    }
    return h;
}

CostTableCache::CostTableCache(size_t capacity) : capacity_(capacity)
{
}

CostTableCache::Result
CostTableCache::acquire(const hw::SystemConfig& system,
                        const workload::Scenario& scenario)
{
    TableKey key = makeTableKey(system, scenario);

    std::lock_guard<std::mutex> lock(mu_);
    Result r;
    auto it = map_.find(key);
    if (it != map_.end()) {
        ++hits_;
        r.hit = true;
        r.table = it->second.table;
        // Refresh LRU position.
        lru_.splice(lru_.begin(), lru_, it->second.lruPos);
        return r;
    }

    // Build UNDER the lock: a second worker missing on the same key
    // blocks here and then hits, so each distinct pair is built
    // exactly once and the miss count is the distinct-key count.
    ++misses_;
    auto table = std::make_shared<CostTable>(system);
    for (const auto& task : scenario.tasks)
        table->addModel(task.model);
    r.table = table;

    lru_.push_front(key);
    map_.emplace(std::move(key), Slot{r.table, lru_.begin()});
    while (map_.size() > capacity_) {
        map_.erase(lru_.back());
        lru_.pop_back();
        ++r.evicted;
    }
    evictions_ += r.evicted;
    return r;
}

CostTableCache::Stats
CostTableCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return Stats{hits_, misses_, evictions_, map_.size()};
}

void
CostTableCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
}

CostTableCache&
CostTableCache::global()
{
    static CostTableCache instance;
    return instance;
}

std::shared_ptr<const CostTable>
acquireCostTable(const hw::SystemConfig& system,
                 const workload::Scenario& scenario,
                 obs::MetricsRegistry* metrics)
{
    const CostTableCache::Result r =
        CostTableCache::global().acquire(system, scenario);
    if (metrics) {
        // Scheduling history decides which point gets the miss, so
        // the counters are volatile: present for profiling
        // (dream_prof --metrics), excluded from the canonical dump.
        for (const char* name :
             {"costcache/hit", "costcache/miss", "costcache/evict"})
            metrics->markVolatile(name);
        metrics->count("costcache/hit", r.hit ? 1 : 0);
        metrics->count("costcache/miss", r.hit ? 0 : 1);
        metrics->count("costcache/evict", r.evicted);
    }
    return r.table;
}

} // namespace cost
} // namespace dream
