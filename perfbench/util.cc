#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <memory_resource>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"

namespace perfbench {

void
Outcome::gate(bool ok, const std::string& what)
{
    if (ok)
        return;
    failures.push_back(what);
    failed = attempted;
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}

double
currentRssKb()
{
    long pages = 0, resident = 0;
    FILE* f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0.0;
    const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
    std::fclose(f);
    if (n != 2)
        return 0.0;
    return double(resident) * double(sysconf(_SC_PAGESIZE)) / 1024.0;
}

void
trimHeap()
{
    malloc_trim(0);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

namespace {

template <typename T>
double
interpolatedQuantile(std::vector<T>& v, double q)
{
    if (v.empty())
        return std::nan("");
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    std::nth_element(v.begin(), v.begin() + long(lo), v.end());
    const double a = double(v[lo]);
    if (hi == lo)
        return a;
    // v[hi] is the smallest element above the lo-th order statistic.
    const double b =
        double(*std::min_element(v.begin() + long(lo) + 1, v.end()));
    return a + (b - a) * (pos - double(lo));
}

} // anonymous namespace

double
quantile(std::vector<float> values, double q)
{
    return interpolatedQuantile(values, q);
}

double
quantile(std::vector<double> values, double q)
{
    return interpolatedQuantile(values, q);
}

namespace {

constexpr size_t kArenaBytes = 8 << 20;

/** One run of the reference kernel on @p arena. */
uint64_t
referenceKernel(std::byte* arena)
{
    static const std::vector<uint32_t> keys = [] {
        std::vector<uint32_t> k(100000);
        uint64_t x = 0; // splitmix64
        for (auto& key : k) {
            uint64_t z = (x += 0x9e3779b97f4a7c15ull);
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            key = uint32_t(z ^ (z >> 31));
        }
        return k;
    }();
    // The map's nodes come from one buffer reused by every call, so
    // the kernel's memory layout never depends on the heap's state.
    std::pmr::monotonic_buffer_resource pool(
        arena, kArenaBytes, std::pmr::null_memory_resource());
    std::pmr::unordered_map<uint32_t, uint32_t> map(&pool);
    for (size_t i = 0; i < keys.size(); ++i)
        map[keys[i]] += uint32_t(i);
    uint64_t sum = 0;
    for (size_t i = 0; i < keys.size(); ++i)
        sum += map[keys[(i * 7) % keys.size()]];
    return sum;
}

} // anonymous namespace

double
referenceSeconds(int threads)
{
    // Left uninitialised: only the pages the kernel touches count
    // towards the resident set (about 3 MB per thread).
    static std::vector<std::unique_ptr<std::byte[]>> arenas;
    while (int(arenas.size()) < threads)
        arenas.emplace_back(new std::byte[kArenaBytes]);
    static std::atomic<uint64_t> sink{0};
    const int64_t t0 = nowNs();
    {
        std::vector<std::jthread> helpers;
        for (int k = 1; k < threads; ++k)
            helpers.emplace_back(
                [k] { sink += referenceKernel(arenas[k].get()); });
        sink += referenceKernel(arenas[0].get());
    } // joins the helpers
    return secondsBetween(t0, nowNs());
}

double
referenceNominalSeconds(int threads)
{
    static const double nominal[] = {0.0085, 0.0105, 0.0123, 0.0135};
    return nominal[std::clamp(threads, 1, 4) - 1];
}

double
medianCorrected(const std::vector<Rep>& reps)
{
    std::vector<double> v;
    for (const Rep& r : reps)
        v.push_back(r.corrected());
    return median(std::move(v));
}

void
printReps(const char* phase, const std::vector<Rep>& reps)
{
    std::vector<double> raw, slowness;
    for (const Rep& r : reps) {
        raw.push_back(r.seconds);
        slowness.push_back(r.slowness);
    }
    std::printf("%s: %zu repetitions, median %.4f s on the host, "
                "%.4f s corrected (median slowness %.3f)\n",
                phase, reps.size(), median(raw), medianCorrected(reps),
                median(slowness));
}

uint64_t
fnv1a(const std::string& bytes, uint64_t seed)
{
    uint64_t h = seed;
    for (const char c : bytes) {
        h ^= uint64_t(uint8_t(c));
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace perfbench
