/**
 * @file
 * Shared declarations of the repo benchmark: command-line options,
 * the per-invocation outcome every workload returns, and the small
 * host-measurement helpers (clocks, resident set, quantiles, digests).
 *
 * The benchmark drives the library only through its public headers;
 * every number comes from timing calls into a layer from these files.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Settings of one invocation (see main.cc for the flags). */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    /** Length of the measured phase in host seconds. */
    double seconds = 10.0;
    /** Per-layer (traced) run instead of the end-to-end run. */
    bool trace = false;
    /** Where the traced run writes its span file (empty: nowhere). */
    std::string spanFile;
};

/** Metric values by name; main.cc fixes the names, units and order. */
using Values = std::map<std::string, double>;

/** What one workload invocation produced. */
struct Outcome {
    /** Operations attempted: grid points (sweep) or offered frames. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** One line per failed correctness gate. */
    std::vector<std::string> failures;
    Values values;

    /** Record a gate: a failure fails every attempted operation. */
    void gate(bool ok, const std::string& what);
};

Outcome runSweep(const Options& opts);
Outcome runOverload(const Options& opts);
Outcome runCluster(const Options& opts);

// ------------------------------------------------------- helpers

/** Monotonic host clock in nanoseconds. */
int64_t nowNs();

/** Host seconds between two nowNs() readings. */
inline double
secondsBetween(int64_t t0, int64_t t1)
{
    return double(t1 - t0) * 1e-9;
}

/** Peak resident set of this process (getrusage), in MB. */
double peakRssMb();

/** Current resident set of this process, in KB. */
double currentRssKb();

/** Return freed heap to the OS, so the next RSS reading is a floor. */
void trimHeap();

/** Median of @p values (NaN when empty). */
double median(std::vector<double> values);

/** Linearly interpolated q-quantile of @p values (NaN when empty). */
double quantile(std::vector<float> values, double q);
double quantile(std::vector<double> values, double q);

/** 64-bit FNV-1a of @p bytes, chained from @p seed. */
uint64_t fnv1a(const std::string& bytes,
               uint64_t seed = 1469598103934665603ull);

/**
 * Host seconds of one run of the reference kernel: a fixed hash-map
 * workload (allocation, hashing and dependent loads over a few MB),
 * the mix the simulator's hot loops are made of. On a shared host the
 * program slows when neighbours contend for cache and memory; the
 * kernel slows with it, so it measures how fast the host is right
 * now. It is the benchmark's own code, so a change to the program
 * never moves it.
 */
double referenceSeconds(int threads = 1);

/**
 * The reference kernel's host seconds on an uncontended 4-vCPU
 * 2.1 GHz Xeon VM (the tenth percentile of 200 calls), run on 1, 2,
 * 3 and 4 threads at once.
 */
double referenceNominalSeconds(int threads);

/** One timed repetition. */
struct Rep {
    /** Host seconds of the timed part. */
    double seconds = 0.0;
    /** Host slowness around the repetition: the mean reference-kernel
     *  time just before and just after it, over its nominal time. */
    double slowness = 1.0;

    /** Seconds at the reference host speed. */
    double corrected() const { return seconds / slowness; }
};

/**
 * Repeat @p body until @p budget_s host seconds have passed, at least
 * @p min_reps times, running the reference kernel between
 * repetitions. @p body returns the host seconds of its timed part.
 */
template <typename Body>
std::vector<Rep>
repeatFor(double budget_s, int min_reps, Body&& body, int threads = 1)
{
    std::vector<Rep> reps;
    const int64_t t0 = nowNs();
    double before = referenceSeconds(threads);
    while (int(reps.size()) < min_reps ||
           secondsBetween(t0, nowNs()) < budget_s) {
        Rep rep;
        rep.seconds = body();
        const double after = referenceSeconds(threads);
        rep.slowness =
            (before + after) / (2.0 * referenceNominalSeconds(threads));
        reps.push_back(rep);
        before = after;
    }
    return reps;
}

/** Median of the repetitions' corrected seconds. */
double medianCorrected(const std::vector<Rep>& reps);

/** Print how many repetitions ran and their raw and corrected
 *  medians, so a reader sees the size of the correction. */
void printReps(const char* phase, const std::vector<Rep>& reps);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
