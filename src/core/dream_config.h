/**
 * @file
 * Configuration of the DREAM scheduler, including the three evaluated
 * variants of Table 4: DREAM-MapScore, DREAM-SmartDrop, DREAM-Full.
 *
 * Only the values some bench varies are fields: the MapScore factors,
 * the three Table 4 switches, the drop-rate cap (abl01) and the
 * settle factor (abl02). The scheduler's fixed design constants are
 * named in the files that read them (the "Fixed constants" list in
 * docs/ARCHITECTURE.md).
 */

#ifndef DREAM_CORE_DREAM_CONFIG_H
#define DREAM_CORE_DREAM_CONFIG_H

namespace dream {
namespace core {

/** The DREAM tunables some bench varies. */
struct DreamConfig {
    /** Starvation factor (alpha in Algorithm 1, range [0, 2]). */
    double alpha = 1.0;
    /** Energy factor (beta in Algorithm 1, range [0, 2]). */
    double beta = 1.0;

    /** Online (alpha, beta) optimisation (Section 3.6). */
    bool paramOptimization = true;
    /** Smart frame drop (Section 4.2). */
    bool smartDrop = false;
    /** Supernet switching (Section 4.5.1). */
    bool supernetSwitch = false;

    /** Maximum frame-drop rate per task (evaluation uses 20%;
     *  abl01 sweeps it). */
    double maxDropRate = 0.2;

    /**
     * Settle-vs-wait rule of the dispatch engine: a (request,
     * accelerator) pair whose next-layer latency exceeds
     * settleFactor x the request's best-accelerator latency is
     * deferred while waiting is deadline-safe. 0 disables the rule
     * (pure greedy highest-MapScore dispatch); abl02 sweeps it.
     */
    double settleFactor = 2.5;

    /** Table 4 row 1: score-driven assignment + param optimisation. */
    static DreamConfig mapScore();
    /** Table 4 row 2: MapScore + smart frame drop. */
    static DreamConfig smartDropConfig();
    /** Table 4 row 3: all optimisations. */
    static DreamConfig full();
    /** Figure 9 baseline: fixed alpha = beta = 1, no optimisation. */
    static DreamConfig fixedParams(double alpha = 1.0,
                                   double beta = 1.0);
};

} // namespace core
} // namespace dream

#endif // DREAM_CORE_DREAM_CONFIG_H
