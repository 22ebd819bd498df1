/**
 * @file
 * The DREAM scheduler (Section 4): composes the MapScore engine, the
 * Smart Frame Drop engine, the Adaptivity engine and the Supernet
 * switching engine into the Job Assignment and Dispatch engine that
 * drives scheduling decisions.
 *
 * Flow per scheduling event (Figure 4): the adaptivity engine checks
 * for workload changes and advances the online (alpha, beta) tuning;
 * the frame drop engine may retire one doomed frame; the MapScore
 * engine scores every (ready request, idle accelerator) pair; the
 * dispatch engine launches the pair with the highest MapScore,
 * switching Supernet variants first when the deadline demands it.
 */

#ifndef DREAM_CORE_DREAM_SCHEDULER_H
#define DREAM_CORE_DREAM_SCHEDULER_H

#include "core/adaptivity.h"
#include "core/dream_config.h"
#include "core/frame_drop.h"
#include "core/mapscore.h"
#include "core/supernet_switch.h"
#include "sim/scheduler.h"

namespace dream {
namespace core {

/** The DREAM scheduler. */
class DreamScheduler : public sim::Scheduler {
public:
    explicit DreamScheduler(DreamConfig config = DreamConfig::full());

    std::string name() const override;
    void reset(const sim::SchedulerContext& ctx) override;
    sim::Plan plan(const sim::SchedulerContext& ctx) override;

    /** The active configuration. */
    const DreamConfig& config() const { return config_; }
    /** Current (alpha, beta) of the MapScore engine. */
    const MapScoreEngine& mapScore() const { return engine_; }
    /** The online tuner (for observability in tests/benches). */
    const OnlineTuner& tuner() const { return tuner_; }

private:
    DreamConfig config_;
    MapScoreEngine engine_;
    FrameDropEngine dropEngine_;
    SupernetSwitchEngine supernetEngine_;
    OnlineTuner tuner_;
};

} // namespace core
} // namespace dream

#endif // DREAM_CORE_DREAM_SCHEDULER_H
