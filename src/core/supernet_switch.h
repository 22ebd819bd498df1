/**
 * @file
 * Supernet switching engine (Section 4.5.1).
 *
 * When the job assignment engine is about to dispatch a Supernet
 * request that has not passed its switch point, this engine estimates
 * whether the current subnet can still meet the deadline and, if not,
 * switches to the heaviest lighter variant that can (or the lightest
 * variant when none can). Variant selection never blocks execution.
 */

#ifndef DREAM_CORE_SUPERNET_SWITCH_H
#define DREAM_CORE_SUPERNET_SWITCH_H

#include <optional>

#include "core/mapscore.h"
#include "sim/scheduler.h"

namespace dream {
namespace core {

/** Chooses Supernet variants at dispatch time. */
class SupernetSwitchEngine {
public:
    /**
     * If @p req is a Supernet frame still before its switch point,
     * return the variant it should run (possibly its current one
     * returns nullopt when no change is needed or possible).
     */
    std::optional<int> chooseVariant(const sim::SchedulerContext& ctx,
                                     const MapScoreEngine& scores,
                                     const sim::Request& req) const;
};

} // namespace core
} // namespace dream

#endif // DREAM_CORE_SUPERNET_SWITCH_H
