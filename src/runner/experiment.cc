#include "runner/experiment.h"

#include "costmodel/cost_table_cache.h"
#include "sched/fcfs.h"
#include "sched/planaria.h"
#include "sched/static_fcfs.h"
#include "sched/veltair.h"

namespace dream {
namespace runner {

std::unique_ptr<sim::Scheduler>
makeScheduler(SchedKind kind)
{
    switch (kind) {
      case SchedKind::Fcfs:
        return std::make_unique<sched::FcfsScheduler>();
      case SchedKind::StaticFcfs:
        return std::make_unique<sched::StaticFcfsScheduler>();
      case SchedKind::Veltair:
        return std::make_unique<sched::VeltairScheduler>();
      case SchedKind::Planaria:
        return std::make_unique<sched::PlanariaScheduler>();
      case SchedKind::DreamFixed:
        return std::make_unique<core::DreamScheduler>(
            core::DreamConfig::fixedParams());
      case SchedKind::DreamMapScore:
        return std::make_unique<core::DreamScheduler>(
            core::DreamConfig::mapScore());
      case SchedKind::DreamSmartDrop:
        return std::make_unique<core::DreamScheduler>(
            core::DreamConfig::smartDropConfig());
      case SchedKind::DreamFull:
        return std::make_unique<core::DreamScheduler>(
            core::DreamConfig::full());
    }
    return nullptr;
}

std::vector<SchedKind>
evaluationSchedulers()
{
    return {SchedKind::Fcfs,          SchedKind::Veltair,
            SchedKind::Planaria,      SchedKind::DreamMapScore,
            SchedKind::DreamSmartDrop, SchedKind::DreamFull};
}

std::vector<SchedKind>
allSchedKinds()
{
    return {SchedKind::Fcfs,           SchedKind::StaticFcfs,
            SchedKind::Veltair,        SchedKind::Planaria,
            SchedKind::DreamFixed,     SchedKind::DreamMapScore,
            SchedKind::DreamSmartDrop, SchedKind::DreamFull};
}

bool
parseSchedKind(const std::string& name, SchedKind* out)
{
    for (const SchedKind kind : allSchedKinds()) {
        if (name == toString(kind)) {
            if (out)
                *out = kind;
            return true;
        }
    }
    return false;
}

const char*
toString(SchedKind kind)
{
    switch (kind) {
      case SchedKind::Fcfs:
        return "FCFS";
      case SchedKind::StaticFcfs:
        return "StaticFCFS";
      case SchedKind::Veltair:
        return "Veltair";
      case SchedKind::Planaria:
        return "Planaria";
      case SchedKind::DreamFixed:
        return "DREAM-Fixed";
      case SchedKind::DreamMapScore:
        return "DREAM-MapScore";
      case SchedKind::DreamSmartDrop:
        return "DREAM-SmartDrop";
      case SchedKind::DreamFull:
        return "DREAM-Full";
    }
    return "??";
}

sim::RunStats
runOnce(const hw::SystemConfig& system,
        const workload::Scenario& scenario, sim::Scheduler& sched,
        const sim::SimConfig& config)
{
    // Every offline run shares the process-wide cache: sweeps,
    // searches and replays repeat one (system, model set) pair many
    // times, and each repeat reuses one table.
    const std::shared_ptr<const cost::CostTable> costs =
        cost::acquireCostTable(system, scenario, config.metrics);
    sim::Simulator simulator(system, scenario, *costs, config);
    return simulator.run(sched);
}

std::vector<uint64_t>
defaultSeeds()
{
    return {11, 23, 47};
}

} // namespace runner
} // namespace dream
