#include "engine/sweep_grid.h"

#include <cassert>
#include <cstdio>
#include <stdexcept>

namespace dream {
namespace engine {

double
paramValue(const ParamMap& params, const std::string& name)
{
    for (const auto& kv : params) {
        if (kv.first == name)
            return kv.second;
    }
    // Loud in every build type: a scheduler factory reading a
    // parameter the grid does not sweep is a setup bug, and a silent
    // fallback would yield plausible-looking but wrong results.
    throw std::out_of_range("SweepGrid has no parameter axis named '" +
                            name + "'");
}

std::string
formatValue(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
paramFragment(
    const std::vector<std::pair<std::string, std::string>>& params)
{
    std::string out;
    for (const auto& [name, value] : params) {
        if (!out.empty())
            out += ',';
        out += name + '=' + value;
    }
    return out;
}

std::string
paramFragment(const ParamMap& params)
{
    std::vector<std::pair<std::string, std::string>> texts;
    for (const auto& [name, value] : params)
        texts.push_back({name, formatValue(value)});
    return paramFragment(texts);
}

std::string
cellKey(const std::string& scenario, const std::string& system,
        const std::string& scheduler, const std::string& params_fragment)
{
    std::string out = scenario + '/' + system + '/' + scheduler;
    if (!params_fragment.empty())
        out += '/' + params_fragment;
    return out;
}

std::string
SweepGrid::Point::cellKey() const
{
    return engine::cellKey(scenario, system, scheduler,
                           paramFragment(params));
}

std::string
SweepGrid::Point::key() const
{
    return cellKey() + "/seed=" + std::to_string(seed);
}

SweepGrid&
SweepGrid::addScenario(workload::ScenarioPreset preset,
                       double cascade_prob)
{
    std::string name = workload::toString(preset);
    if (cascade_prob != 0.5)
        name += "@p" + formatValue(cascade_prob);
    return addScenario(std::move(name), [preset, cascade_prob]() {
        return workload::makeScenario(preset, cascade_prob);
    });
}

SweepGrid&
SweepGrid::addScenario(std::string name,
                       std::function<workload::Scenario()> make)
{
    scenarios_.push_back({std::move(name), std::move(make), nullptr});
    return *this;
}

SweepGrid&
SweepGrid::addTraceReplay(ScenarioSpec spec)
{
    assert(spec.trace && "trace replay needs a recorded trace");
    scenarios_.push_back(std::move(spec));
    return *this;
}

SweepGrid&
SweepGrid::addGeneratedScenarios(const workload::ScenarioGenSpec& spec,
                                 int count, uint64_t seed0)
{
    assert(count > 0);
    // One shared generator: factories run on worker threads, and
    // ScenarioGenerator::generate is const and stateless, so sharing
    // is safe. Names come from the generator ("Gen<seed>") so grid
    // keys, sink rows and --filter all address generated scenarios.
    auto gen = std::make_shared<workload::ScenarioGenerator>(spec);
    for (int i = 0; i < count; ++i) {
        const uint64_t seed = seed0 + uint64_t(i);
        addScenario("Gen" + std::to_string(seed),
                    [gen, seed]() { return gen->generate(seed); });
    }
    return *this;
}

SweepGrid&
SweepGrid::addHardScenarios(const workload::HardScenarioSuite& suite)
{
    // Entries already passed loadHardScenarioSuite validation; each
    // becomes one scenario-axis value named after the entry, its
    // mix re-generated from (spec, genSeed) on demand. The suite's
    // system, window and seeds are deliberately NOT applied — the
    // caller decides those axes (bench/hard_scenarios mirrors the
    // suite exactly; a hunt may re-evaluate entries elsewhere).
    for (const auto& entry : suite.entries) {
        const workload::ScenarioGenSpec spec = entry.spec;
        const uint64_t seed = entry.genSeed;
        const std::string name = entry.name;
        addScenario(name, [spec, seed, name]() {
            const workload::ScenarioGenerator gen(spec);
            workload::Scenario s = gen.generate(seed);
            s.name = name;
            return s;
        });
    }
    return *this;
}

SweepGrid&
SweepGrid::addSystem(hw::SystemPreset preset)
{
    return addSystem(hw::toString(preset),
                     [preset]() { return hw::makeSystem(preset); });
}

SweepGrid&
SweepGrid::addSystem(std::string name,
                     std::function<hw::SystemConfig()> make)
{
    systems_.push_back({std::move(name), std::move(make)});
    return *this;
}

SweepGrid&
SweepGrid::addScheduler(runner::SchedKind kind)
{
    return addScheduler(runner::toString(kind), [kind](const ParamMap&) {
        return runner::makeScheduler(kind);
    });
}

SweepGrid&
SweepGrid::addScheduler(std::string name, SchedulerFactory make)
{
    schedulers_.push_back({std::move(name), std::move(make)});
    return *this;
}

SweepGrid&
SweepGrid::addParam(std::string name, std::vector<double> values)
{
    assert(!values.empty() && "parameter axis needs values");
    params_.push_back({std::move(name), std::move(values)});
    return *this;
}

SweepGrid&
SweepGrid::linspaceParam(std::string name, double lo, double hi, int n)
{
    assert(n >= 1);
    std::vector<double> values;
    values.reserve(size_t(n));
    for (int i = 0; i < n; ++i)
        values.push_back(n == 1 ? lo : lo + (hi - lo) * i / (n - 1));
    return addParam(std::move(name), std::move(values));
}

SweepGrid&
SweepGrid::seeds(std::vector<uint64_t> s)
{
    assert(!s.empty() && "seed list must not be empty");
    seeds_ = std::move(s);
    return *this;
}

SweepGrid&
SweepGrid::window(double us)
{
    assert(us > 0.0);
    windowUs_ = us;
    return *this;
}

size_t
SweepGrid::size() const
{
    size_t n = scenarios_.size() * systems_.size() *
               schedulers_.size() * seeds_.size();
    for (const auto& axis : params_)
        n *= axis.values.size();
    return n;
}

SweepGrid::Point
SweepGrid::point(size_t index) const
{
    assert(index < size());

    Point p;
    p.index = index;
    p.windowUs = windowUs_;

    // Decode row-major with the seed fastest, then parameter axes in
    // reverse declaration order, then scheduler, system, scenario.
    size_t rem = index;
    const size_t seed_i = rem % seeds_.size();
    rem /= seeds_.size();
    p.seed = seeds_[seed_i];

    p.params.resize(params_.size());
    for (size_t k = params_.size(); k-- > 0;) {
        const auto& axis = params_[k];
        const size_t vi = rem % axis.values.size();
        rem /= axis.values.size();
        p.params[k] = {axis.name, axis.values[vi]};
    }

    const size_t sched_i = rem % schedulers_.size();
    rem /= schedulers_.size();
    const size_t sys_i = rem % systems_.size();
    rem /= systems_.size();
    const size_t sc_i = rem;
    assert(sc_i < scenarios_.size());

    p.scenario = scenarios_[sc_i].name;
    p.system = systems_[sys_i].name;
    p.scheduler = schedulers_[sched_i].name;
    p.makeScenario = &scenarios_[sc_i].make;
    p.makeSystem = &systems_[sys_i].make;
    p.makeScheduler = &schedulers_[sched_i].make;
    p.trace = scenarios_[sc_i].trace.get();
    return p;
}

} // namespace engine
} // namespace dream
