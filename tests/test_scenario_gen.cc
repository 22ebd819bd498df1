/**
 * @file
 * ScenarioGenerator tests: seeded determinism (same seed => the
 * identical scenario down to names, fps values and dependency
 * edges), seed diversity (different seeds => distinct mixes), spec
 * bounds, and the validity contract (every generated scenario passes
 * validateScenario; hand-built invalid scenarios fail it with a
 * reason).
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

#include "workload/scenario_gen.h"

namespace dream {
namespace {

std::string
fingerprint(const workload::Scenario& s)
{
    std::string out = s.name;
    for (const auto& t : s.tasks) {
        out += '|' + t.model.name + '/' + std::to_string(t.fps) + '/' +
               std::to_string(t.dependsOn) + '/' +
               std::to_string(t.triggerProb) + '/' +
               std::to_string(t.startUs) + '/' +
               std::to_string(t.endUs);
    }
    return out;
}

TEST(ScenarioGenerator, SameSeedYieldsIdenticalScenario)
{
    workload::ScenarioGenerator gen;
    for (const uint64_t seed : {1ull, 7ull, 42ull, 1234567ull}) {
        const auto a = gen.generate(seed);
        const auto b = gen.generate(seed);
        EXPECT_EQ(fingerprint(a), fingerprint(b)) << "seed " << seed;
        EXPECT_EQ(a.name, "Gen" + std::to_string(seed));
        // A fresh generator with the same spec agrees too.
        workload::ScenarioGenerator other;
        EXPECT_EQ(fingerprint(other.generate(seed)), fingerprint(a));
    }
}

TEST(ScenarioGenerator, DifferentSeedsYieldDistinctMixes)
{
    workload::ScenarioGenerator gen;
    std::set<std::string> prints;
    constexpr int kSeeds = 50;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed)
        prints.insert(fingerprint(gen.generate(seed)));
    // Task bodies must differ, not just the "Gen<seed>" names.
    std::set<std::string> bodies;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        auto s = gen.generate(seed);
        s.name.clear();
        bodies.insert(fingerprint(s));
    }
    EXPECT_EQ(prints.size(), size_t(kSeeds));
    EXPECT_GT(bodies.size(), size_t(kSeeds) * 9 / 10);
}

TEST(ScenarioGenerator, GeneratedScenariosAreValidAndInBounds)
{
    workload::ScenarioGenSpec spec;
    spec.minTasks = 3;
    spec.maxTasks = 5;
    spec.minFps = 10.0;
    spec.maxFps = 30.0;
    workload::ScenarioGenerator gen(spec);
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        const auto s = gen.generate(seed);
        std::string why;
        EXPECT_TRUE(workload::validateScenario(s, &why))
            << "seed " << seed << ": " << why;
        EXPECT_GE(s.tasks.size(), 3u);
        EXPECT_LE(s.tasks.size(), 5u);
        for (const auto& t : s.tasks) {
            EXPECT_GE(t.fps, 10.0);
            EXPECT_LE(t.fps, 30.0);
            EXPECT_GT(t.fps, 0.0);
            if (t.dependsOn != workload::kNoParent) {
                // Forest edges always point at earlier tasks.
                EXPECT_LT(t.dependsOn,
                          workload::TaskId(&t - s.tasks.data()));
            }
        }
    }
}

/** Fingerprint including the operator-level dynamicity state the
 *  knob tests care about (skip/exit gate probabilities). */
std::string
dynFingerprint(const workload::Scenario& s)
{
    std::string out = fingerprint(s);
    for (const auto& t : s.tasks) {
        for (const auto& blk : t.model.skipBlocks)
            out += "|skip:" + std::to_string(blk.skipProb);
        for (const auto& exit : t.model.earlyExits)
            out += "|exit:" + std::to_string(exit.exitProb);
    }
    return out;
}

TEST(ScenarioGenerator, DynamicityKnobsAreDeterministic)
{
    workload::ScenarioGenSpec spec;
    spec.skipProbMin = 0.1;
    spec.skipProbMax = 0.6;
    spec.exitProbMin = 0.2;
    spec.exitProbMax = 0.8;
    spec.supernetProb = 0.5;
    spec.targetLoad = 2.0;
    std::string why;
    ASSERT_TRUE(workload::validateGenSpec(spec, &why)) << why;
    workload::ScenarioGenerator gen(spec);
    for (const uint64_t seed : {1ull, 9ull, 77ull}) {
        const auto a = gen.generate(seed);
        EXPECT_TRUE(workload::validateScenario(a, &why))
            << "seed " << seed << ": " << why;
        // Same generator and a freshly built one both reproduce the
        // mix exactly, gate probabilities included.
        EXPECT_EQ(dynFingerprint(gen.generate(seed)),
                  dynFingerprint(a));
        workload::ScenarioGenerator other(spec);
        EXPECT_EQ(dynFingerprint(other.generate(seed)),
                  dynFingerprint(a));
    }
}

TEST(ScenarioGenerator, SupernetKnobControlsPresence)
{
    workload::ScenarioGenSpec all;
    all.supernetProb = 1.0;
    workload::ScenarioGenerator gen_all(all);
    workload::ScenarioGenSpec none;
    none.supernetProb = 0.0;
    workload::ScenarioGenerator gen_none(none);
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        for (const auto& t : gen_all.generate(seed).tasks)
            EXPECT_TRUE(t.model.isSupernet()) << t.model.name;
        for (const auto& t : gen_none.generate(seed).tasks)
            EXPECT_FALSE(t.model.isSupernet()) << t.model.name;
    }
}

TEST(ScenarioGenerator, SkipExitOverridesApplyToEveryGate)
{
    workload::ScenarioGenSpec spec;
    spec.skipProbMin = spec.skipProbMax = 0.42;
    spec.exitProbMin = spec.exitProbMax = 0.17;
    workload::ScenarioGenerator gen(spec);
    int gates = 0;
    for (uint64_t seed = 1; seed <= 30; ++seed) {
        for (const auto& t : gen.generate(seed).tasks) {
            for (const auto& blk : t.model.skipBlocks) {
                EXPECT_DOUBLE_EQ(blk.skipProb, 0.42);
                ++gates;
            }
            for (const auto& exit : t.model.earlyExits) {
                EXPECT_DOUBLE_EQ(exit.exitProb, 0.17);
                ++gates;
            }
        }
    }
    // The zoo has dynamic models; the override must actually land.
    EXPECT_GT(gates, 0);
}

TEST(ScenarioGenerator, TargetLoadBiasesFpsDraws)
{
    // A high aggregate-load target must push the biased (model, rate)
    // picks toward heavier mixes than a low one. Compare the mean
    // total fps across seeds — latency-weighted load moves with it.
    const auto mean_fps_sum = [](double target) {
        workload::ScenarioGenSpec spec;
        spec.targetLoad = target;
        spec.minTasks = spec.maxTasks = 5;
        workload::ScenarioGenerator gen(spec);
        double sum = 0.0;
        for (uint64_t seed = 1; seed <= 20; ++seed) {
            for (const auto& t : gen.generate(seed).tasks)
                sum += t.fps;
        }
        return sum / 20.0;
    };
    EXPECT_GT(mean_fps_sum(6.0), mean_fps_sum(0.3));
}

TEST(ValidateGenSpec, AcceptsDefaultAndKnobbedSpecs)
{
    std::string why;
    EXPECT_TRUE(workload::validateGenSpec({}, &why)) << why;
    workload::ScenarioGenSpec spec;
    spec.skipProbMin = 0.0;
    spec.skipProbMax = 1.0;
    spec.exitProbMin = 0.5;
    spec.exitProbMax = 0.5;
    spec.supernetProb = 0.25;
    spec.targetLoad = 4.0;
    spec.loadSystem = "4K-1WS+2OS";
    EXPECT_TRUE(workload::validateGenSpec(spec, &why)) << why;
}

TEST(ValidateGenSpec, RejectsInvalidKnobs)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::string why;

    workload::ScenarioGenSpec bad_nan;
    bad_nan.chainProb = nan;
    EXPECT_FALSE(workload::validateGenSpec(bad_nan, &why));
    EXPECT_NE(why.find("chainProb"), std::string::npos);

    workload::ScenarioGenSpec nan_load;
    nan_load.targetLoad = nan;
    EXPECT_FALSE(workload::validateGenSpec(nan_load, &why));

    workload::ScenarioGenSpec nan_override;
    nan_override.skipProbMin = nan;
    nan_override.skipProbMax = nan;
    EXPECT_FALSE(workload::validateGenSpec(nan_override, &why));

    workload::ScenarioGenSpec half_set;
    half_set.exitProbMin = 0.3; // max left at -1: a typo, not a range
    EXPECT_FALSE(workload::validateGenSpec(half_set, &why));
    EXPECT_NE(why.find("early-exit"), std::string::npos);

    workload::ScenarioGenSpec bad_tasks;
    bad_tasks.minTasks = 5;
    bad_tasks.maxTasks = 2;
    EXPECT_FALSE(workload::validateGenSpec(bad_tasks, &why));

    workload::ScenarioGenSpec bad_trigger;
    bad_trigger.minTriggerProb = 0.9;
    bad_trigger.maxTriggerProb = 0.1;
    EXPECT_FALSE(workload::validateGenSpec(bad_trigger, &why));

    workload::ScenarioGenSpec bad_super;
    bad_super.supernetProb = 1.5;
    EXPECT_FALSE(workload::validateGenSpec(bad_super, &why));

    workload::ScenarioGenSpec bad_system;
    bad_system.loadSystem = "no-such-system";
    EXPECT_FALSE(workload::validateGenSpec(bad_system, &why));
    EXPECT_NE(why.find("no-such-system"), std::string::npos);
}

TEST(ValidateScenario, RejectsTriggerProbabilityOnRootTasks)
{
    // A gate probability on a task with no dependency is meaningless
    // (nothing triggers it) and indicates a malformed, e.g.
    // hand-edited, task list.
    auto s = workload::ScenarioGenerator().generate(1);
    ASSERT_EQ(s.tasks[0].dependsOn, workload::kNoParent);
    s.tasks[0].triggerProb = 0.5;
    std::string why;
    EXPECT_FALSE(workload::validateScenario(s, &why));
    EXPECT_NE(why.find("no dependency"), std::string::npos);
}

TEST(ValidateScenario, RejectsInvalidScenarios)
{
    std::string why;

    workload::Scenario empty;
    EXPECT_FALSE(workload::validateScenario(empty, &why));
    EXPECT_NE(why.find("no tasks"), std::string::npos);

    const auto base = workload::ScenarioGenerator().generate(1);

    auto bad_fps = base;
    bad_fps.tasks[0].fps = 0.0;
    EXPECT_FALSE(workload::validateScenario(bad_fps, &why));
    EXPECT_NE(why.find("fps"), std::string::npos);

    auto bad_dep = base;
    bad_dep.tasks[0].dependsOn =
        workload::TaskId(bad_dep.tasks.size());
    EXPECT_FALSE(workload::validateScenario(bad_dep, &why));

    auto self_dep = base;
    self_dep.tasks[0].dependsOn = 0;
    EXPECT_FALSE(workload::validateScenario(self_dep, &why));

    auto cycle = base;
    if (cycle.tasks.size() >= 2) {
        cycle.tasks[0].dependsOn = 1;
        cycle.tasks[1].dependsOn = 0;
        EXPECT_FALSE(workload::validateScenario(cycle, &why));
        EXPECT_NE(why.find("cycle"), std::string::npos);
    }

    auto bad_window = base;
    bad_window.tasks[0].startUs = 2.0;
    bad_window.tasks[0].endUs = 1.0;
    EXPECT_FALSE(workload::validateScenario(bad_window, &why));

    auto bad_trigger = base;
    bad_trigger.tasks[0].triggerProb = 1.5;
    EXPECT_FALSE(workload::validateScenario(bad_trigger, &why));

    EXPECT_TRUE(workload::validateScenario(base, &why)) << why;
}

TEST(ValidateScenario, AcceptsAllTable3Presets)
{
    for (const auto preset : workload::allScenarioPresets()) {
        std::string why;
        EXPECT_TRUE(workload::validateScenario(
            workload::makeScenario(preset), &why))
            << toString(preset) << ": " << why;
    }
}

} // namespace
} // namespace dream
