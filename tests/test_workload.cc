/** @file Tests for scenarios (Table 3) and frame materialisation. */

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "workload/frame_source.h"
#include "workload/scenario.h"

namespace dream {
namespace {

using namespace workload;

TEST(Scenario, AllPresetsBuild)
{
    EXPECT_EQ(allScenarioPresets().size(), 5u);
    for (const auto preset : allScenarioPresets()) {
        const auto s = makeScenario(preset);
        EXPECT_FALSE(s.tasks.empty());
        EXPECT_EQ(s.name, toString(preset));
        for (const auto& t : s.tasks) {
            EXPECT_GT(t.fps, 0.0);
            EXPECT_FALSE(t.model.layers.empty());
            if (t.dependsOn != kNoParent) {
                EXPECT_GE(t.dependsOn, 0);
                EXPECT_LT(size_t(t.dependsOn), s.tasks.size());
            }
        }
    }
}

TEST(Scenario, ArCallMatchesTable3)
{
    const auto s = makeScenario(ScenarioPreset::ArCall);
    ASSERT_EQ(s.tasks.size(), 3u);
    EXPECT_EQ(s.tasks[0].model.name, "KWS_res8");
    EXPECT_DOUBLE_EQ(s.tasks[0].fps, 15.0);
    EXPECT_EQ(s.tasks[1].model.name, "GNMT");
    EXPECT_EQ(s.tasks[1].dependsOn, 0);
    EXPECT_EQ(s.tasks[2].model.name, "SkipNet");
    EXPECT_DOUBLE_EQ(s.tasks[2].fps, 30.0);
}

TEST(Scenario, CascadeProbabilityPropagates)
{
    const auto s = makeScenario(ScenarioPreset::ArSocial, 0.9);
    bool found = false;
    for (const auto& t : s.tasks) {
        if (t.dependsOn != kNoParent) {
            EXPECT_DOUBLE_EQ(t.triggerProb, 0.9);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Scenario, LeafDetection)
{
    const auto s = makeScenario(ScenarioPreset::ArCall);
    EXPECT_FALSE(s.isLeaf(0)); // KWS has GNMT downstream
    EXPECT_TRUE(s.isLeaf(1));  // GNMT
    EXPECT_TRUE(s.isLeaf(2));  // SkipNet
    EXPECT_EQ(s.childrenOf(0), std::vector<TaskId>{1});
}

TEST(FrameSource, PeriodicRootArrivals)
{
    const auto s = makeScenario(ScenarioPreset::DroneOutdoor);
    FrameSource src(s, 7);
    const auto frames = src.rootFrames(1e6); // 1 s
    std::map<TaskId, int> counts;
    for (const auto& f : frames) {
        counts[f.task] += 1;
        EXPECT_DOUBLE_EQ(f.deadlineUs,
                         f.arrivalUs + s.tasks[f.task].periodUs());
    }
    EXPECT_EQ(counts[0], 30); // SSD at 30 FPS
    EXPECT_EQ(counts[1], 60); // TrailNet at 60 FPS
    EXPECT_EQ(counts[2], 60); // SOSNet at 60 FPS
}

TEST(FrameSource, DeterministicAcrossInstances)
{
    const auto s = makeScenario(ScenarioPreset::ArCall);
    FrameSource a(s, 42), b(s, 42);
    const auto fa = a.rootFrames(5e5);
    const auto fb = b.rootFrames(5e5);
    ASSERT_EQ(fa.size(), fb.size());
    for (size_t i = 0; i < fa.size(); ++i) {
        EXPECT_EQ(fa[i].path.size(), fb[i].path.size());
        EXPECT_EQ(fa[i].childTriggers, fb[i].childTriggers);
    }
}

TEST(FrameSource, SeedChangesMaterialisation)
{
    const auto s = makeScenario(ScenarioPreset::ArCall);
    FrameSource a(s, 1), b(s, 2);
    // SkipNet path lengths should differ for at least one frame.
    bool differs = false;
    for (int i = 0; i < 30 && !differs; ++i) {
        differs = a.materialisePath(2, i).size() !=
                  b.materialisePath(2, i).size();
    }
    EXPECT_TRUE(differs);
}

TEST(FrameSource, SkipGateStatisticsMatchProbability)
{
    const auto s = makeScenario(ScenarioPreset::ArCall);
    FrameSource src(s, 11);
    const auto& skipnet = s.tasks[2].model;
    const size_t full = skipnet.layers.size();
    int skipped_any = 0;
    const int n = 400;
    for (int i = 0; i < n; ++i) {
        if (src.materialisePath(2, i).size() < full)
            ++skipped_any;
    }
    // With >= 8 gates at 50% each, virtually every frame skips
    // something.
    EXPECT_GT(skipped_any, n * 9 / 10);
}

TEST(FrameSource, EarlyExitTruncatesPath)
{
    const auto s = makeScenario(ScenarioPreset::DroneIndoor);
    // Task 1 is RAPID_RL with two 50% exits.
    FrameSource src(s, 5);
    const auto& model = s.tasks[1].model;
    int exited = 0;
    const int n = 400;
    for (int i = 0; i < n; ++i) {
        const auto path = src.materialisePath(1, i);
        EXPECT_LE(path.size(), model.layers.size());
        if (path.size() < model.layers.size())
            ++exited;
    }
    // P(any exit) = 1 - 0.5*0.5 = 0.75.
    EXPECT_NEAR(double(exited) / n, 0.75, 0.08);
}

TEST(FrameSource, CascadeTriggerRateMatchesProbability)
{
    const auto s = makeScenario(ScenarioPreset::ArCall, 0.3);
    FrameSource src(s, 13);
    const auto frames = src.rootFrames(60e6); // many KWS frames
    int triggers = 0, total = 0;
    for (const auto& f : frames) {
        if (f.task != 0)
            continue;
        ASSERT_EQ(f.childTriggers.size(), 1u);
        triggers += f.childTriggers[0];
        ++total;
    }
    ASSERT_GT(total, 500);
    EXPECT_NEAR(double(triggers) / total, 0.3, 0.05);
}

TEST(FrameSource, ChildDeadlineFromRelease)
{
    const auto s = makeScenario(ScenarioPreset::ArCall);
    FrameSource src(s, 3);
    const auto child = src.childFrame(1, 4, 5000.0);
    EXPECT_EQ(child.task, 1);
    EXPECT_DOUBLE_EQ(child.arrivalUs, 5000.0);
    EXPECT_DOUBLE_EQ(child.deadlineUs,
                     5000.0 + s.tasks[1].periodUs());
}

/** The layer names of @p path, in order. */
std::vector<std::string>
namesOf(const models::Path& path)
{
    std::vector<std::string> names;
    for (const auto& layer : path)
        names.push_back(layer.name);
    return names;
}

TEST(FrameSource, FramesOnOneSelectionShareTheirPath)
{
    // SkipNet (AR_Call task 2) has disjoint gated blocks and no early
    // exit, so two of its frames drew the same selection exactly when
    // their layer lists are equal. KWS (task 0) has no dynamicity.
    const auto s = makeScenario(ScenarioPreset::ArCall);
    ASSERT_TRUE(s.tasks[0].model.skipBlocks.empty());
    ASSERT_TRUE(s.tasks[0].model.earlyExits.empty());
    ASSERT_TRUE(s.tasks[2].model.earlyExits.empty());
    const FrameSource src(s, 11);
    std::map<std::vector<std::string>, const void*> by_selection;
    std::set<const void*> skipnet_lists, kws_lists;
    size_t skipnet_frames = 0;
    for (const auto& f : src.rootFrames(30e6)) {
        ASSERT_FALSE(f.path.empty());
        // Materialising the frame again hands out the same list.
        EXPECT_EQ(src.materialisePath(f.task, f.frameIdx).id(),
                  f.path.id());
        if (f.task == 0)
            kws_lists.insert(f.path.id());
        if (f.task != 2)
            continue;
        ++skipnet_frames;
        skipnet_lists.insert(f.path.id());
        const auto seen =
            by_selection.emplace(namesOf(f.path), f.path.id()).first;
        EXPECT_EQ(seen->second, f.path.id())
            << "frame " << f.frameIdx << " repeats a selection on a "
            << "list of its own";
    }
    EXPECT_EQ(kws_lists.size(), 1u);
    // One list per distinct selection: different selections never
    // share, and there are far fewer lists than frames.
    EXPECT_EQ(skipnet_lists.size(), by_selection.size());
    EXPECT_GT(by_selection.size(), 1u);
    EXPECT_LT(by_selection.size(), skipnet_frames);
}

TEST(FrameSource, ConcurrentCallersGetTheSameLists)
{
    // One source serving four runs at once: every thread sees one
    // list per selection, whichever thread interned it.
    const auto s = makeScenario(ScenarioPreset::ArCall);
    const FrameSource src(s, 5);
    std::vector<std::vector<const void*>> ids(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < ids.size(); ++t) {
        threads.emplace_back([&src, &ids, t] {
            for (const auto& f : src.rootFrames(5e6))
                ids[t].push_back(f.path.id());
            for (int i = 0; i < 150; ++i)
                ids[t].push_back(src.childFrame(1, i, 1.0).path.id());
        });
    }
    for (auto& thread : threads)
        thread.join();
    ASSERT_FALSE(ids[0].empty());
    for (size_t t = 1; t < ids.size(); ++t)
        EXPECT_EQ(ids[t], ids[0]) << "thread " << t;
}

TEST(FrameSource, PathsOutliveTheirSource)
{
    // Root frames kept after the source that built them is gone, as
    // a benchmark keeps its intake.
    const auto s = makeScenario(ScenarioPreset::ArCall);
    const std::vector<FrameSpec> kept = FrameSource(s, 11).rootFrames(2e6);
    const auto again = FrameSource(s, 11).rootFrames(2e6);
    ASSERT_EQ(kept.size(), again.size());
    for (size_t i = 0; i < kept.size(); ++i) {
        ASSERT_EQ(kept[i].path.size(), again[i].path.size());
        for (size_t l = 0; l < kept[i].path.size(); ++l) {
            EXPECT_EQ(kept[i].path[l].name, again[i].path[l].name);
            EXPECT_EQ(kept[i].path[l].macs(), again[i].path[l].macs());
        }
    }
}

TEST(FrameSource, TaskActivationWindowLimitsFrames)
{
    auto s = makeScenario(ScenarioPreset::DroneOutdoor);
    s.tasks[1].startUs = 2e5;
    s.tasks[1].endUs = 6e5;
    FrameSource src(s, 1);
    const auto frames = src.rootFrames(1e6);
    for (const auto& f : frames) {
        if (f.task == 1) {
            EXPECT_GE(f.arrivalUs, 2e5);
            EXPECT_LT(f.arrivalUs, 6e5);
        }
    }
}

} // namespace
} // namespace dream
