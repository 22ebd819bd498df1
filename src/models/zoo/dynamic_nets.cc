/**
 * @file
 * Operator-level dynamic networks: SkipNet (gated residual blocks)
 * and RAPID-RL (preemptive early exits).
 */

#include "models/zoo.h"

#include "models/zoo/builders.h"

namespace dream {
namespace models {
namespace zoo {

Model
skipNet()
{
    Model m;
    m.name = "SkipNet";
    // ResNet-34-style backbone with skip gates on every non-transition
    // residual block. The paper assumes a 50% skip probability per
    // gated block (72% ImageNet top-1 operating point).
    Cursor cur{224, 224, 3};
    addConv(m.layers, cur, "stem", 64, 7, 2);
    addPool(m.layers, cur, "pool", 3, 2);
    const struct { uint32_t c; int blocks; } stages[] =
        {{64, 3}, {128, 4}, {256, 6}, {512, 3}};
    int stage_idx = 0;
    for (const auto& st : stages) {
        for (int b = 0; b < st.blocks; ++b) {
            std::string name = "g";
            name += std::to_string(stage_idx);
            name += ".b";
            name += std::to_string(b);
            const uint32_t stride = (b == 0 && stage_idx > 0) ? 2 : 1;
            const size_t begin = m.layers.size();
            addBasicBlock(m.layers, cur, name, st.c, stride);
            // Transition blocks (stride/width change) are not gated;
            // identity blocks can be skipped.
            if (stride == 1 && b > 0)
                m.skipBlocks.push_back({begin, m.layers.size(), 0.5});
        }
        ++stage_idx;
    }
    addPool(m.layers, cur, "gap", cur.h, cur.h);
    m.layers.push_back(fc("cls", 512, 1000));
    return m;
}

Model
rapidRl()
{
    Model m;
    m.name = "RAPID_RL";
    // Preemptive-exit policy network (Kosta et al., ICRA'22): conv
    // trunk with two exit branches, each taken with probability 0.5.
    Cursor cur{120, 160, 4};
    addConv(m.layers, cur, "conv1", 32, 8, 4);
    addConv(m.layers, cur, "conv2", 64, 4, 2);
    m.layers.push_back(fc("exit1.head", 64 * 15 * 20, 256));
    m.earlyExits.push_back({m.layers.size() - 1, 0.5});
    addConv(m.layers, cur, "conv3", 64, 3, 1);
    m.layers.push_back(fc("exit2.head", 64 * 15 * 20, 256));
    m.earlyExits.push_back({m.layers.size() - 1, 0.5});
    addConv(m.layers, cur, "conv4", 128, 3, 1);
    m.layers.push_back(fc("fc1", 128 * 15 * 20, 512));
    m.layers.push_back(fc("policy", 512, 16));
    return m;
}

} // namespace zoo
} // namespace models
} // namespace dream
