/**
 * @file
 * Drone-scenario networks: TrailNet navigation, SOSNet descriptors
 * and GoogLeNet-car classification.
 */

#include "models/zoo.h"

#include "models/zoo/builders.h"

namespace dream {
namespace models {
namespace zoo {

Model
trailNet()
{
    Model m;
    m.name = "TrailNet";
    // s-ResNet-18-style trail orientation/offset net (TrailMAV,
    // Smolyanskiy et al., IROS'17), 320x180 camera input.
    Cursor cur{180, 320, 3};
    addConv(m.layers, cur, "stem", 32, 7, 2);
    addPool(m.layers, cur, "pool", 3, 2);
    const struct { uint32_t c; int blocks; uint32_t stride; } stages[] =
        {{32, 2, 1}, {64, 2, 2}, {128, 2, 2}, {256, 2, 2}};
    int stage_idx = 0;
    for (const auto& st : stages) {
        for (int b = 0; b < st.blocks; ++b) {
            std::string name = "s";
            name += std::to_string(stage_idx);
            name += ".b";
            name += std::to_string(b);
            addBasicBlock(m.layers, cur, name, st.c,
                          b == 0 ? st.stride : 1);
        }
        ++stage_idx;
    }
    addPool(m.layers, cur, "gap", cur.h, cur.h);
    // 3-way view orientation + 3-way lateral offset heads.
    m.layers.push_back(fc("heads", 256, 6));
    return m;
}

Model
sosNet()
{
    Model m;
    m.name = "SOSNet";
    // Local descriptor network (Tian et al., CVPR'19) evaluated on a
    // batch of 16 keypoint patches per frame (32x32 each); the batch
    // is expressed with the repeat field.
    constexpr uint32_t patches = 16;
    Cursor cur{32, 32, 1};
    const struct { uint32_t c; uint32_t k; uint32_t s; } convs[] =
        {{32, 3, 1}, {32, 3, 1}, {64, 3, 2}, {64, 3, 1},
         {128, 3, 2}, {128, 3, 1}};
    int idx = 0;
    for (const auto& cv : convs) {
        Layer l = conv("conv" + std::to_string(idx++), cur.h, cur.w,
                       cur.c, cv.c, cv.k, cv.s);
        l.repeat = patches;
        cur.h = l.outH();
        cur.w = l.outW();
        cur.c = cv.c;
        m.layers.push_back(std::move(l));
    }
    Layer d = conv("desc", cur.h, cur.w, cur.c, 128, 8, 8);
    d.repeat = patches;
    m.layers.push_back(std::move(d));
    return m;
}

Model
googLeNetCar()
{
    Model m;
    m.name = "GoogLeNet-car";
    // GoogLeNet (Inception v1) fine-tuned on CompCars (431 classes).
    Cursor cur{224, 224, 3};
    addConv(m.layers, cur, "stem.conv1", 64, 7, 2);
    addPool(m.layers, cur, "stem.pool1", 3, 2);
    addConv(m.layers, cur, "stem.conv2r", 64, 1, 1);
    addConv(m.layers, cur, "stem.conv2", 192, 3, 1);
    addPool(m.layers, cur, "stem.pool2", 3, 2);
    addInception(m.layers, cur, "3a", 64, 96, 128, 16, 32, 32);
    addInception(m.layers, cur, "3b", 128, 128, 192, 32, 96, 64);
    addPool(m.layers, cur, "pool3", 3, 2);
    addInception(m.layers, cur, "4a", 192, 96, 208, 16, 48, 64);
    addInception(m.layers, cur, "4b", 160, 112, 224, 24, 64, 64);
    addInception(m.layers, cur, "4c", 128, 128, 256, 24, 64, 64);
    addInception(m.layers, cur, "4d", 112, 144, 288, 32, 64, 64);
    addInception(m.layers, cur, "4e", 256, 160, 320, 32, 128, 128);
    addPool(m.layers, cur, "pool4", 3, 2);
    addInception(m.layers, cur, "5a", 256, 160, 320, 32, 128, 128);
    addInception(m.layers, cur, "5b", 384, 192, 384, 48, 128, 128);
    addPool(m.layers, cur, "gap", cur.h, cur.h);
    m.layers.push_back(fc("cls.car", 1024, 431));
    return m;
}

} // namespace zoo
} // namespace models
} // namespace dream
