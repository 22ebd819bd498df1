#include "models/layer.h"

#include <cassert>

namespace dream {
namespace models {

uint32_t
Layer::outH() const
{
    return (inH + stride - 1) / stride;
}

uint32_t
Layer::outW() const
{
    return (inW + stride - 1) / stride;
}

uint64_t
Layer::outPositions() const
{
    return uint64_t(outH()) * outW();
}

uint32_t
Layer::inCPerGroup() const
{
    assert(groups >= 1 && inC % groups == 0);
    return inC / groups;
}

uint64_t
Layer::accumulationDepth() const
{
    return uint64_t(inCPerGroup()) * kH * kW;
}

uint64_t
Layer::macs() const
{
    switch (kind) {
      case LayerKind::Conv2d:
      case LayerKind::FullyConnected:
      case LayerKind::Rnn:
        return outPositions() * outC * accumulationDepth() * repeat;
      case LayerKind::Pool:
        // One accumulate per pooling-window tap.
        return outPositions() * outC * kH * kW * repeat;
      case LayerKind::Eltwise:
        return outPositions() * outC * repeat;
    }
    return 0;
}

uint64_t
Layer::weightBytes() const
{
    switch (kind) {
      case LayerKind::Conv2d:
      case LayerKind::FullyConnected:
      case LayerKind::Rnn:
        // int8 weights; biases are negligible and omitted.
        return uint64_t(outC) * accumulationDepth();
      case LayerKind::Pool:
      case LayerKind::Eltwise:
        return 0;
    }
    return 0;
}

uint64_t
Layer::inputBytes() const
{
    return uint64_t(inH) * inW * inC * repeat;
}

uint64_t
Layer::outputBytes() const
{
    return outPositions() * outC * repeat;
}

Layer
conv(const std::string& name, uint32_t in_h, uint32_t in_w, uint32_t in_c,
     uint32_t out_c, uint32_t k, uint32_t stride)
{
    Layer l;
    l.name = name;
    l.kind = LayerKind::Conv2d;
    l.inH = in_h;
    l.inW = in_w;
    l.inC = in_c;
    l.outC = out_c;
    l.kH = k;
    l.kW = k;
    l.stride = stride;
    return l;
}

Layer
dwConv(const std::string& name, uint32_t in_h, uint32_t in_w, uint32_t c,
       uint32_t k, uint32_t stride)
{
    Layer l = conv(name, in_h, in_w, c, c, k, stride);
    l.groups = c;
    return l;
}

Layer
pwConv(const std::string& name, uint32_t in_h, uint32_t in_w, uint32_t in_c,
       uint32_t out_c)
{
    return conv(name, in_h, in_w, in_c, out_c, 1, 1);
}

Layer
fc(const std::string& name, uint32_t in_features, uint32_t out_features)
{
    Layer l;
    l.name = name;
    l.kind = LayerKind::FullyConnected;
    l.inC = in_features;
    l.outC = out_features;
    return l;
}

Layer
rnn(const std::string& name, uint32_t in_features, uint32_t out_features,
    uint32_t steps)
{
    Layer l = fc(name, in_features, out_features);
    l.kind = LayerKind::Rnn;
    l.repeat = steps;
    return l;
}

Layer
pool(const std::string& name, uint32_t in_h, uint32_t in_w, uint32_t c,
     uint32_t k, uint32_t stride)
{
    Layer l;
    l.name = name;
    l.kind = LayerKind::Pool;
    l.inH = in_h;
    l.inW = in_w;
    l.inC = c;
    l.outC = c;
    l.kH = k;
    l.kW = k;
    l.stride = stride;
    return l;
}

Layer
eltwise(const std::string& name, uint32_t h, uint32_t w, uint32_t c)
{
    Layer l;
    l.name = name;
    l.kind = LayerKind::Eltwise;
    l.inH = h;
    l.inW = w;
    l.inC = c;
    l.outC = c;
    return l;
}

} // namespace models
} // namespace dream
