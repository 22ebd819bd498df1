#include "hw/system.h"

#include <cassert>

namespace dream {
namespace hw {

uint32_t
SystemConfig::totalPes() const
{
    uint32_t total = 0;
    for (const auto& acc : accelerators)
        total += acc.numPes;
    return total;
}

bool
SystemConfig::homogeneous() const
{
    if (accelerators.empty())
        return true;
    const Dataflow df = accelerators.front().dataflow;
    for (const auto& acc : accelerators) {
        if (acc.dataflow != df)
            return false;
    }
    return true;
}

namespace {

AcceleratorConfig
makeAccel(const std::string& name, uint32_t pes, Dataflow df)
{
    AcceleratorConfig acc;
    acc.name = name;
    acc.numPes = pes;
    acc.dataflow = df;
    return acc;
}

} // anonymous namespace

SystemConfig
makeSystem(SystemPreset preset)
{
    constexpr auto ws = Dataflow::WeightStationary;
    constexpr auto os = Dataflow::OutputStationary;
    SystemConfig sys;
    sys.name = toString(preset);
    switch (preset) {
      case SystemPreset::Sys4k2Ws:
        sys.accelerators = {makeAccel("WS0-2K", 2048, ws),
                            makeAccel("WS1-2K", 2048, ws)};
        break;
      case SystemPreset::Sys4k2Os:
        sys.accelerators = {makeAccel("OS0-2K", 2048, os),
                            makeAccel("OS1-2K", 2048, os)};
        break;
      case SystemPreset::Sys4k1Ws2Os:
        sys.accelerators = {makeAccel("WS0-2K", 2048, ws),
                            makeAccel("OS0-1K", 1024, os),
                            makeAccel("OS1-1K", 1024, os)};
        break;
      case SystemPreset::Sys4k1Os2Ws:
        sys.accelerators = {makeAccel("OS0-2K", 2048, os),
                            makeAccel("WS0-1K", 1024, ws),
                            makeAccel("WS1-1K", 1024, ws)};
        break;
      case SystemPreset::Sys8k2Ws:
        sys.accelerators = {makeAccel("WS0-4K", 4096, ws),
                            makeAccel("WS1-4K", 4096, ws)};
        break;
      case SystemPreset::Sys8k2Os:
        sys.accelerators = {makeAccel("OS0-4K", 4096, os),
                            makeAccel("OS1-4K", 4096, os)};
        break;
      case SystemPreset::Sys8k1Ws2Os:
        sys.accelerators = {makeAccel("WS0-4K", 4096, ws),
                            makeAccel("OS0-2K", 2048, os),
                            makeAccel("OS1-2K", 2048, os)};
        break;
      case SystemPreset::Sys8k1Os2Ws:
        sys.accelerators = {makeAccel("OS0-4K", 4096, os),
                            makeAccel("WS0-2K", 2048, ws),
                            makeAccel("WS1-2K", 2048, ws)};
        break;
    }
    assert(!sys.accelerators.empty());
    return sys;
}

bool
parseSystemPreset(const std::string& name, SystemPreset* out)
{
    for (const SystemPreset preset : allSystemPresets()) {
        if (name == toString(preset)) {
            if (out)
                *out = preset;
            return true;
        }
    }
    return false;
}

std::vector<SystemPreset>
allSystemPresets()
{
    return {SystemPreset::Sys4k2Ws,    SystemPreset::Sys4k2Os,
            SystemPreset::Sys4k1Ws2Os, SystemPreset::Sys4k1Os2Ws,
            SystemPreset::Sys8k2Ws,    SystemPreset::Sys8k2Os,
            SystemPreset::Sys8k1Ws2Os, SystemPreset::Sys8k1Os2Ws};
}

std::vector<SystemPreset>
systemPresets4k()
{
    return {SystemPreset::Sys4k2Ws, SystemPreset::Sys4k2Os,
            SystemPreset::Sys4k1Ws2Os, SystemPreset::Sys4k1Os2Ws};
}

std::vector<SystemPreset>
heterogeneousPresets()
{
    return {SystemPreset::Sys4k1Ws2Os, SystemPreset::Sys4k1Os2Ws,
            SystemPreset::Sys8k1Ws2Os, SystemPreset::Sys8k1Os2Ws};
}

std::vector<SystemPreset>
homogeneousPresets()
{
    return {SystemPreset::Sys4k2Ws, SystemPreset::Sys4k2Os,
            SystemPreset::Sys8k2Ws, SystemPreset::Sys8k2Os};
}

std::string
toString(SystemPreset preset)
{
    switch (preset) {
      case SystemPreset::Sys4k2Ws:
        return "4K-2WS";
      case SystemPreset::Sys4k2Os:
        return "4K-2OS";
      case SystemPreset::Sys4k1Ws2Os:
        return "4K-1WS+2OS";
      case SystemPreset::Sys4k1Os2Ws:
        return "4K-1OS+2WS";
      case SystemPreset::Sys8k2Ws:
        return "8K-2WS";
      case SystemPreset::Sys8k2Os:
        return "8K-2OS";
      case SystemPreset::Sys8k1Ws2Os:
        return "8K-1WS+2OS";
      case SystemPreset::Sys8k1Os2Ws:
        return "8K-1OS+2WS";
    }
    return "unknown";
}

} // namespace hw
} // namespace dream
