#include "models/model.h"

#include <cassert>

namespace dream {
namespace models {

uint64_t
totalMacs(const std::vector<Layer>& layers)
{
    uint64_t total = 0;
    for (const auto& l : layers)
        total += l.macs();
    return total;
}

uint64_t
Model::totalMacs() const
{
    return models::totalMacs(layers);
}

uint64_t
Model::totalWeightBytes() const
{
    uint64_t total = 0;
    for (const auto& l : layers)
        total += l.weightBytes();
    return total;
}

std::vector<Layer>
Model::variantPath(size_t variant_idx) const
{
    if (variant_idx == 0 || variants.empty())
        return layers;
    assert(variant_idx <= variants.size());
    assert(supernetSwitchPoint <= layers.size());
    std::vector<Layer> path(layers.begin(),
                            layers.begin() + supernetSwitchPoint);
    const auto& body = variants[variant_idx - 1].bodyLayers;
    path.insert(path.end(), body.begin(), body.end());
    return path;
}

} // namespace models
} // namespace dream
