/**
 * @file
 * Model descriptor: an ordered list of layers plus the dynamic-control
 * structure DREAM exploits (skip gates, early exits, Supernet variants).
 */

#ifndef DREAM_MODELS_MODEL_H
#define DREAM_MODELS_MODEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "models/layer.h"

namespace dream {
namespace models {

/**
 * A contiguous block of layers that a control gate can skip
 * (SkipNet-style operator-level dynamicity). When the gate fires, layers
 * [begin, end) are removed from the frame's execution path.
 */
struct SkipBlock {
    size_t begin = 0;       ///< first skippable layer index (inclusive)
    size_t end = 0;         ///< one past the last skippable layer
    double skipProb = 0.0;  ///< probability the gate skips the block
};

/**
 * Early-exit point (BranchyNet / RAPID-RL-style). With probability
 * @ref exitProb the network exits after layer @ref afterLayer and all
 * later layers are removed from the frame's execution path.
 */
struct EarlyExit {
    size_t afterLayer = 0;  ///< exit taken after this layer index
    double exitProb = 0.0;  ///< probability of taking the exit
};

/**
 * One deployable sub-network of a weight-sharing Supernet
 * (Once-for-All). Variants share the prefix [0, switchPoint) of the
 * base model; @ref bodyLayers replaces everything from the switch
 * point on.
 */
struct SupernetVariant {
    std::string name;               ///< e.g. "ofa-v2"
    std::vector<Layer> bodyLayers;  ///< layers after the switch point
};

/**
 * A complete network. `layers` is the default (heaviest) execution
 * path. The dynamic-control members describe the alternative paths a
 * frame can materialise at run time.
 */
struct Model {
    std::string name;
    std::vector<Layer> layers;

    /** SkipNet-style gated blocks (may be empty). */
    std::vector<SkipBlock> skipBlocks;
    /** Early-exit points (may be empty). */
    std::vector<EarlyExit> earlyExits;
    /**
     * Supernet variants (empty for ordinary models). Variant paths are
     * `layers[0, supernetSwitchPoint) + variants[i].bodyLayers`. The
     * default path (`layers`) is the "Original" heaviest subnet.
     */
    std::vector<SupernetVariant> variants;
    /** Layer index where Supernet variants diverge. */
    size_t supernetSwitchPoint = 0;

    /** True if this model is Supernet-based. */
    bool isSupernet() const { return !variants.empty(); }

    /** Total MACs of the default path. */
    uint64_t totalMacs() const;
    /** Total weight bytes of the default path. */
    uint64_t totalWeightBytes() const;

    /**
     * Materialise the layer sequence for Supernet variant
     * @p variant_idx (0 == original / default path).
     */
    std::vector<Layer> variantPath(size_t variant_idx) const;
};

/** Sum of MACs over a layer sequence. */
uint64_t totalMacs(const std::vector<Layer>& layers);

} // namespace models
} // namespace dream

#endif // DREAM_MODELS_MODEL_H
