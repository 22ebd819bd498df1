/**
 * @file
 * Multi-accelerator target-system descriptions, including the eight
 * Table 2 presets evaluated in the paper.
 */

#ifndef DREAM_HW_SYSTEM_H
#define DREAM_HW_SYSTEM_H

#include <cstdint>
#include <string>
#include <vector>

#include "hw/accelerator.h"

namespace dream {
namespace hw {

/** A complete target platform: a set of sub-accelerators. */
struct SystemConfig {
    /** Display name, e.g. "4K-1WS+2OS". */
    std::string name;
    /** Sub-accelerators in the system. */
    std::vector<AcceleratorConfig> accelerators;

    /** Total PE count across sub-accelerators. */
    uint32_t totalPes() const;
    /** Number of sub-accelerators. */
    size_t size() const { return accelerators.size(); }
    /** True if all sub-accelerators share one dataflow. */
    bool homogeneous() const;
};

/** Identifier for the eight Table 2 presets. */
enum class SystemPreset {
    Sys4k2Ws,       ///< 4K PEs: 2x WS (2K each)
    Sys4k2Os,       ///< 4K PEs: 2x OS (2K each)
    Sys4k1Ws2Os,    ///< 4K PEs: 1x WS (2K) + 2x OS (1K each)
    Sys4k1Os2Ws,    ///< 4K PEs: 1x OS (2K) + 2x WS (1K each)
    Sys8k2Ws,       ///< 8K PEs: 2x WS (4K each)
    Sys8k2Os,       ///< 8K PEs: 2x OS (4K each)
    Sys8k1Ws2Os,    ///< 8K PEs: 1x WS (4K) + 2x OS (2K each)
    Sys8k1Os2Ws,    ///< 8K PEs: 1x OS (4K) + 2x WS (2K each)
};

/** Build a preset system from Table 2 of the paper. */
SystemConfig makeSystem(SystemPreset preset);

/** All eight Table 2 presets, in Table 2 order. */
std::vector<SystemPreset> allSystemPresets();

/** The four 4K presets (used by Figure 2 and Figure 12). */
std::vector<SystemPreset> systemPresets4k();

/** The four heterogeneous presets (Figure 7). */
std::vector<SystemPreset> heterogeneousPresets();

/** The four homogeneous presets (Figure 8). */
std::vector<SystemPreset> homogeneousPresets();

/** Display name of a preset (matches SystemConfig::name). */
std::string toString(SystemPreset preset);

/**
 * The preset whose display name is @p name, into @p out (when
 * non-null). Returns false for an unknown name.
 */
bool parseSystemPreset(const std::string& name, SystemPreset* out);

} // namespace hw
} // namespace dream

#endif // DREAM_HW_SYSTEM_H
