#ifndef PARADISE_OPT_PARTITION_TUNER_H_
#define PARADISE_OPT_PARTITION_TUNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace paradise::opt {

/// LPT packing of two-layer tiles into sweep-task groups: heaviest tile
/// into the least-loaded group, ties to the lowest tile / lowest group
/// index — exposed for exec::TwoLayerOptions::group_packer. `loads[i]` is
/// the combined left+right entry count of (dense) tile i; returns one
/// group id in [0, num_groups) per tile. Pure function of its arguments.
std::vector<uint32_t> PackTileGroups(const std::vector<int64_t>& loads,
                                     size_t num_groups);

}  // namespace paradise::opt

#endif  // PARADISE_OPT_PARTITION_TUNER_H_
