#include "opt/partition_tuner.h"

#include <algorithm>
#include <numeric>

namespace paradise::opt {

std::vector<uint32_t> PackTileGroups(const std::vector<int64_t>& loads,
                                     size_t num_groups) {
  std::vector<uint32_t> group(loads.size(), 0);
  if (num_groups <= 1 || loads.empty()) return group;
  std::vector<uint32_t> order(loads.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&loads](uint32_t a, uint32_t b) {
    if (loads[a] != loads[b]) return loads[a] > loads[b];
    return a < b;
  });
  std::vector<int64_t> group_load(num_groups, 0);
  for (uint32_t t : order) {
    size_t target = 0;
    for (size_t g = 1; g < num_groups; ++g) {
      if (group_load[g] < group_load[target]) target = g;
    }
    group[t] = static_cast<uint32_t>(target);
    group_load[target] += loads[t];
  }
  return group;
}

}  // namespace paradise::opt
