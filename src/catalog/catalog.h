#ifndef PARADISE_CATALOG_CATALOG_H_
#define PARADISE_CATALOG_CATALOG_H_

#include <string>
#include <vector>

#include "exec/tuple.h"
#include "geom/box.h"

namespace paradise::catalog {

/// How a table's tuples are spread across the cluster (Section 2.3 and
/// 2.7.1): round-robin, or spatial declustering on a grid of tiles over
/// the universe. kTwoLayer tables are stored byte for byte like kSpatial
/// ones; the mode only chooses the join plans: the class-plan partition
/// join, which derives each (copy, tile) begin class (A/B/C/D, after
/// Tsitsigkos et al.'s two-layer space-oriented partitioning) from the
/// MBRs and emits each pair exactly once without reference-point
/// duplicate elimination, and the targeted index-NL multicast.
enum class PartitioningKind { kRoundRobin, kSpatial, kTwoLayer };

/// Both spatial decluster modes share the grid/replication machinery; use
/// this instead of comparing against kSpatial directly.
inline bool IsSpatialPartitioning(PartitioningKind k) {
  return k == PartitioningKind::kSpatial || k == PartitioningKind::kTwoLayer;
}

struct IndexDef {
  std::string name;
  size_t column = 0;
  bool spatial = false;  // R*-tree vs B+-tree
};

/// Table metadata: schema, declustering, indexes, basic statistics. The
/// optimizer reads the stats; the loader fills them in.
struct TableDef {
  std::string name;
  exec::Schema schema;

  PartitioningKind partitioning = PartitioningKind::kRoundRobin;
  size_t partition_column = 0;     // for kSpatial / kTwoLayer
  geom::Box universe;              // for kSpatial: the declustering domain

  std::vector<IndexDef> indexes;

  // Statistics.
  int64_t num_tuples = 0;
  double avg_tuple_bytes = 0.0;

  const IndexDef* FindIndexOn(size_t column, bool spatial) const {
    for (const IndexDef& idx : indexes) {
      if (idx.column == column && idx.spatial == spatial) return &idx;
    }
    return nullptr;
  }
};

}  // namespace paradise::catalog

#endif  // PARADISE_CATALOG_CATALOG_H_
