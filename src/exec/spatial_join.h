#ifndef PARADISE_EXEC_SPATIAL_JOIN_H_
#define PARADISE_EXEC_SPATIAL_JOIN_H_

#include <vector>

#include "exec/exec_context.h"
#include "exec/operators.h"
#include "exec/tuple.h"
#include "index/r_star_tree.h"

namespace paradise::exec {

struct PbsmOptions {
  /// Join partitions per node. [Pate96] uses many more partitions than
  /// would fit-by-size to smooth skew.
  size_t num_partitions = 32;
  /// Grid resolution; 0 = auto (~16 cells per partition).
  size_t cells_per_axis = 0;
};

/// Partition Based Spatial-Merge join [Pate96]: grid-partition both
/// inputs' MBRs with replication, plane-sweep each partition for candidate
/// pairs, drop duplicates by the reference-point rule, and run the exact
/// geometry test on survivors. This is the local (single-node) algorithm
/// used in phase two of the parallel spatial join (Section 2.7.2).
///
/// Cells map to partitions block-interleaved: cells are tiled into small
/// blocks, each block's coordinates are mixed through a 64-bit finalizer,
/// and the cells inside a block are assigned round-robin starting at the
/// block's hash. Adjacent cells always hit distinct partitions and
/// distinct blocks are decorrelated, so hot regions spread over all
/// partitions.
///
/// When `ctx.pool` has more than one thread, the per-partition sweeps run
/// as pool tasks (partition-to-threads, the winning in-memory strategy of
/// Tsitsigkos et al. 2019). Each task charges a task-local clock and
/// collects its own output; tasks are merged in partition order after the
/// barrier, so the result order and the modeled charges are bit-identical
/// for any thread count. `ctx.pbsm_stats`, when set, receives the
/// partition-shape counters of this join.
StatusOr<TupleVec> PbsmSpatialJoin(const TupleVec& left, size_t left_col,
                                   const TupleVec& right, size_t right_col,
                                   const ExecContext& ctx,
                                   const PbsmOptions& options = {});

/// Two-layer begin class of one (MBR, tile) entry, after Tsitsigkos et
/// al.'s space-oriented partitioning, as geom::TileGrid::ClassAt computes
/// it from the MBR's cell range: A = the tile contains the MBR's
/// reference point (its begin tile), B = the MBR spilled in along x only,
/// C = along y only, D = along both. Tables never store it.
enum class TileClass : uint8_t { kA = 0, kB = 1, kC = 2, kD = 3 };

struct TwoLayerOptions {
  /// Tile grid resolution. The grid arithmetic is core::SpatialGrid's
  /// (geom::TileGrid), so a parallel caller can pass its decluster
  /// grid's geometry and the mini-joins line up with the replica
  /// placement exactly.
  uint32_t tiles_per_axis = 32;
  /// Universe the tile grid covers, used as given even when it has zero
  /// width or height (that axis then maps to cell 0, as in SpatialGrid);
  /// empty = union of the inputs' MBRs (inflated when degenerate), like
  /// PbsmSpatialJoin's auto-universe.
  geom::Box universe = geom::Box::Empty();
  /// Optional ownership filter, one byte per tile id (row-major from the
  /// upper-left corner, SpatialGrid numbering): only tiles with a nonzero
  /// byte run their mini-joins. Null = every tile. A parallel join passes
  /// the set of tiles this node owns; with each tile owned by exactly one
  /// node, the per-node unions reproduce the global result exactly once.
  const std::vector<uint8_t>* owned = nullptr;
  /// Sweep-task groups the owned tiles are packed into
  /// (partition-to-threads; the group count never depends on the thread
  /// count).
  size_t num_tasks = 32;
  /// Optional load-aware tile→group packer (opt::PackTileGroups): takes
  /// the combined left+right entry count per owned tile and the group
  /// count, returns a group id in [0, num_groups) per tile. Must be a
  /// pure function of its arguments. Null = contiguous equal-load prefix
  /// packing.
  std::vector<uint32_t> (*group_packer)(const std::vector<int64_t>& loads,
                                        size_t num_groups) = nullptr;
};

/// Two-layer class mini-join plan: both inputs are distributed over the
/// tile grid with per-(entry, tile) begin classes, and each owned tile
/// runs the nine class pairs that can contain a pair's intersection
/// reference point — A×{A,B,C,D}, {B,C,D}×A, B×C, C×B — as separate
/// plane sweeps over the class-contiguous sorted lists. Each overlapping
/// pair is emitted exactly once (at the tile holding the intersection's
/// reference point, which is always an overlapped tile of both MBRs), so
/// the reference-point duplicate-elimination branch of PBSM never runs:
/// `PbsmJoinStats::dedup_tests` and `dedup_dropped` are exactly 0.
/// Same determinism contract as PbsmSpatialJoin: results, charges, and
/// stats are bit-identical for any `ctx.pool` thread count.
StatusOr<TupleVec> TwoLayerSpatialJoin(const TupleVec& left, size_t left_col,
                                       const TupleVec& right, size_t right_col,
                                       const ExecContext& ctx,
                                       const TwoLayerOptions& options = {});

/// Charges index-probe I/O with buffer-pool awareness: node visits pay a
/// cold random page read until the cumulative reads cover the whole index
/// once (after which the ~page-sized nodes are pool-resident and visits
/// cost CPU only). Mirrors how a 32 MB pool treats a sub-MB index under a
/// probe-heavy join.
class IndexProbeCharger {
 public:
  IndexProbeCharger(const ExecContext& ctx, size_t index_nodes)
      : ctx_(ctx), cold_remaining_(static_cast<int64_t>(index_nodes)) {}

  void ChargeVisits(int64_t visited);

 private:
  const ExecContext& ctx_;
  int64_t cold_remaining_;
};

/// One step of the `closest` machinery: finds the inner row closest to
/// `point` by expanding-circle index probes (Section 2.7.3 / Query 12's
/// join-with-aggregate operator). The initial circle has one millionth of
/// `universe_area`; each miss doubles the area; past the universe bound it
/// degenerates to a full scan. A `universe_area` that gives no positive
/// start radius (zero, as for a zero-width or zero-height universe, or
/// NaN) goes straight to the scan: such a circle could never grow.
struct ClosestMatch {
  bool found = false;
  size_t row = 0;
  double distance = 0.0;
  int probes = 0;  // circle expansions used
};
StatusOr<ClosestMatch> ExpandingCircleClosest(const geom::Point& point,
                                              const TupleVec& targets,
                                              size_t shape_col,
                                              const index::RStarTree& index,
                                              double universe_area,
                                              const ExecContext& ctx);

/// Builds an R*-tree over the MBRs of `tuples[...][shape_col]`, entry id =
/// row index — the "index built on the fly" of Query 12 step 3.
std::unique_ptr<index::RStarTree> BuildRTreeOnColumn(const TupleVec& tuples,
                                                     size_t shape_col,
                                                     const ExecContext& ctx);

}  // namespace paradise::exec

#endif  // PARADISE_EXEC_SPATIAL_JOIN_H_
