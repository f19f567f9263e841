#ifndef PARADISE_CORE_PARALLEL_OPS_H_
#define PARADISE_CORE_PARALLEL_OPS_H_

#include <memory>
#include <vector>

#include "core/coordinator.h"
#include "core/pull.h"
#include "core/spatial_grid.h"
#include "core/table.h"
#include "exec/aggregate.h"
#include "exec/exec_context.h"
#include "exec/expr.h"
#include "exec/operators.h"
#include "exec/spatial_join.h"

namespace paradise::core {

/// Tuples held per node between phases (the materialized edges of the
/// operator tree).
using PerNode = std::vector<exec::TupleVec>;

/// Execution context bound to one node, owning its pull source.
struct NodeExecContext {
  std::unique_ptr<PullTileSource> pull;
  exec::ExecContext ctx;
};
NodeExecContext MakeNodeContext(Cluster* cluster, int node);

/// Context for coordinator-side sequential operators.
NodeExecContext MakeCoordinatorContext(Cluster* cluster);

/// Full-fragment parallel scan with optional predicate and projection.
/// Replicated copies are skipped (each logical tuple is seen once, at its
/// primary node).
StatusOr<PerNode> ParallelScan(QueryCoordinator* coord,
                               const ParallelTable& table,
                               const exec::ExprPtr& predicate,
                               const std::vector<exec::ExprPtr>& projection);

/// As ParallelScan but keeps replicated copies in place — the input shape
/// a co-partitioned spatial join wants (its duplicate elimination assumes
/// every node holds all features overlapping its tiles).
StatusOr<PerNode> ParallelScanAll(QueryCoordinator* coord,
                                  const ParallelTable& table,
                                  const exec::ExprPtr& predicate);

/// Spatial indexed selection: probe each fragment's R*-tree with the
/// query MBR, fetch candidate rows, apply the exact predicate, and keep
/// primary copies only.
StatusOr<PerNode> ParallelSpatialIndexSelect(QueryCoordinator* coord,
                                             const ParallelTable& table,
                                             const geom::Box& query_mbr,
                                             const exec::ExprPtr& exact_pred);

/// Scalar indexed selection (B+-tree equality) on a string column.
StatusOr<PerNode> ParallelIndexSelectString(QueryCoordinator* coord,
                                            const ParallelTable& table,
                                            size_t column,
                                            const std::string& key);

/// Scalar indexed selection (B+-tree range) on an int/date column.
StatusOr<PerNode> ParallelIndexSelectIntRange(QueryCoordinator* coord,
                                              const ParallelTable& table,
                                              size_t column, int64_t lo,
                                              int64_t hi);

/// Redistribution (split-stream) phase: each tuple of `input` is sent to
/// the node(s) `route` names; network costs are charged on both ends.
/// Runs as a local partition step (every node bins its own tuples per
/// destination, in parallel) followed by a single merge/charge step after
/// the phase barrier that performs the deliveries and receiver-side
/// charges — see QueryCoordinator::RunPhase's concurrency contract.
StatusOr<PerNode> Redistribute(
    QueryCoordinator* coord, const PerNode& input,
    const std::function<void(const exec::Tuple&, std::vector<uint32_t>*)>&
        route);

/// Replicates every tuple to all nodes (small-outer broadcast join).
StatusOr<PerNode> Broadcast(QueryCoordinator* coord, const PerNode& input);

/// Collects all per-node results at the coordinator (the result pipeline
/// back to the client). Consumes `input`: each tuple moves to the result,
/// in node order. Pass an lvalue to gather a copy.
StatusOr<exec::TupleVec> Gather(QueryCoordinator* coord, PerNode input);

struct ParallelSpatialJoinOptions {
  uint32_t tiles_per_axis = SpatialGrid::kDefaultTilesPerAxis;
  exec::PbsmOptions pbsm;
  /// When both inputs are already declustered on the same grid, phase one
  /// (redistribution) is skipped for them (Section 2.7.2).
  bool left_predeclustered = false;
  bool right_predeclustered = false;
  /// The grid to route and duplicate-eliminate on. A join with a
  /// predeclustered side must pass that table's grid (InvalidArgument
  /// otherwise), whose recorded owners say where the side's rows lie.
  /// When null, both sides are redistributed on a fresh grid: the base
  /// hash over the cluster's nodes, a dead node's tiles rehashed over the
  /// live ones.
  const SpatialGrid* routing_grid = nullptr;
  /// Run the two-layer class mini-join plan (kTwoLayer tables): each node
  /// joins only its owned tiles' class pairs via exec::TwoLayerSpatialJoin
  /// — no reference-point duplicate elimination anywhere (the per-node
  /// dedup_tests/dedup_dropped counters stay 0) and no cross-node result
  /// filter. Results are bit-identical to the legacy replicate-and-dedup
  /// path on the same grid.
  bool two_layer = false;
};

/// Parallel spatial join (Section 2.7.2): spatially redecluster both
/// inputs with replication, run PBSM per node, and eliminate
/// replication-induced duplicates with the reference-point rule. A
/// predeclustered input is read in place, not copied.
StatusOr<PerNode> ParallelSpatialJoin(QueryCoordinator* coord,
                                      const PerNode& left, size_t left_col,
                                      const PerNode& right, size_t right_col,
                                      const geom::Box& universe,
                                      const ParallelSpatialJoinOptions& opts);

/// Indexed nested-loops spatial join (Section 2.4): the small outer is
/// shipped to the inner's nodes and each node probes its fragment's
/// R*-tree with `probe(outer row)`, emitting `emit(outer row, inner row)`
/// for every inner row whose `inner_col` shape intersects the probe.
///  - Routing: the outer is broadcast; a kTwoLayer inner instead receives
///    each row only at the nodes owning a tile its probe MBR overlaps.
///  - Phase "index NL spatial join": a fragment without an R*-tree yields
///    no rows while it holds no live rows (a just-added node) and fails
///    with FAILED_PRECONDITION otherwise. Every R*-tree hit counts as a
///    dedup test in the node's PbsmJoinStats. One copy of each pair is
///    kept: the inner's primary copy, or for a kTwoLayer inner the live
///    copy at the node owning the reference point of the two MBRs'
///    intersection. A hit on a row migration GC dropped is never kept.
StatusOr<PerNode> ParallelIndexSpatialJoin(
    QueryCoordinator* coord, const PerNode& outer, const ParallelTable& inner,
    size_t inner_col,
    const std::function<exec::Value(const exec::Tuple&)>& probe,
    const std::function<exec::Tuple(const exec::Tuple&, const exec::Tuple&)>&
        emit);

/// Two-phase parallel aggregation (Section 2.4): local aggregation on
/// every node, partials shipped to the single global aggregate operator at
/// the coordinator (a deliberately sequential step, as in the paper).
StatusOr<exec::TupleVec> ParallelAggregate(
    QueryCoordinator* coord, const PerNode& input,
    const std::vector<size_t>& group_cols,
    const std::vector<exec::AggregatePtr>& aggs);

/// Query 12's plan (Fig. 3.1): for every point tuple in `points`, find the
/// closest feature among `features` using:
///   1. spatial redeclustering of both inputs on one grid,
///   2. an on-the-fly local R*-tree per node on the features,
///   3. the *spatial semi-join*: if the largest circle around the point
///      inside its tile proves the closest feature is local, the point
///      stays local; otherwise it is replicated to all nodes,
///   4. the join-with-aggregate operator (expanding-circle probes),
///   5. the single global aggregate operator merging per-node candidates.
/// Output tuples: [point, closest shape, distance].
struct ClosestJoinStats {
  int64_t local_points = 0;       // resolved by the semi-join locally
  int64_t replicated_points = 0;  // had to visit every node
};
StatusOr<exec::TupleVec> SpatialJoinWithClosest(
    QueryCoordinator* coord, const PerNode& points, size_t point_col,
    const PerNode& features, size_t shape_col, const geom::Box& universe,
    uint32_t tiles_per_axis = SpatialGrid::kDefaultTilesPerAxis,
    ClosestJoinStats* stats = nullptr);

/// Copy-on-insert into a permanent relation (Sections 2.5.2): stores
/// result tuples round-robin over the *flattened* result (tuple g lands
/// on node g % N, so output fragments differ in cardinality by at most
/// one) into fresh fragments, deep-copying raster attributes to the
/// destination node (pulling tiles if remote). Partitioning runs in
/// parallel; transfers and deep copies happen in the post-barrier merge
/// step.
StatusOr<std::unique_ptr<ParallelTable>> StoreResult(
    QueryCoordinator* coord, const PerNode& input, catalog::TableDef def);

}  // namespace paradise::core

#endif  // PARADISE_CORE_PARALLEL_OPS_H_
