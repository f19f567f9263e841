#include "core/parallel_ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/logging.h"
#include "opt/partition_tuner.h"
#include "sim/cost_model.h"

namespace paradise::core {

using exec::ExecContext;
using exec::ExprPtr;
using exec::Tuple;
using exec::TupleVec;
using exec::Value;
using exec::ValueType;
using geom::Box;
using geom::Point;

NodeExecContext MakeNodeContext(Cluster* cluster, int node) {
  NodeExecContext out;
  out.pull = std::make_unique<PullTileSource>(cluster,
                                              static_cast<uint32_t>(node));
  PullTileSource* pull = out.pull.get();
  out.ctx.node_id = static_cast<uint32_t>(node);
  out.ctx.clock = cluster->node(node).clock();
  out.ctx.temp_store = cluster->node(node).temp_store();
  out.ctx.pool = cluster->thread_pool();
  out.ctx.tile_source = [pull](uint32_t) -> array::TileSource* {
    return pull;  // dispatches local vs remote per tile
  };
  return out;
}

NodeExecContext MakeCoordinatorContext(Cluster* cluster) {
  // The coordinator runs on node 0's machine in the paper's setup; its
  // sequential operators charge the dedicated coordinator clock and pull
  // tiles as a "virtual node" colocated with node 0.
  NodeExecContext out;
  out.pull = std::make_unique<PullTileSource>(cluster, 0);
  PullTileSource* pull = out.pull.get();
  out.ctx.node_id = 0;
  out.ctx.clock = cluster->coordinator_clock();
  out.ctx.temp_store = cluster->node(0).temp_store();
  out.ctx.pool = cluster->thread_pool();
  out.ctx.tile_source = [pull](uint32_t) -> array::TileSource* {
    return pull;
  };
  return out;
}

StatusOr<PerNode> ParallelScan(QueryCoordinator* coord,
                               const ParallelTable& table,
                               const ExprPtr& predicate,
                               const std::vector<ExprPtr>& projection) {
  Cluster* cluster = coord->cluster();
  PerNode out(cluster->num_nodes());
  // The phase streams the table's fragment pages (and, for raster
  // projections, their tiles) via each node's own closure, so it is safe
  // to share its readahead with a concurrent scan of the same table.
  QueryCoordinator::PhaseOptions popts;
  popts.scan_share_key = "scan:" + table.def().name;
  PARADISE_RETURN_IF_ERROR(coord->RunPhase("scan", popts, [&](int n) -> Status {
    NodeExecContext nc = MakeNodeContext(cluster, n);
    PARADISE_ASSIGN_OR_RETURN(
        TupleVec rows,
        table.ScanFragment(cluster, n, true, predicate, &nc.ctx));
    if (!projection.empty()) {
      PARADISE_ASSIGN_OR_RETURN(rows, exec::Project(rows, projection, nc.ctx));
    }
    out[n] = std::move(rows);
    return Status::OK();
  }));
  return out;
}

StatusOr<PerNode> ParallelScanAll(QueryCoordinator* coord,
                                  const ParallelTable& table,
                                  const ExprPtr& predicate) {
  Cluster* cluster = coord->cluster();
  PerNode out(cluster->num_nodes());
  QueryCoordinator::PhaseOptions popts;
  popts.scan_share_key = "scan:" + table.def().name;
  PARADISE_RETURN_IF_ERROR(coord->RunPhase(
      "scan all", popts, [&](int n) -> Status {
    NodeExecContext nc = MakeNodeContext(cluster, n);
    PARADISE_ASSIGN_OR_RETURN(
        out[n], table.ScanFragment(cluster, n, false, predicate, &nc.ctx));
    return Status::OK();
  }));
  return out;
}

StatusOr<PerNode> ParallelSpatialIndexSelect(QueryCoordinator* coord,
                                             const ParallelTable& table,
                                             const Box& query_mbr,
                                             const ExprPtr& exact_pred) {
  Cluster* cluster = coord->cluster();
  PerNode out(cluster->num_nodes());
  PARADISE_RETURN_IF_ERROR(
      coord->RunPhase("spatial index select", [&](int n) -> Status {
        const ParallelTable::Fragment& frag = table.fragment(n);
        if (frag.rtree == nullptr) {
          // A just-joined node's fragment is empty until migration lands
          // rows (which builds the index incrementally): zero matches.
          if (frag.num_live() == 0) return Status::OK();
          return Status::FailedPrecondition("no spatial index");
        }
        NodeExecContext nc = MakeNodeContext(cluster, n);
        int64_t nodes_visited = 0;
        std::vector<uint64_t> rows;
        frag.rtree->SearchOverlap(
            query_mbr,
            [&](const Box&, uint64_t row) {
              rows.push_back(row);
              return true;
            },
            &nodes_visited);
        nc.ctx.clock->ChargeDiskRead(nodes_visited * storage::kPageSize,
                                     nodes_visited);
        for (uint64_t row : rows) {
          // Replica check first: the primary flag lives in the fragment
          // metadata, so skipping a replica must not cost a page fetch
          // (otherwise modeled I/O inflates with the replication factor).
          if (!table.PrimaryFilter(n, row)) continue;
          PARADISE_ASSIGN_OR_RETURN(Tuple t, table.FetchRow(cluster, n, row));
          if (exact_pred != nullptr) {
            PARADISE_ASSIGN_OR_RETURN(bool keep,
                                      EvalPredicate(exact_pred, t, nc.ctx));
            if (!keep) continue;
          }
          out[n].push_back(std::move(t));
        }
        return Status::OK();
      }));
  return out;
}

namespace {

Status ChargeBTreeProbe(sim::NodeClock* clock, size_t height) {
  clock->ChargeCpu(sim::cpu_cost::kIndexProbe);
  clock->ChargeDiskRead(static_cast<int64_t>(height * storage::kPageSize),
                        static_cast<int64_t>(height));
  return Status::OK();
}

}  // namespace

StatusOr<PerNode> ParallelIndexSelectString(QueryCoordinator* coord,
                                            const ParallelTable& table,
                                            size_t column,
                                            const std::string& key) {
  Cluster* cluster = coord->cluster();
  PerNode out(cluster->num_nodes());
  PARADISE_RETURN_IF_ERROR(
      coord->RunPhase("index select", [&](int n) -> Status {
        const ParallelTable::Fragment& frag = table.fragment(n);
        auto it = frag.string_indexes.find(column);
        if (it == frag.string_indexes.end()) {
          if (frag.num_live() == 0) return Status::OK();  // fresh node
          return Status::FailedPrecondition("no index on column");
        }
        PARADISE_RETURN_IF_ERROR(
            ChargeBTreeProbe(cluster->node(n).clock(), it->second.height()));
        for (uint64_t row : it->second.Find(key)) {
          if (!table.PrimaryFilter(n, row)) continue;
          PARADISE_ASSIGN_OR_RETURN(Tuple t, table.FetchRow(cluster, n, row));
          out[n].push_back(std::move(t));
        }
        return Status::OK();
      }));
  return out;
}

StatusOr<PerNode> ParallelIndexSelectIntRange(QueryCoordinator* coord,
                                              const ParallelTable& table,
                                              size_t column, int64_t lo,
                                              int64_t hi) {
  Cluster* cluster = coord->cluster();
  PerNode out(cluster->num_nodes());
  PARADISE_RETURN_IF_ERROR(
      coord->RunPhase("index range select", [&](int n) -> Status {
        const ParallelTable::Fragment& frag = table.fragment(n);
        auto it = frag.int_indexes.find(column);
        if (it == frag.int_indexes.end()) {
          if (frag.num_live() == 0) return Status::OK();  // fresh node
          return Status::FailedPrecondition("no index on column");
        }
        sim::NodeClock* clock = cluster->node(n).clock();
        PARADISE_RETURN_IF_ERROR(ChargeBTreeProbe(clock, it->second.height()));
        std::vector<uint64_t> rows;
        it->second.RangeScan(lo, hi, [&](const int64_t&, const uint64_t& row) {
          rows.push_back(row);
          return true;
        });
        // Leaf pages touched by the range: ceil(rows / entries-per-leaf),
        // and nothing at all for an empty range (the probe already paid
        // the descent to the would-be position).
        if (!rows.empty()) {
          int64_t leaves = static_cast<int64_t>(
              (rows.size() + index::BPlusTree<int64_t>::kMaxEntries - 1) /
              index::BPlusTree<int64_t>::kMaxEntries);
          clock->ChargeDiskRead(leaves * storage::kPageSize, 1);
        }
        for (uint64_t row : rows) {
          if (!table.PrimaryFilter(n, row)) continue;
          PARADISE_ASSIGN_OR_RETURN(Tuple t, table.FetchRow(cluster, n, row));
          out[n].push_back(std::move(t));
        }
        return Status::OK();
      }));
  return out;
}

StatusOr<PerNode> Redistribute(
    QueryCoordinator* coord, const PerNode& input,
    const std::function<void(const Tuple&, std::vector<uint32_t>*)>& route) {
  Cluster* cluster = coord->cluster();
  int N = cluster->num_nodes();
  PerNode out(N);
  // In degraded (N-1) mode a route function that predates the loss may
  // still name a dead destination; remap those over the survivors
  // deterministically so no tuple lands on a node that will never run.
  const std::vector<int> alive_ids = cluster->alive_node_ids();
  const bool degraded = static_cast<int>(alive_ids.size()) < N;
  // Exchange protocol in two steps. Partition: every node bins its own
  // tuples per destination, touching only its own clock. Merge (after the
  // barrier, single-threaded): deliveries, receiver-side deserialization
  // CPU, and link transfers — everything that mutates *other* nodes.
  struct OutBin {
    TupleVec tuples;
    int64_t bytes = 0;  // wire bytes headed off-node
  };
  std::vector<std::vector<OutBin>> bins(N, std::vector<OutBin>(N));
  PARADISE_RETURN_IF_ERROR(coord->RunPhase(
      "redistribute",
      [&](int n) -> Status {
        sim::NodeClock* clock = cluster->node(n).clock();
        std::vector<uint32_t> dests;
        for (const Tuple& t : input[n]) {
          clock->ChargeCpu(sim::cpu_cost::kTupleOverhead +
                           sim::cpu_cost::kHash);
          dests.clear();
          route(t, &dests);
          if (degraded) {
            for (uint32_t& d : dests) {
              if (!cluster->alive(static_cast<int>(d))) {
                d = static_cast<uint32_t>(alive_ids[d % alive_ids.size()]);
              }
            }
            std::sort(dests.begin(), dests.end());
            dests.erase(std::unique(dests.begin(), dests.end()),
                        dests.end());
          }
          size_t wire = t.WireBytes();
          for (uint32_t d : dests) {
            PARADISE_DCHECK(d < static_cast<uint32_t>(N));
            OutBin& bin = bins[n][d];
            if (static_cast<int>(d) != n) {
              bin.bytes += static_cast<int64_t>(wire);
            }
            bin.tuples.push_back(t);
          }
        }
        return Status::OK();
      },
      [&]() -> Status {
        for (int n = 0; n < N; ++n) {
          for (int d = 0; d < N; ++d) {
            OutBin& bin = bins[n][d];
            if (d != n) {
              // Receiver pays deserialization CPU.
              sim::NodeClock* receiver = cluster->node(d).clock();
              for (const Tuple& t : bin.tuples) {
                receiver->ChargeCpu(sim::cpu_cost::kPerByteCopied *
                                    static_cast<double>(t.WireBytes()));
              }
            }
            cluster->ChargeTransfer(static_cast<uint32_t>(n),
                                    static_cast<uint32_t>(d), bin.bytes);
            for (Tuple& t : bin.tuples) out[d].push_back(std::move(t));
            bin.tuples.clear();
          }
        }
        return Status::OK();
      }));
  return out;
}

StatusOr<PerNode> Broadcast(QueryCoordinator* coord, const PerNode& input) {
  int N = coord->cluster()->num_nodes();
  return Redistribute(coord, input,
                      [N](const Tuple&, std::vector<uint32_t>* dests) {
                        for (int d = 0; d < N; ++d) {
                          dests->push_back(static_cast<uint32_t>(d));
                        }
                      });
}

StatusOr<TupleVec> Gather(QueryCoordinator* coord, PerNode input) {
  Cluster* cluster = coord->cluster();
  size_t total = 0;
  for (const TupleVec& v : input) total += v.size();
  TupleVec out;
  out.reserve(total);
  PARADISE_RETURN_IF_ERROR(coord->RunSequential("gather", [&]() -> Status {
    for (int n = 0; n < cluster->num_nodes(); ++n) {
      int64_t bytes = 0;
      for (Tuple& t : input[n]) {
        bytes += static_cast<int64_t>(t.WireBytes());
        out.push_back(std::move(t));
      }
      cluster->ChargeToCoordinator(n, bytes);
    }
    return Status::OK();
  }));
  return out;
}

namespace {

/// The grid a join that redistributes both of its inputs routes on: the
/// base hash over every node of the cluster, with the tiles of a node that
/// is not alive rehashed over the live ones. Without that rehash the
/// reference-point filter asks a dead node for its vote and its pairs
/// vanish from the answer.
SpatialGrid MakeRoutingGrid(Cluster* cluster, const Box& universe,
                            uint32_t tiles_per_axis) {
  SpatialGrid grid(universe, tiles_per_axis,
                   static_cast<uint32_t>(cluster->num_nodes()));
  grid.RehashOntoLive(cluster->alive_node_ids());
  return grid;
}

}  // namespace

StatusOr<PerNode> ParallelSpatialJoin(QueryCoordinator* coord,
                                      const PerNode& left, size_t left_col,
                                      const PerNode& right, size_t right_col,
                                      const Box& universe,
                                      const ParallelSpatialJoinOptions& opts) {
  Cluster* cluster = coord->cluster();
  int N = cluster->num_nodes();
  // A side read where it lies is placed by its table's grid, so routing
  // and duplicate elimination must use that grid's recorded owners.
  if ((opts.left_predeclustered || opts.right_predeclustered) &&
      opts.routing_grid == nullptr) {
    return Status::InvalidArgument(
        "a predeclustered join side needs its table's grid as routing_grid");
  }
  SpatialGrid fresh;
  if (opts.routing_grid == nullptr) {
    fresh = MakeRoutingGrid(cluster, universe, opts.tiles_per_axis);
  }
  const SpatialGrid& grid =
      opts.routing_grid != nullptr ? *opts.routing_grid : fresh;

  // Phase 1: spatial redeclustering with replication (skipped for inputs
  // already declustered on this grid).
  auto route_spatial = [&grid](size_t col) {
    return [&grid, col](const Tuple& t, std::vector<uint32_t>* dests) {
      *dests = grid.NodesOfBox(t.at(col).Mbr());
    };
  };
  // A predeclustered side is joined where it lies; only a redistributed
  // side is materialized.
  PerNode left_redistributed;
  const PerNode* left_placed = &left;
  if (!opts.left_predeclustered) {
    PARADISE_ASSIGN_OR_RETURN(
        left_redistributed, Redistribute(coord, left, route_spatial(left_col)));
    left_placed = &left_redistributed;
  }
  PerNode right_redistributed;
  const PerNode* right_placed = &right;
  if (!opts.right_predeclustered) {
    PARADISE_ASSIGN_OR_RETURN(
        right_redistributed,
        Redistribute(coord, right, route_spatial(right_col)));
    right_placed = &right_redistributed;
  }

  // Phase 2: local join.
  PerNode out(N);
  if (opts.two_layer) {
    // Two-layer class mini-join plan: each node sweeps only the tiles it
    // owns, every pair is emitted exactly once at the tile holding the
    // intersection's reference point — which the replica-completeness
    // invariant guarantees this node stores both sides of. No dedup
    // filter runs, here or per partition.
    PARADISE_RETURN_IF_ERROR(
        coord->RunPhase("two-layer join", [&](int n) -> Status {
          NodeExecContext nc = MakeNodeContext(cluster, n);
          nc.ctx.pbsm_stats = coord->node_pbsm_stats(n);
          std::vector<uint8_t> owned(grid.num_tiles(), 0);
          for (uint32_t t = 0; t < grid.num_tiles(); ++t) {
            owned[t] = grid.NodeOfTile(t) == static_cast<uint32_t>(n) ? 1 : 0;
          }
          exec::TwoLayerOptions two;
          two.tiles_per_axis = grid.tiles_per_axis();
          two.universe = grid.universe();
          two.owned = &owned;
          two.num_tasks = std::max<size_t>(1, opts.pbsm.num_partitions);
          two.group_packer = &opt::PackTileGroups;
          PARADISE_ASSIGN_OR_RETURN(
              out[n],
              exec::TwoLayerSpatialJoin((*left_placed)[n], left_col,
                                        (*right_placed)[n], right_col, nc.ctx,
                                        two));
          return Status::OK();
        }));
  } else {
    // Replicate-and-dedup: PBSM per node, then cross-node duplicate
    // elimination by the reference-point rule. Every joined tuple pays a
    // reference-point test; the per-node sink tallies them (and the
    // duplicates they drop) so the replicate-and-dedup cost is observable
    // next to the two-layer path's guaranteed zeros.
    size_t left_width = 0;
    for (const TupleVec& v : left) {
      if (!v.empty()) {
        left_width = v[0].size();
        break;
      }
    }
    PARADISE_RETURN_IF_ERROR(
        coord->RunPhase("pbsm join", [&](int n) -> Status {
          NodeExecContext nc = MakeNodeContext(cluster, n);
          // Each node fills only its own per-query sink (the RunPhase
          // contract); the coordinator aggregates them for the report.
          exec::PbsmJoinStats* sink = coord->node_pbsm_stats(n);
          nc.ctx.pbsm_stats = sink;
          PARADISE_ASSIGN_OR_RETURN(
              TupleVec joined,
              exec::PbsmSpatialJoin((*left_placed)[n], left_col,
                                    (*right_placed)[n], right_col, nc.ctx,
                                    opts.pbsm));
          sink->dedup_tests += static_cast<int64_t>(joined.size());
          for (Tuple& t : joined) {
            Box lb = t.at(left_col).Mbr();
            Box rb = t.at(left_width + right_col).Mbr();
            Point rp = grid.ClampToUniverse(
                Point{std::max(lb.xmin, rb.xmin), std::max(lb.ymin, rb.ymin)});
            if (grid.NodeOfPoint(rp) != static_cast<uint32_t>(n)) {
              ++sink->dedup_dropped;
              continue;
            }
            out[n].push_back(std::move(t));
          }
          return Status::OK();
        }));
  }
  return out;
}

StatusOr<PerNode> ParallelIndexSpatialJoin(
    QueryCoordinator* coord, const PerNode& outer, const ParallelTable& inner,
    size_t inner_col, const std::function<Value(const Tuple&)>& probe,
    const std::function<Tuple(const Tuple&, const Tuple&)>& emit) {
  Cluster* cluster = coord->cluster();
  const bool two_layer =
      inner.def().partitioning == catalog::PartitioningKind::kTwoLayer;
  const SpatialGrid& grid = inner.grid();
  PerNode everywhere;
  if (two_layer) {
    // Targeted multicast: a two-layer inner is declustered on its grid, so
    // a probe only needs the nodes whose tiles its MBR overlaps — far fewer
    // copies cross the network than a broadcast.
    PARADISE_ASSIGN_OR_RETURN(
        everywhere,
        Redistribute(coord, outer,
                     [&](const Tuple& t, std::vector<uint32_t>* dests) {
                       *dests = grid.NodesOfBox(probe(t).Mbr());
                     }));
  } else {
    PARADISE_ASSIGN_OR_RETURN(everywhere, Broadcast(coord, outer));
  }
  PerNode out(cluster->num_nodes());
  PARADISE_RETURN_IF_ERROR(
      coord->RunPhase("index NL spatial join", [&](int n) -> Status {
        const ParallelTable::Fragment& frag = inner.fragment(n);
        if (frag.rtree == nullptr) {
          // As in ParallelSpatialIndexSelect: a just-joined node's fragment
          // is empty until migration lands rows (and builds the index).
          if (frag.num_live() == 0) return Status::OK();
          return Status::FailedPrecondition("inner has no spatial index");
        }
        NodeExecContext nc = MakeNodeContext(cluster, n);
        exec::PbsmJoinStats* sink = coord->node_pbsm_stats(n);
        exec::IndexProbeCharger charger(nc.ctx, frag.rtree->num_nodes());
        std::vector<std::pair<Box, uint64_t>> hits;
        for (const Tuple& o : everywhere[n]) {
          const Value shape = probe(o);
          const Box box = shape.Mbr();
          nc.ctx.ChargeCpu(sim::cpu_cost::kIndexProbe);
          int64_t visited = 0;
          hits.clear();
          frag.rtree->SearchOverlap(
              box,
              [&](const Box& b, uint64_t row) {
                hits.emplace_back(b, row);
                return true;
              },
              &visited);
          charger.ChargeVisits(visited);
          for (const auto& [ibox, row] : hits) {
            ++sink->dedup_tests;
            bool keep;
            if (two_layer) {
              // The node owning the tile of the intersection's reference
              // point both received the probe (that tile overlaps the
              // probe MBR) and stores the inner replica: each pair
              // qualifies there and nowhere else. The R*-tree keeps the
              // entries of rows migration GC dropped, so a hit on a row
              // that is not live is dropped too (PrimaryFilter implies it).
              Point rp = grid.ClampToUniverse(Point{
                  std::max(box.xmin, ibox.xmin), std::max(box.ymin, ibox.ymin)});
              keep = frag.row_live(row) &&
                     grid.NodeOfPoint(rp) == static_cast<uint32_t>(n);
            } else {
              keep = inner.PrimaryFilter(n, row);
            }
            if (!keep) {
              ++sink->dedup_dropped;
              continue;
            }
            PARADISE_ASSIGN_OR_RETURN(Tuple t, inner.FetchRow(cluster, n, row));
            // Inner shape first, the order Query 8 has always used. With a
            // box probe this order is charged twice (SpatialIntersectsExact
            // hands (shape, box) back to the charging SpatialIntersects),
            // and Query 8's recorded modeled seconds include that charge.
            // Point, polyline and polygon columns charge the same in
            // either order.
            PARADISE_ASSIGN_OR_RETURN(
                bool hit, exec::SpatialIntersects(t.at(inner_col), shape,
                                                  nc.ctx));
            if (hit) out[n].push_back(emit(o, t));
          }
        }
        return Status::OK();
      }));
  return out;
}

StatusOr<TupleVec> ParallelAggregate(QueryCoordinator* coord,
                                     const PerNode& input,
                                     const std::vector<size_t>& group_cols,
                                     const std::vector<exec::AggregatePtr>& aggs) {
  Cluster* cluster = coord->cluster();
  int N = cluster->num_nodes();
  PerNode partials(N);
  PARADISE_RETURN_IF_ERROR(
      coord->RunPhase("local aggregate", [&](int n) -> Status {
        NodeExecContext nc = MakeNodeContext(cluster, n);
        PARADISE_ASSIGN_OR_RETURN(
            partials[n], exec::AggregateLocal(input[n], group_cols, aggs,
                                              nc.ctx));
        return Status::OK();
      }));

  // The single global aggregate operator (sequential, as in the paper).
  TupleVec result;
  PARADISE_RETURN_IF_ERROR(
      coord->RunSequential("global aggregate", [&]() -> Status {
        TupleVec all;
        for (int n = 0; n < N; ++n) {
          int64_t bytes = 0;
          for (const Tuple& t : partials[n]) {
            bytes += static_cast<int64_t>(t.WireBytes());
            all.push_back(t);
          }
          cluster->ChargeToCoordinator(n, bytes);
        }
        NodeExecContext cc = MakeCoordinatorContext(cluster);
        PARADISE_ASSIGN_OR_RETURN(
            result,
            exec::AggregateGlobal(all, group_cols.size(), aggs, cc.ctx));
        return Status::OK();
      }));
  return result;
}

StatusOr<TupleVec> SpatialJoinWithClosest(
    QueryCoordinator* coord, const PerNode& points, size_t point_col,
    const PerNode& features, size_t shape_col, const Box& universe,
    uint32_t tiles_per_axis, ClosestJoinStats* stats) {
  Cluster* cluster = coord->cluster();
  int N = cluster->num_nodes();
  const SpatialGrid grid = MakeRoutingGrid(cluster, universe, tiles_per_axis);
  double universe_area = universe.Area();

  // Step 1-2: decluster features (with replication) and points on the
  // same grid.
  PARADISE_ASSIGN_OR_RETURN(
      PerNode features_placed,
      Redistribute(coord, features,
                   [&](const Tuple& t, std::vector<uint32_t>* dests) {
                     *dests = grid.NodesOfBox(t.at(shape_col).Mbr());
                   }));
  PARADISE_ASSIGN_OR_RETURN(
      PerNode points_placed,
      Redistribute(coord, points,
                   [&](const Tuple& t, std::vector<uint32_t>* dests) {
                     dests->push_back(grid.NodeOfPoint(t.at(point_col).AsPoint()));
                   }));

  // Step 3 + semi-join: build the local index on the fly; points whose
  // largest inscribed circle finds the answer stay local, others are
  // collected for replication.
  std::vector<std::unique_ptr<index::RStarTree>> trees(N);
  PerNode partials(N);    // [point, shape, distance] candidates
  PerNode unresolved(N);  // point tuples needing every node
  // Per-node tallies: node n's closure may only write slot n.
  std::vector<int64_t> local_counts(N, 0);
  PARADISE_RETURN_IF_ERROR(
      coord->RunPhase("spatial semi-join", [&](int n) -> Status {
        NodeExecContext nc = MakeNodeContext(cluster, n);
        trees[n] = exec::BuildRTreeOnColumn(features_placed[n], shape_col,
                                            nc.ctx);
        for (const Tuple& pt : points_placed[n]) {
          const Point& p = pt.at(point_col).AsPoint();
          uint32_t tile = grid.TileOfPoint(p);
          double radius = grid.TileBox(tile).BoundaryDistanceFrom(p);
          // Probe the inscribed circle.
          nc.ctx.clock->ChargeCpu(sim::cpu_cost::kIndexProbe);
          int64_t visited = 0;
          double best_d = std::numeric_limits<double>::infinity();
          size_t best_row = 0;
          trees[n]->SearchCircle(
              geom::Circle(p, radius),
              [&](const Box&, uint64_t row) {
                auto d_or = SpatialDistance(
                    Value(p), features_placed[n][row].at(shape_col), nc.ctx);
                if (d_or.ok() && *d_or < best_d) {
                  best_d = *d_or;
                  best_row = row;
                }
                return true;
              },
              &visited);
          // On-the-fly index: memory-resident probes (CPU only).
          nc.ctx.ChargeCpu(static_cast<double>(visited) *
                           sim::cpu_cost::kIndexNodeVisit);
          if (best_d <= radius) {
            // The closest feature is provably local.
            Tuple partial;
            partial.values.push_back(pt.at(point_col));
            partial.values.push_back(
                features_placed[n][best_row].at(shape_col));
            partial.values.push_back(Value(best_d));
            partials[n].push_back(std::move(partial));
            ++local_counts[n];
          } else {
            unresolved[n].push_back(pt);
          }
        }
        return Status::OK();
      }));

  // Step 3b: replicate unresolved points to every node.
  int64_t replicated_count = 0;
  for (const TupleVec& v : unresolved) {
    replicated_count += static_cast<int64_t>(v.size());
  }
  PARADISE_ASSIGN_OR_RETURN(PerNode everywhere,
                            Broadcast(coord, unresolved));

  // Step 4: join-with-aggregate — expanding-circle probes per point.
  PARADISE_RETURN_IF_ERROR(
      coord->RunPhase("join with aggregate", [&](int n) -> Status {
        NodeExecContext nc = MakeNodeContext(cluster, n);
        if (features_placed[n].empty()) return Status::OK();
        for (const Tuple& pt : everywhere[n]) {
          const Point& p = pt.at(point_col).AsPoint();
          PARADISE_ASSIGN_OR_RETURN(
              exec::ClosestMatch match,
              exec::ExpandingCircleClosest(p, features_placed[n], shape_col,
                                           *trees[n], universe_area, nc.ctx));
          if (!match.found) continue;
          Tuple partial;
          partial.values.push_back(pt.at(point_col));
          partial.values.push_back(
              features_placed[n][match.row].at(shape_col));
          partial.values.push_back(Value(match.distance));
          partials[n].push_back(std::move(partial));
        }
        return Status::OK();
      }));

  if (stats != nullptr) {
    stats->local_points = 0;
    for (int64_t c : local_counts) stats->local_points += c;
    stats->replicated_points = replicated_count;
  }

  // Step 5: the single global aggregate operator — min distance per point.
  TupleVec result;
  PARADISE_RETURN_IF_ERROR(
      coord->RunSequential("global aggregate", [&]() -> Status {
        std::map<std::pair<double, double>, Tuple> best;
        for (int n = 0; n < N; ++n) {
          int64_t bytes = 0;
          for (const Tuple& t : partials[n]) {
            bytes += static_cast<int64_t>(t.WireBytes());
            cluster->coordinator_clock()->ChargeCpu(
                sim::cpu_cost::kTupleOverhead);
            const Point& p = t.at(0).AsPoint();
            auto key = std::make_pair(p.x, p.y);
            auto it = best.find(key);
            if (it == best.end() ||
                t.at(2).AsDouble() < it->second.at(2).AsDouble()) {
              best[key] = t;
            }
          }
          cluster->ChargeToCoordinator(n, bytes);
        }
        for (auto& [key, t] : best) result.push_back(std::move(t));
        return Status::OK();
      }));
  return result;
}

StatusOr<std::unique_ptr<ParallelTable>> StoreResult(QueryCoordinator* coord,
                                                     const PerNode& input,
                                                     catalog::TableDef def) {
  Cluster* cluster = coord->cluster();
  int N = cluster->num_nodes();

  // Destination assignment: round-robin over the flattened result, i.e.
  // tuple with global index g (counting node 0's tuples, then node 1's,
  // ...) lands on the g-th alive node cyclically. Every node knows its
  // flattened offset up front, so destinations need no coordination and
  // the output fragments can never differ in cardinality by more than one
  // — a declustered result table, however skewed the input was. In
  // degraded mode only the survivors receive fragments.
  const std::vector<int> alive_ids = cluster->alive_node_ids();
  const int A = static_cast<int>(alive_ids.size());
  std::vector<size_t> offset(N, 0);
  for (int n = 1; n < N; ++n) offset[n] = offset[n - 1] + input[n - 1].size();

  // Partition step (parallel): each node charges its own per-tuple CPU
  // and stages shallow copies per destination. Merge step (post-barrier,
  // single-threaded): deep-copy large attributes onto the destination
  // (pulling tiles, charging owner read + link + destination write) and
  // charge the tuple transfers — all the cross-node mutation.
  std::vector<std::vector<std::pair<int, Tuple>>> staged(N);
  PerNode placed(N);
  PARADISE_RETURN_IF_ERROR(coord->RunPhase(
      "copy on insert",
      [&](int n) -> Status {
        sim::NodeClock* clock = cluster->node(n).clock();
        staged[n].reserve(input[n].size());
        for (size_t i = 0; i < input[n].size(); ++i) {
          int dest = alive_ids[(offset[n] + i) % A];
          clock->ChargeCpu(sim::cpu_cost::kTupleOverhead);
          staged[n].emplace_back(dest, input[n][i]);
        }
        return Status::OK();
      },
      [&]() -> Status {
        for (int n = 0; n < N; ++n) {
          for (auto& [dest, copy] : staged[n]) {
            for (Value& v : copy.values) {
              if (v.type() == ValueType::kRaster) {
                PARADISE_ASSIGN_OR_RETURN(
                    array::Raster moved,
                    CopyRasterToNode(cluster, dest, *v.AsRaster()));
                v = Value(std::move(moved));
              }
            }
            if (dest != n) {
              cluster->ChargeTransfer(static_cast<uint32_t>(n),
                                      static_cast<uint32_t>(dest),
                                      static_cast<int64_t>(copy.WireBytes()));
            }
            placed[dest].push_back(std::move(copy));
          }
          staged[n].clear();
        }
        return Status::OK();
      }));

  // Flattened round-robin placement balances the alive fragments to
  // within one.
  size_t min_frag = SIZE_MAX, max_frag = 0;
  for (int d : alive_ids) {
    min_frag = std::min(min_frag, placed[d].size());
    max_frag = std::max(max_frag, placed[d].size());
  }
  PARADISE_DCHECK(max_frag - min_frag <= 1);

  // Physically insert into fresh fragments at exactly the nodes the phase
  // above copied to (explicit owners — the movement is already charged).
  std::vector<Tuple> all;
  std::vector<uint32_t> owners;
  for (int d = 0; d < N; ++d) {
    for (Tuple& t : placed[d]) {
      all.push_back(std::move(t));
      owners.push_back(static_cast<uint32_t>(d));
    }
  }
  def.partitioning = catalog::PartitioningKind::kRoundRobin;
  // Storing into the table mutates it: any cached query result computed
  // from it is now stale.
  coord->NoteTableMutation(def.name);
  return ParallelTable::Load(cluster, std::move(def), all,
                             SpatialGrid::kDefaultTilesPerAxis, &owners);
}

}  // namespace paradise::core
