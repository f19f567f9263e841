#include "benchmark/queries.h"

#include <algorithm>
#include <map>

#include "array/raster.h"
#include "common/logging.h"
#include "datagen/datagen.h"
#include "sim/cost_model.h"

namespace paradise::benchmark {

using core::MakeCoordinatorContext;
using core::MakeNodeContext;
using core::NodeExecContext;
using core::ParallelTable;
using core::PerNode;
using core::QueryCoordinator;
using exec::CompareOp;
using exec::ExprPtr;
using exec::Tuple;
using exec::TupleVec;
using exec::Value;
using exec::ValueType;
using geom::Box;
using geom::Point;
using geom::Polygon;

namespace col = datagen::col;

namespace {

QueryResult Finish(QueryCoordinator& coord, TupleVec rows) {
  QueryResult r;
  r.rows = std::move(rows);
  r.seconds = coord.query_seconds();
  r.phases = coord.phases();
  r.pbsm = coord.pbsm_stats();
  // Close the query's accounting now, not at destructor time: any open
  // phase a failed sub-plan left behind is discarded here, before the
  // next query can charge these clocks.
  coord.EndQuery();
  return r;
}

/// Per-node projection phase.
StatusOr<PerNode> ParallelProject(QueryCoordinator* coord,
                                  const PerNode& input,
                                  const std::vector<ExprPtr>& exprs,
                                  const std::string& name) {
  core::Cluster* cluster = coord->cluster();
  PerNode out(cluster->num_nodes());
  PARADISE_RETURN_IF_ERROR(coord->RunPhase(name, [&](int n) -> Status {
    NodeExecContext nc = MakeNodeContext(cluster, n);
    PARADISE_ASSIGN_OR_RETURN(out[n], exec::Project(input[n], exprs, nc.ctx));
    return Status::OK();
  }));
  return out;
}

/// Raster tuples for one exact date (via the date B+-tree), one channel.
StatusOr<PerNode> SelectRasters(QueryCoordinator* coord, BenchmarkDatabase* db,
                                Date lo, Date hi, int64_t channel) {
  PARADISE_ASSIGN_OR_RETURN(
      PerNode per,
      core::ParallelIndexSelectIntRange(coord, db->raster(), col::kRasterDate,
                                        lo.days_since_epoch(),
                                        hi.days_since_epoch()));
  // Channel filter is cheap and local.
  core::Cluster* cluster = coord->cluster();
  PerNode out(cluster->num_nodes());
  PARADISE_RETURN_IF_ERROR(
      coord->RunPhase("channel filter", [&](int n) -> Status {
        NodeExecContext nc = MakeNodeContext(cluster, n);
        ExprPtr pred = exec::Cmp(CompareOp::kEq, exec::Col(col::kRasterChannel),
                                 exec::Lit(Value(channel)));
        PARADISE_ASSIGN_OR_RETURN(out[n], exec::Filter(per[n], pred, nc.ctx));
        return Status::OK();
      }));
  return out;
}

/// Shared implementation of Queries 3 and 3': average the pixel values of
/// the clipped date-selected rasters into one result image. Uses the
/// sequential pull plan for node-resident rasters and the parallel
/// per-node plan when the rasters' tiles are declustered (Section 3.5).
StatusOr<QueryResult> RunAverageQuery(BenchmarkDatabase* db,
                                      const Polygon& clip) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(coord.BeginQuery());
  const QueryConstants& k = db->constants();
  // All channels of the Q3 date (4 rasters).
  PARADISE_ASSIGN_OR_RETURN(
      PerNode per, core::ParallelIndexSelectIntRange(
                       &coord, db->raster(), col::kRasterDate,
                       k.q3_date.days_since_epoch(),
                       k.q3_date.days_since_epoch()));

  // Collect the (few) selected raster handles.
  std::vector<array::Raster> rasters;
  for (const TupleVec& v : per) {
    for (const Tuple& t : v) {
      rasters.push_back(*t.at(col::kRasterData).AsRaster());
    }
  }
  if (rasters.empty()) return Status::NotFound("no rasters for Q3 date");

  bool declustered = false;
  for (const array::Raster& r : rasters) {
    if (r.handle.declustered()) declustered = true;
  }

  array::Raster::PixelRegion region = rasters[0].RegionForBox(clip.Mbr());
  if (region.empty()) return Status::NotFound("clip misses rasters");

  TupleVec result;
  if (!declustered) {
    // The paper's "clearly sequential" plan: one average operator pulls
    // the needed tiles of every image and folds them.
    PARADISE_RETURN_IF_ERROR(coord.RunSequential("average", [&]() -> Status {
      NodeExecContext cc = MakeCoordinatorContext(db->cluster());
      std::vector<array::TileSource*> sources;
      for (const array::Raster& r : rasters) {
        sources.push_back(cc.ctx.SourceFor(r.handle.owner_node));
      }
      PARADISE_ASSIGN_OR_RETURN(
          array::Raster out,
          array::PixelAverage(rasters, sources, region, cc.ctx.temp_store,
                              cc.ctx.clock));
      result.push_back(Tuple({Value(std::move(out))}));
      return Status::OK();
    }));
  } else {
    // Declustered plan: every node averages the region tiles it owns
    // locally; partial tiles are shipped to the coordinator for assembly.
    core::Cluster* cluster = db->cluster();
    // Node closures run concurrently: each fills only its own map slot;
    // the maps merge after the phase barrier.
    std::vector<std::map<uint32_t, std::vector<uint16_t>>> node_tiles(
        cluster->num_nodes());
    std::map<uint32_t, std::vector<uint16_t>> partial_tiles;
    std::vector<uint32_t> region_tiles = array::TilesForRegion(
        rasters[0].handle, {region.row_lo, region.col_lo},
        {region.row_hi, region.col_hi});
    PARADISE_RETURN_IF_ERROR(
        coord.RunPhase("local tile average", [&](int n) -> Status {
          NodeExecContext nc = MakeNodeContext(cluster, n);
          for (uint32_t t : region_tiles) {
            if (rasters[0].handle.TileOwner(t) != static_cast<uint32_t>(n)) {
              continue;
            }
            std::vector<uint64_t> sum;
            std::vector<uint32_t> count;
            for (const array::Raster& r : rasters) {
              PARADISE_ASSIGN_OR_RETURN(
                  ByteBuffer bytes,
                  nc.ctx.SourceFor(r.handle.TileOwner(t))
                      ->ReadTile(r.handle, t));
              const uint16_t* px =
                  reinterpret_cast<const uint16_t*>(bytes.data());
              size_t n_px = bytes.size() / 2;
              if (sum.empty()) {
                sum.assign(n_px, 0);
                count.assign(n_px, 0);
              }
              for (size_t p = 0; p < n_px; ++p) {
                if (px[p] == array::Raster::kNoData) continue;
                sum[p] += px[p];
                ++count[p];
              }
              nc.ctx.ChargeCpu(static_cast<double>(n_px) *
                               sim::cpu_cost::kPerPixel);
            }
            std::vector<uint16_t> avg(sum.size());
            for (size_t p = 0; p < sum.size(); ++p) {
              avg[p] = count[p] == 0 ? array::Raster::kNoData
                                     : static_cast<uint16_t>(sum[p] / count[p]);
            }
            node_tiles[n][t] = std::move(avg);
          }
          return Status::OK();
        }));
    for (auto& m : node_tiles) {
      partial_tiles.merge(m);
    }
    PARADISE_RETURN_IF_ERROR(coord.RunSequential("assemble", [&]() -> Status {
      int64_t bytes = 0;
      for (const auto& [t, avg] : partial_tiles) {
        int owner = static_cast<int>(rasters[0].handle.TileOwner(t));
        int64_t b = static_cast<int64_t>(avg.size() * 2);
        cluster->node(owner).clock()->ChargeNet(
            core::Cluster::BatchMessages(b), b);
        bytes += b;
      }
      cluster->coordinator_clock()->ChargeNet(
          core::Cluster::BatchMessages(bytes), bytes);
      cluster->coordinator_clock()->ChargeCpu(
          sim::cpu_cost::kPerByteCopied * static_cast<double>(bytes));
      result.push_back(
          Tuple({Value(static_cast<int64_t>(partial_tiles.size()))}));
      return Status::OK();
    }));
  }
  return Finish(coord, std::move(result));
}

}  // namespace

StatusOr<QueryResult> RunQuery2(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(coord.BeginQuery());
  const QueryConstants& k = db->constants();
  ExprPtr pred = exec::Cmp(CompareOp::kEq, exec::Col(col::kRasterChannel),
                           exec::Lit(Value(k.channel)));
  std::vector<ExprPtr> proj = {
      exec::Col(col::kRasterDate),
      exec::RasterClip(exec::Col(col::kRasterData), k.clip_polygon)};
  PARADISE_ASSIGN_OR_RETURN(PerNode per,
                            core::ParallelScan(&coord, db->raster(), pred,
                                               proj));
  PARADISE_ASSIGN_OR_RETURN(TupleVec rows,
                            core::Gather(&coord, std::move(per)));
  PARADISE_RETURN_IF_ERROR(coord.RunSequential("sort", [&]() -> Status {
    NodeExecContext cc = MakeCoordinatorContext(db->cluster());
    exec::SortTuples(&rows, {exec::SortKey{0, true}}, cc.ctx);
    return Status::OK();
  }));
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> RunQuery3(BenchmarkDatabase* db) {
  return RunAverageQuery(db, *db->constants().clip_polygon);
}

StatusOr<QueryResult> RunQuery3Prime(BenchmarkDatabase* db) {
  // Clip region = the entire raster.
  const Box& u = db->universe();
  Polygon whole({Point{u.xmin, u.ymin}, Point{u.xmax, u.ymin},
                 Point{u.xmax, u.ymax}, Point{u.xmin, u.ymax}});
  return RunAverageQuery(db, whole);
}

StatusOr<QueryResult> RunQuery4(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(coord.BeginQuery());
  const QueryConstants& k = db->constants();
  PARADISE_ASSIGN_OR_RETURN(
      PerNode selected,
      SelectRasters(&coord, db, k.q3_date, k.q3_date, k.channel));
  std::vector<ExprPtr> proj = {
      exec::Col(col::kRasterDate), exec::Col(col::kRasterChannel),
      exec::RasterLowerResOf(
          exec::RasterClip(exec::Col(col::kRasterData), k.clip_polygon), 8)};
  PARADISE_ASSIGN_OR_RETURN(PerNode projected,
                            ParallelProject(&coord, selected, proj, "clip"));
  catalog::TableDef def;
  def.name = "q4_result";
  def.schema = exec::Schema({{"date", ValueType::kDate},
                             {"channel", ValueType::kInt},
                             {"data", ValueType::kRaster}});
  PARADISE_ASSIGN_OR_RETURN(
      std::unique_ptr<ParallelTable> stored,
      core::StoreResult(&coord, projected, std::move(def)));
  TupleVec rows;
  rows.push_back(Tuple({Value(stored->num_rows())}));
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> RunQuery5(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(coord.BeginQuery());
  PARADISE_ASSIGN_OR_RETURN(
      PerNode per, core::ParallelIndexSelectString(
                       &coord, db->places(), col::kPlaceName, "Phoenix"));
  PARADISE_ASSIGN_OR_RETURN(TupleVec rows,
                            core::Gather(&coord, std::move(per)));
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> RunQuery6(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(coord.BeginQuery());
  const QueryConstants& k = db->constants();
  ExprPtr exact =
      exec::Overlaps(exec::Col(col::kLcShape), exec::Lit(Value(k.clip_polygon)));
  PARADISE_ASSIGN_OR_RETURN(
      PerNode per, core::ParallelSpatialIndexSelect(
                       &coord, db->land_cover(), k.clip_polygon->Mbr(), exact));
  catalog::TableDef def;
  def.name = "q6_result";
  def.schema = datagen::LandCoverSchema();
  PARADISE_ASSIGN_OR_RETURN(std::unique_ptr<ParallelTable> stored,
                            core::StoreResult(&coord, per, std::move(def)));
  TupleVec rows;
  rows.push_back(Tuple({Value(stored->num_rows())}));
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> RunQuery7(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(coord.BeginQuery());
  const QueryConstants& k = db->constants();
  geom::Circle circle(k.point, k.radius);
  ExprPtr exact =
      exec::And(exec::WithinCircle(exec::Col(col::kLcShape), circle),
                exec::Cmp(CompareOp::kLt, exec::AreaOf(exec::Col(col::kLcShape)),
                          exec::Lit(Value(k.max_area))));
  PARADISE_ASSIGN_OR_RETURN(
      PerNode per, core::ParallelSpatialIndexSelect(&coord, db->land_cover(),
                                                    circle.Mbr(), exact));
  std::vector<ExprPtr> proj = {exec::AreaOf(exec::Col(col::kLcShape)),
                               exec::Col(col::kLcType)};
  PARADISE_ASSIGN_OR_RETURN(PerNode projected,
                            ParallelProject(&coord, per, proj, "project"));
  PARADISE_ASSIGN_OR_RETURN(TupleVec rows,
                            core::Gather(&coord, std::move(projected)));
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> RunQuery8(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(coord.BeginQuery());
  const QueryConstants& k = db->constants();
  PARADISE_ASSIGN_OR_RETURN(
      PerNode louisville, core::ParallelIndexSelectString(
                              &coord, db->places(), col::kPlaceName,
                              "Louisville"));
  // Index nested loops: makeBox(location, box_length) probes each node's
  // landCover R*-tree; the output projects [shape, type].
  PARADISE_ASSIGN_OR_RETURN(
      PerNode out,
      core::ParallelIndexSpatialJoin(
          &coord, louisville, db->land_cover(), col::kLcShape,
          [&](const Tuple& city) {
            return Value(Box::MakeBox(city.at(col::kPlaceLocation).AsPoint(),
                                      k.box_length));
          },
          [](const Tuple&, const Tuple& lc) {
            return Tuple({lc.at(col::kLcShape), lc.at(col::kLcType)});
          }));
  PARADISE_ASSIGN_OR_RETURN(TupleVec rows,
                            core::Gather(&coord, std::move(out)));
  return Finish(coord, std::move(rows));
}

namespace {

/// Shared by Queries 9 and 14: clip the date-selected channel-5 rasters by
/// every oil-field polygon.
StatusOr<QueryResult> RunOilFieldClip(BenchmarkDatabase* db, Date lo,
                                      Date hi) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(coord.BeginQuery());
  const QueryConstants& k = db->constants();
  // Oil-field polygons, selected and sent to all the nodes.
  ExprPtr oil_pred =
      exec::Cmp(CompareOp::kEq, exec::Col(col::kLcType),
                exec::Lit(Value(datagen::kOilFieldType)));
  PARADISE_ASSIGN_OR_RETURN(
      PerNode oil, core::ParallelScan(&coord, db->land_cover(), oil_pred, {}));
  PARADISE_ASSIGN_OR_RETURN(PerNode oil_all, core::Broadcast(&coord, oil));

  PARADISE_ASSIGN_OR_RETURN(PerNode rasters,
                            SelectRasters(&coord, db, lo, hi, k.channel));

  core::Cluster* cluster = db->cluster();
  PerNode out(cluster->num_nodes());
  PARADISE_RETURN_IF_ERROR(coord.RunPhase("clip join", [&](int n) -> Status {
    NodeExecContext nc = MakeNodeContext(cluster, n);
    for (const Tuple& rt : rasters[n]) {
      const array::Raster& raster = *rt.at(col::kRasterData).AsRaster();
      for (const Tuple& of : oil_all[n]) {
        const exec::PolygonPtr& poly = of.at(col::kLcShape).AsPolygon();
        auto clipped_or = array::ClipRaster(
            raster, *poly, nc.ctx.SourceFor(raster.handle.owner_node),
            nc.ctx.temp_store, nc.ctx.clock, static_cast<uint32_t>(n));
        if (!clipped_or.ok()) continue;  // polygon misses the raster
        out[n].push_back(Tuple({of.at(col::kLcShape),
                                Value(std::move(clipped_or).value())}));
      }
    }
    return Status::OK();
  }));
  PARADISE_ASSIGN_OR_RETURN(TupleVec rows,
                            core::Gather(&coord, std::move(out)));
  return Finish(coord, std::move(rows));
}

}  // namespace

StatusOr<QueryResult> RunQuery9(BenchmarkDatabase* db) {
  const QueryConstants& k = db->constants();
  return RunOilFieldClip(db, k.q3_date, k.q3_date);
}

StatusOr<QueryResult> RunQuery10(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(coord.BeginQuery());
  const QueryConstants& k = db->constants();
  // clip() evaluated during predicate evaluation (a large attribute
  // created in the where clause), then again in the projection.
  ExprPtr pred = exec::Cmp(
      CompareOp::kGt,
      exec::RasterAverageOf(
          exec::RasterClip(exec::Col(col::kRasterData), k.clip_polygon)),
      exec::Lit(Value(k.average_threshold)));
  std::vector<ExprPtr> proj = {
      exec::Col(col::kRasterDate), exec::Col(col::kRasterChannel),
      exec::RasterClip(exec::Col(col::kRasterData), k.clip_polygon)};
  PARADISE_ASSIGN_OR_RETURN(
      PerNode per, core::ParallelScan(&coord, db->raster(), pred, proj));
  PARADISE_ASSIGN_OR_RETURN(TupleVec rows,
                            core::Gather(&coord, std::move(per)));
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> RunQuery11(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(coord.BeginQuery());
  const QueryConstants& k = db->constants();
  PARADISE_ASSIGN_OR_RETURN(PerNode roads,
                            core::ParallelScan(&coord, db->roads(), nullptr,
                                               {}));
  std::vector<exec::AggregatePtr> aggs = {
      exec::MakeClosest(exec::Col(col::kLineShape), k.point)};
  PARADISE_ASSIGN_OR_RETURN(
      TupleVec rows,
      core::ParallelAggregate(&coord, roads, {col::kLineType}, aggs));
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> RunQuery12(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(coord.BeginQuery());
  ExprPtr city_pred =
      exec::Cmp(CompareOp::kEq, exec::Col(col::kPlaceType),
                exec::Lit(Value(datagen::kLargeCityType)));
  PARADISE_ASSIGN_OR_RETURN(
      PerNode cities, core::ParallelScan(&coord, db->places(), city_pred, {}));
  PARADISE_ASSIGN_OR_RETURN(
      PerNode features, core::ParallelScan(&coord, db->drainage(), nullptr,
                                           {}));
  // Grid resolution for the semi-join: the paper's 10,000 tiles hold
  // ~170 drainage features per tile (1.74M features). Keep that density —
  // the semi-join only resolves a city locally when its tile plausibly
  // contains its nearest feature — while keeping at least ~4 tiles per
  // node for declustering.
  int64_t features_total = db->drainage().num_rows();
  uint32_t by_density = static_cast<uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(features_total) / 170.0)));
  uint32_t by_nodes = static_cast<uint32_t>(std::ceil(
      std::sqrt(4.0 * db->cluster()->num_nodes())));
  uint32_t tiles_per_axis = std::clamp(
      by_density, by_nodes, core::SpatialGrid::kDefaultTilesPerAxis);
  core::ClosestJoinStats stats;
  PARADISE_ASSIGN_OR_RETURN(
      TupleVec rows,
      core::SpatialJoinWithClosest(&coord, cities, col::kPlaceLocation,
                                   features, col::kLineShape, db->universe(),
                                   tiles_per_axis, &stats));
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> RunQuery13(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(coord.BeginQuery());
  // Both tables are spatially declustered on the same grid: phase one of
  // the parallel spatial join is already done (Section 2.7.2).
  PARADISE_ASSIGN_OR_RETURN(
      PerNode drainage, core::ParallelScanAll(&coord, db->drainage(), nullptr));
  PARADISE_ASSIGN_OR_RETURN(PerNode roads,
                            core::ParallelScanAll(&coord, db->roads(), nullptr));
  core::ParallelSpatialJoinOptions opts;
  opts.tiles_per_axis = db->drainage().grid().tiles_per_axis();
  opts.left_predeclustered = true;
  opts.right_predeclustered = true;
  // Predeclustered join: route and duplicate-eliminate on the tables'
  // own grid so migration reassignments line up with the data placement.
  opts.routing_grid = &db->drainage().grid();
  PARADISE_ASSIGN_OR_RETURN(
      PerNode joined,
      core::ParallelSpatialJoin(&coord, drainage, col::kLineShape, roads,
                                col::kLineShape, db->universe(), opts));
  PARADISE_ASSIGN_OR_RETURN(TupleVec rows,
                            core::Gather(&coord, std::move(joined)));
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> RunQuery14(BenchmarkDatabase* db) {
  const QueryConstants& k = db->constants();
  return RunOilFieldClip(db, k.q14_lo, k.q14_hi);
}

StatusOr<QueryResult> RunQueryByNumber(BenchmarkDatabase* db, int number) {
  switch (number) {
    case 2: return RunQuery2(db);
    case 3: return RunQuery3(db);
    case 4: return RunQuery4(db);
    case 5: return RunQuery5(db);
    case 6: return RunQuery6(db);
    case 7: return RunQuery7(db);
    case 8: return RunQuery8(db);
    case 9: return RunQuery9(db);
    case 10: return RunQuery10(db);
    case 11: return RunQuery11(db);
    case 12: return RunQuery12(db);
    case 13: return RunQuery13(db);
    case 14: return RunQuery14(db);
    default: return Status::InvalidArgument("no such query");
  }
}

}  // namespace paradise::benchmark
