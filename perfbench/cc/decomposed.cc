// Traced decompositions of the benchmark requests. Each function follows
// the plan of src/benchmark/queries.cc (or core::Query for the two-layer
// join) call for call, so the rows and modeled seconds are bit-identical to
// the untraced request; the only additions are spans around each public
// call and counting wrappers around the tile sources the benchmark's own
// operator closures read through.

#include <algorithm>
#include <cmath>

#include "array/raster.h"
#include "bench.h"
#include "catalog/catalog.h"
#include "common/logging.h"
#include "core/query_builder.h"
#include "datagen/datagen.h"
#include "sim/cost_model.h"
#include "trace.h"

namespace perfbench {

using paradise::ByteBuffer;
using paradise::Date;
using paradise::Status;
using paradise::StatusOr;
using paradise::benchmark::BenchmarkDatabase;
using paradise::benchmark::QueryConstants;
using paradise::benchmark::QueryResult;
using paradise::core::NodeExecContext;
using paradise::core::ParallelTable;
using paradise::core::PerNode;
using paradise::core::QueryCoordinator;
using paradise::exec::CompareOp;
using paradise::exec::ExprPtr;
using paradise::exec::Tuple;
using paradise::exec::TupleVec;
using paradise::exec::Value;
using paradise::exec::ValueType;
using paradise::geom::Box;

namespace array = paradise::array;
namespace core = paradise::core;
namespace exec = paradise::exec;
namespace col = paradise::datagen::col;

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  // SplitMix64 finalizer over (h + v).
  uint64_t z = h + v + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashBytes(const ByteBuffer& b) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t c : b) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

uint64_t HashValue(const Value& v) {
  ByteBuffer bytes;
  paradise::ByteWriter w(&bytes);
  if (v.type() == ValueType::kRaster) {
    const array::Raster& r = *v.AsRaster();
    w.PutDouble(r.geo.xmin);
    w.PutDouble(r.geo.ymin);
    w.PutDouble(r.geo.xmax);
    w.PutDouble(r.geo.ymax);
    for (uint32_t d : r.handle.dims) w.PutU32(d);
    for (uint32_t d : r.handle.tile_dims) w.PutU32(d);
    w.PutRaw(r.handle.inline_data.data(), r.handle.inline_data.size());
    for (const array::TileRef& t : r.handle.tiles) {
      w.PutU32(t.raw_bytes);
      w.PutU8(t.compressed ? 1 : 0);
    }
  } else {
    v.Serialize(&w);
  }
  return HashBytes(bytes);
}

/// Counts the tiles an operator closure reads through its context.
class CountingSource : public array::TileSource {
 public:
  CountingSource(array::TileSource* inner, TileCounters* counters)
      : inner_(inner), counters_(counters) {}

  StatusOr<ByteBuffer> ReadTile(const array::ArrayHandle& handle,
                                uint32_t tile_index) override {
    StatusOr<ByteBuffer> r = inner_->ReadTile(handle, tile_index);
    if (r.ok()) counters_->tiles_read.fetch_add(1);
    return r;
  }

  void PrefetchTiles(const array::ArrayHandle& handle,
                     const std::vector<uint32_t>& tile_indices) override {
    inner_->PrefetchTiles(handle, tile_indices);
  }

 private:
  array::TileSource* const inner_;
  TileCounters* const counters_;
};

/// A node (or coordinator) execution context whose tile reads are counted;
/// the pulled bytes are added to the counters when it goes away.
class CountedContext {
 public:
  CountedContext(NodeExecContext nc, TileCounters* counters)
      : nc_(std::move(nc)),
        source_(nc_.pull.get(), counters),
        counters_(counters) {
    CountingSource* source = &source_;
    nc_.ctx.tile_source = [source](uint32_t) -> array::TileSource* {
      return source;
    };
  }
  ~CountedContext() {
    counters_->bytes_pulled.fetch_add(nc_.pull->bytes_pulled());
  }
  CountedContext(const CountedContext&) = delete;
  CountedContext& operator=(const CountedContext&) = delete;

  const exec::ExecContext& ctx() const { return nc_.ctx; }

 private:
  NodeExecContext nc_;
  CountingSource source_;
  TileCounters* const counters_;
};

QueryResult Finish(QueryCoordinator& coord, TupleVec rows) {
  QueryResult r;
  r.rows = std::move(rows);
  r.seconds = coord.query_seconds();
  r.phases = coord.phases();
  r.pbsm = coord.pbsm_stats();
  coord.EndQuery();
  return r;
}

Status Begin(QueryCoordinator& coord) {
  Span s("core.begin_query");
  return coord.BeginQuery();
}

StatusOr<TupleVec> TracedGather(QueryCoordinator& coord, const PerNode& per) {
  Span s("core.exchange");
  return core::Gather(&coord, per);
}

StatusOr<PerNode> TracedScan(QueryCoordinator& coord, const ParallelTable& t,
                             const ExprPtr& pred,
                             const std::vector<ExprPtr>& proj) {
  Span s("core.scan");
  return core::ParallelScan(&coord, t, pred, proj);
}

StatusOr<PerNode> TracedScanAll(QueryCoordinator& coord,
                                const ParallelTable& t) {
  Span s("core.scan");
  return core::ParallelScanAll(&coord, t, nullptr);
}

StatusOr<PerNode> ParallelProject(QueryCoordinator& coord, const PerNode& input,
                                  const std::vector<ExprPtr>& exprs,
                                  const std::string& name,
                                  TileCounters* counters) {
  core::Cluster* cluster = coord.cluster();
  PerNode out(cluster->num_nodes());
  Span s("core.phase");
  PARADISE_RETURN_IF_ERROR(coord.RunPhase(name, [&](int n) -> Status {
    CountedContext cc(core::MakeNodeContext(cluster, n), counters);
    PARADISE_ASSIGN_OR_RETURN(out[n], exec::Project(input[n], exprs, cc.ctx()));
    return Status::OK();
  }));
  return out;
}

StatusOr<PerNode> SelectRasters(QueryCoordinator& coord, BenchmarkDatabase* db,
                                Date lo, Date hi, int64_t channel) {
  PerNode per;
  {
    Span s("core.index_select");
    PARADISE_ASSIGN_OR_RETURN(
        per, core::ParallelIndexSelectIntRange(
                 &coord, db->raster(), col::kRasterDate,
                 lo.days_since_epoch(), hi.days_since_epoch()));
  }
  core::Cluster* cluster = coord.cluster();
  PerNode out(cluster->num_nodes());
  Span s("core.phase");
  PARADISE_RETURN_IF_ERROR(
      coord.RunPhase("channel filter", [&](int n) -> Status {
        NodeExecContext nc = core::MakeNodeContext(cluster, n);
        ExprPtr pred = exec::Cmp(CompareOp::kEq, exec::Col(col::kRasterChannel),
                                 exec::Lit(Value(channel)));
        PARADISE_ASSIGN_OR_RETURN(out[n], exec::Filter(per[n], pred, nc.ctx));
        return Status::OK();
      }));
  return out;
}

StatusOr<QueryResult> Query2(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(Begin(coord));
  const QueryConstants& k = db->constants();
  ExprPtr pred = exec::Cmp(CompareOp::kEq, exec::Col(col::kRasterChannel),
                           exec::Lit(Value(k.channel)));
  std::vector<ExprPtr> proj = {
      exec::Col(col::kRasterDate),
      exec::RasterClip(exec::Col(col::kRasterData), k.clip_polygon)};
  PARADISE_ASSIGN_OR_RETURN(PerNode per,
                            TracedScan(coord, db->raster(), pred, proj));
  PARADISE_ASSIGN_OR_RETURN(TupleVec rows, TracedGather(coord, per));
  {
    Span s("core.phase");
    PARADISE_RETURN_IF_ERROR(coord.RunSequential("sort", [&]() -> Status {
      NodeExecContext cc = core::MakeCoordinatorContext(db->cluster());
      exec::SortTuples(&rows, {exec::SortKey{0, true}}, cc.ctx);
      return Status::OK();
    }));
  }
  return Finish(coord, std::move(rows));
}

/// Query 3 for node-resident rasters: the sequential average at the
/// coordinator (the benchmark database never declusters raster tiles).
StatusOr<QueryResult> Query3(BenchmarkDatabase* db, TileCounters* counters) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(Begin(coord));
  const QueryConstants& k = db->constants();
  PerNode per;
  {
    Span s("core.index_select");
    PARADISE_ASSIGN_OR_RETURN(
        per, core::ParallelIndexSelectIntRange(
                 &coord, db->raster(), col::kRasterDate,
                 k.q3_date.days_since_epoch(), k.q3_date.days_since_epoch()));
  }
  std::vector<array::Raster> rasters;
  for (const TupleVec& v : per) {
    for (const Tuple& t : v) rasters.push_back(*t.at(col::kRasterData).AsRaster());
  }
  if (rasters.empty()) return Status::NotFound("no rasters for Q3 date");
  for (const array::Raster& r : rasters) {
    if (r.handle.declustered()) {
      return Status::FailedPrecondition("declustered rasters are not traced");
    }
  }
  array::Raster::PixelRegion region =
      rasters[0].RegionForBox(k.clip_polygon->Mbr());
  if (region.empty()) return Status::NotFound("clip misses rasters");
  std::vector<uint32_t> lo = {region.row_lo, region.col_lo};
  std::vector<uint32_t> hi = {region.row_hi, region.col_hi};
  uint32_t rows_px = region.row_hi - region.row_lo;
  uint32_t cols_px = region.col_hi - region.col_lo;

  TupleVec result;
  Span s("core.phase");
  PARADISE_RETURN_IF_ERROR(coord.RunSequential("average", [&]() -> Status {
    CountedContext cc(core::MakeCoordinatorContext(db->cluster()), counters);
    std::vector<uint64_t> sum(static_cast<size_t>(rows_px) * cols_px, 0);
    std::vector<uint32_t> count(sum.size(), 0);
    for (const array::Raster& r : rasters) {
      PARADISE_ASSIGN_OR_RETURN(
          ByteBuffer bytes,
          array::ReadRegion(r.handle, cc.ctx().SourceFor(r.handle.owner_node),
                            lo, hi));
      const uint16_t* px = reinterpret_cast<const uint16_t*>(bytes.data());
      for (size_t p = 0; p < sum.size(); ++p) {
        if (px[p] == array::Raster::kNoData) continue;
        sum[p] += px[p];
        ++count[p];
      }
      cc.ctx().ChargeCpu(static_cast<double>(sum.size()) *
                         paradise::sim::cpu_cost::kPerPixel);
    }
    std::vector<uint16_t> avg(sum.size());
    for (size_t p = 0; p < sum.size(); ++p) {
      avg[p] = count[p] == 0 ? array::Raster::kNoData
                             : static_cast<uint16_t>(sum[p] / count[p]);
    }
    array::Raster out;
    out.geo = rasters[0].geo;
    PARADISE_ASSIGN_OR_RETURN(
        out.handle,
        array::StoreArray(reinterpret_cast<const uint8_t*>(avg.data()),
                          {rows_px, cols_px}, 2, cc.ctx().temp_store,
                          cc.ctx().clock, true, array::kDefaultTileBytes, 0));
    result.push_back(Tuple({Value(std::move(out))}));
    return Status::OK();
  }));
  return Finish(coord, std::move(result));
}

StatusOr<QueryResult> Query4(BenchmarkDatabase* db, TileCounters* counters) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(Begin(coord));
  const QueryConstants& k = db->constants();
  PARADISE_ASSIGN_OR_RETURN(
      PerNode selected,
      SelectRasters(coord, db, k.q3_date, k.q3_date, k.channel));
  std::vector<ExprPtr> proj = {
      exec::Col(col::kRasterDate), exec::Col(col::kRasterChannel),
      exec::RasterLowerResOf(
          exec::RasterClip(exec::Col(col::kRasterData), k.clip_polygon), 8)};
  PARADISE_ASSIGN_OR_RETURN(
      PerNode projected, ParallelProject(coord, selected, proj, "clip", counters));
  paradise::catalog::TableDef def;
  def.name = "q4_result";
  def.schema = exec::Schema({{"date", ValueType::kDate},
                             {"channel", ValueType::kInt},
                             {"data", ValueType::kRaster}});
  std::unique_ptr<ParallelTable> stored;
  {
    Span s("core.store");
    PARADISE_ASSIGN_OR_RETURN(stored,
                              core::StoreResult(&coord, projected, std::move(def)));
  }
  TupleVec rows;
  rows.push_back(Tuple({Value(stored->num_rows())}));
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> Query5(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(Begin(coord));
  PerNode per;
  {
    Span s("core.index_select");
    PARADISE_ASSIGN_OR_RETURN(
        per, core::ParallelIndexSelectString(&coord, db->places(),
                                             col::kPlaceName, "Phoenix"));
  }
  PARADISE_ASSIGN_OR_RETURN(TupleVec rows, TracedGather(coord, per));
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> Query6(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(Begin(coord));
  const QueryConstants& k = db->constants();
  ExprPtr exact = exec::Overlaps(exec::Col(col::kLcShape),
                                 exec::Lit(Value(k.clip_polygon)));
  PerNode per;
  {
    Span s("core.index_select");
    PARADISE_ASSIGN_OR_RETURN(
        per, core::ParallelSpatialIndexSelect(&coord, db->land_cover(),
                                              k.clip_polygon->Mbr(), exact));
  }
  paradise::catalog::TableDef def;
  def.name = "q6_result";
  def.schema = paradise::datagen::LandCoverSchema();
  std::unique_ptr<ParallelTable> stored;
  {
    Span s("core.store");
    PARADISE_ASSIGN_OR_RETURN(stored,
                              core::StoreResult(&coord, per, std::move(def)));
  }
  TupleVec rows;
  rows.push_back(Tuple({Value(stored->num_rows())}));
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> Query7(BenchmarkDatabase* db, TileCounters* counters) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(Begin(coord));
  const QueryConstants& k = db->constants();
  paradise::geom::Circle circle(k.point, k.radius);
  ExprPtr exact = exec::And(
      exec::WithinCircle(exec::Col(col::kLcShape), circle),
      exec::Cmp(CompareOp::kLt, exec::AreaOf(exec::Col(col::kLcShape)),
                exec::Lit(Value(k.max_area))));
  PerNode per;
  {
    Span s("core.index_select");
    PARADISE_ASSIGN_OR_RETURN(
        per, core::ParallelSpatialIndexSelect(&coord, db->land_cover(),
                                              circle.Mbr(), exact));
  }
  std::vector<ExprPtr> proj = {exec::AreaOf(exec::Col(col::kLcShape)),
                               exec::Col(col::kLcType)};
  PARADISE_ASSIGN_OR_RETURN(
      PerNode projected, ParallelProject(coord, per, proj, "project", counters));
  PARADISE_ASSIGN_OR_RETURN(TupleVec rows, TracedGather(coord, projected));
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> Query8(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(Begin(coord));
  const QueryConstants& k = db->constants();
  PerNode louisville;
  {
    Span s("core.index_select");
    PARADISE_ASSIGN_OR_RETURN(
        louisville, core::ParallelIndexSelectString(
                        &coord, db->places(), col::kPlaceName, "Louisville"));
  }
  PerNode everywhere;
  {
    Span s("core.exchange");
    PARADISE_ASSIGN_OR_RETURN(everywhere, core::Broadcast(&coord, louisville));
  }
  core::Cluster* cluster = db->cluster();
  PerNode out(cluster->num_nodes());
  Span s("core.spatial_join");
  PARADISE_RETURN_IF_ERROR(
      coord.RunPhase("index NL spatial join", [&](int n) -> Status {
        NodeExecContext nc = core::MakeNodeContext(cluster, n);
        const ParallelTable::Fragment& frag = db->land_cover().fragment(n);
        exec::IndexProbeCharger charger(nc.ctx, frag.rtree->num_nodes());
        for (const Tuple& city : everywhere[n]) {
          Box probe =
              Box::MakeBox(city.at(col::kPlaceLocation).AsPoint(), k.box_length);
          nc.ctx.ChargeCpu(paradise::sim::cpu_cost::kIndexProbe);
          int64_t visited = 0;
          std::vector<uint64_t> candidates;
          {
            Span probe_span("index.rtree_probe");
            frag.rtree->SearchOverlap(
                probe,
                [&](const Box&, uint64_t row) {
                  candidates.push_back(row);
                  return true;
                },
                &visited);
          }
          charger.ChargeVisits(visited);
          for (uint64_t row : candidates) {
            if (!db->land_cover().PrimaryFilter(n, row)) continue;
            PARADISE_ASSIGN_OR_RETURN(Tuple lc,
                                      db->land_cover().FetchRow(cluster, n, row));
            PARADISE_ASSIGN_OR_RETURN(
                bool hit, exec::SpatialIntersects(lc.at(col::kLcShape),
                                                  Value(probe), nc.ctx));
            if (hit) {
              out[n].push_back(Tuple({lc.at(col::kLcShape), lc.at(col::kLcType)}));
            }
          }
        }
        return Status::OK();
      }));
  PARADISE_ASSIGN_OR_RETURN(TupleVec rows, TracedGather(coord, out));
  return Finish(coord, std::move(rows));
}

/// Queries 9 and 14: clip the date-selected channel-5 rasters by every
/// oil-field polygon.
StatusOr<QueryResult> OilFieldClip(BenchmarkDatabase* db, Date lo, Date hi,
                                   TileCounters* counters) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(Begin(coord));
  const QueryConstants& k = db->constants();
  ExprPtr oil_pred = exec::Cmp(CompareOp::kEq, exec::Col(col::kLcType),
                               exec::Lit(Value(paradise::datagen::kOilFieldType)));
  PARADISE_ASSIGN_OR_RETURN(PerNode oil,
                            TracedScan(coord, db->land_cover(), oil_pred, {}));
  PerNode oil_all;
  {
    Span s("core.exchange");
    PARADISE_ASSIGN_OR_RETURN(oil_all, core::Broadcast(&coord, oil));
  }
  PARADISE_ASSIGN_OR_RETURN(PerNode rasters,
                            SelectRasters(coord, db, lo, hi, k.channel));
  core::Cluster* cluster = db->cluster();
  PerNode out(cluster->num_nodes());
  {
    Span s("core.phase");
    PARADISE_RETURN_IF_ERROR(coord.RunPhase("clip join", [&](int n) -> Status {
      CountedContext cc(core::MakeNodeContext(cluster, n), counters);
      const exec::ExecContext& ctx = cc.ctx();
      for (const Tuple& rt : rasters[n]) {
        const array::Raster& raster = *rt.at(col::kRasterData).AsRaster();
        for (const Tuple& of : oil_all[n]) {
          const exec::PolygonPtr& poly = of.at(col::kLcShape).AsPolygon();
          StatusOr<array::Raster> clipped_or = Status::OK();
          {
            Span clip("array.clip");
            clipped_or = array::ClipRaster(
                raster, *poly, ctx.SourceFor(raster.handle.owner_node),
                ctx.temp_store, ctx.clock, static_cast<uint32_t>(n));
          }
          if (!clipped_or.ok()) continue;  // polygon misses the raster
          out[n].push_back(Tuple({of.at(col::kLcShape),
                                  Value(std::move(clipped_or).value())}));
        }
      }
      return Status::OK();
    }));
  }
  PARADISE_ASSIGN_OR_RETURN(TupleVec rows, TracedGather(coord, out));
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> Query10(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(Begin(coord));
  const QueryConstants& k = db->constants();
  ExprPtr pred = exec::Cmp(
      CompareOp::kGt,
      exec::RasterAverageOf(
          exec::RasterClip(exec::Col(col::kRasterData), k.clip_polygon)),
      exec::Lit(Value(k.average_threshold)));
  std::vector<ExprPtr> proj = {
      exec::Col(col::kRasterDate), exec::Col(col::kRasterChannel),
      exec::RasterClip(exec::Col(col::kRasterData), k.clip_polygon)};
  PARADISE_ASSIGN_OR_RETURN(PerNode per,
                            TracedScan(coord, db->raster(), pred, proj));
  PARADISE_ASSIGN_OR_RETURN(TupleVec rows, TracedGather(coord, per));
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> Query11(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(Begin(coord));
  const QueryConstants& k = db->constants();
  PARADISE_ASSIGN_OR_RETURN(PerNode roads,
                            TracedScan(coord, db->roads(), nullptr, {}));
  std::vector<exec::AggregatePtr> aggs = {
      exec::MakeClosest(exec::Col(col::kLineShape), k.point)};
  TupleVec rows;
  {
    Span s("core.closest");
    PARADISE_ASSIGN_OR_RETURN(
        rows, core::ParallelAggregate(&coord, roads, {col::kLineType}, aggs));
  }
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> Query12(BenchmarkDatabase* db) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(Begin(coord));
  ExprPtr city_pred =
      exec::Cmp(CompareOp::kEq, exec::Col(col::kPlaceType),
                exec::Lit(Value(paradise::datagen::kLargeCityType)));
  PARADISE_ASSIGN_OR_RETURN(PerNode cities,
                            TracedScan(coord, db->places(), city_pred, {}));
  PARADISE_ASSIGN_OR_RETURN(PerNode features,
                            TracedScan(coord, db->drainage(), nullptr, {}));
  int64_t features_total = db->drainage().num_rows();
  uint32_t by_density = static_cast<uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(features_total) / 170.0)));
  uint32_t by_nodes = static_cast<uint32_t>(
      std::ceil(std::sqrt(4.0 * db->cluster()->num_nodes())));
  uint32_t tiles_per_axis = std::clamp(
      by_density, by_nodes, core::SpatialGrid::kDefaultTilesPerAxis);
  core::ClosestJoinStats stats;
  TupleVec rows;
  {
    Span s("core.closest");
    PARADISE_ASSIGN_OR_RETURN(
        rows, core::SpatialJoinWithClosest(&coord, cities, col::kPlaceLocation,
                                           features, col::kLineShape,
                                           db->universe(), tiles_per_axis,
                                           &stats));
  }
  return Finish(coord, std::move(rows));
}

StatusOr<QueryResult> Query13(BenchmarkDatabase* db, JoinInputs* join) {
  QueryCoordinator coord(db->cluster());
  PARADISE_RETURN_IF_ERROR(Begin(coord));
  PARADISE_ASSIGN_OR_RETURN(PerNode drainage,
                            TracedScanAll(coord, db->drainage()));
  PARADISE_ASSIGN_OR_RETURN(PerNode roads, TracedScanAll(coord, db->roads()));
  core::ParallelSpatialJoinOptions opts;
  opts.tiles_per_axis = db->drainage().grid().tiles_per_axis();
  opts.left_predeclustered = true;
  opts.right_predeclustered = true;
  opts.routing_grid = &db->drainage().grid();
  PerNode joined;
  {
    Span s("core.spatial_join");
    PARADISE_ASSIGN_OR_RETURN(
        joined, core::ParallelSpatialJoin(&coord, drainage, col::kLineShape,
                                          roads, col::kLineShape,
                                          db->universe(), opts));
  }
  join->left = std::move(drainage);
  join->right = std::move(roads);
  PARADISE_ASSIGN_OR_RETURN(TupleVec rows, TracedGather(coord, joined));
  return Finish(coord, std::move(rows));
}

}  // namespace

uint64_t Fingerprint(const TupleVec& rows) {
  uint64_t sum = 0;
  for (const Tuple& t : rows) {
    uint64_t h = t.size();
    for (const Value& v : t.values) h = Mix(h, HashValue(v));
    sum += Mix(h, 0);
  }
  return Mix(sum, rows.size());
}

StatusOr<QueryResult> RunDecomposedQuery(BenchmarkDatabase* db, int number,
                                         TileCounters* counters,
                                         JoinInputs* join) {
  const QueryConstants& k = db->constants();
  switch (number) {
    case 2: return Query2(db);
    case 3: return Query3(db, counters);
    case 4: return Query4(db, counters);
    case 5: return Query5(db);
    case 6: return Query6(db);
    case 7: return Query7(db, counters);
    case 8: return Query8(db);
    case 9: return OilFieldClip(db, k.q3_date, k.q3_date, counters);
    case 10: return Query10(db);
    case 11: return Query11(db);
    case 12: return Query12(db);
    case 13: return Query13(db, join);
    case 14: return OilFieldClip(db, k.q14_lo, k.q14_hi, counters);
    default: return Status::InvalidArgument("no such query");
  }
}

StatusOr<QueryResult> RunDrainageRoadsJoin(BenchmarkDatabase* db,
                                           bool decomposed, JoinInputs* join) {
  const ParallelTable& outer = db->drainage();
  const ParallelTable& inner = db->roads();
  QueryCoordinator coord(db->cluster());
  if (!decomposed) {
    PARADISE_ASSIGN_OR_RETURN(
        TupleVec rows,
        core::Query::On(&outer)
            .SpatialJoinWith(&inner, col::kLineShape, col::kLineShape)
            .Run(&coord));
    return Finish(coord, std::move(rows));
  }
  // core::Query's plan for this statement on a two-layer inner: no
  // sargable predicate on the outer (sequential scan), the class plan
  // against the spatially declustered inner (the outer is far too large for
  // broadcast + index nested loops).
  if (inner.def().partitioning != paradise::catalog::PartitioningKind::kTwoLayer ||
      inner.def().universe.IsEmpty()) {
    return Status::FailedPrecondition("two_layer_join needs a two-layer inner");
  }
  PARADISE_RETURN_IF_ERROR(Begin(coord));
  PARADISE_ASSIGN_OR_RETURN(PerNode left, TracedScan(coord, outer, nullptr, {}));
  PARADISE_ASSIGN_OR_RETURN(PerNode right, TracedScanAll(coord, inner));
  const core::SpatialGrid& grid = inner.grid();
  // The outer's redistribution onto the inner's grid, which
  // ParallelSpatialJoin would run first: the same call, as its own
  // exchange, so the local join phase below gets predeclustered inputs.
  PerNode left_placed;
  {
    Span s("core.exchange");
    PARADISE_ASSIGN_OR_RETURN(
        left_placed,
        core::Redistribute(&coord, left,
                           [&grid](const Tuple& t, std::vector<uint32_t>* dests) {
                             *dests = grid.NodesOfBox(t.at(col::kLineShape).Mbr());
                           }));
  }
  core::ParallelSpatialJoinOptions opts;
  opts.left_predeclustered = true;
  opts.right_predeclustered = true;
  opts.two_layer = true;
  opts.routing_grid = &grid;
  opts.tiles_per_axis = grid.tiles_per_axis();
  PerNode joined;
  {
    Span s("core.spatial_join");
    PARADISE_ASSIGN_OR_RETURN(
        joined, core::ParallelSpatialJoin(&coord, left_placed, col::kLineShape,
                                          right, col::kLineShape,
                                          inner.def().universe, opts));
  }
  join->left = std::move(left_placed);
  join->right = std::move(right);
  PARADISE_ASSIGN_OR_RETURN(TupleVec rows, TracedGather(coord, joined));
  return Finish(coord, std::move(rows));
}

}  // namespace perfbench
