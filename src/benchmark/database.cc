#include "benchmark/database.h"

#include "array/raster.h"
#include "common/logging.h"
#include "core/topology.h"

namespace paradise::benchmark {

using catalog::IndexDef;
using catalog::PartitioningKind;
using catalog::TableDef;
using core::ParallelTable;
using exec::Tuple;
using exec::Value;
using geom::Box;
using geom::Point;
using geom::Polygon;

namespace {

/// The "constant POLYGON": a rectangle over roughly the continental US
/// (~2% of the world raster's area).
Polygon MakeClipPolygon() {
  // 50 x 14.4 degrees: 720 / 64800 sq-deg ~= 1.1%; widen to ~2%.
  return Polygon({Point{-125, 30}, Point{-67, 30}, Point{-67, 50},
                  Point{-125, 50}});
}

}  // namespace

StatusOr<std::unique_ptr<BenchmarkDatabase>> BenchmarkDatabase::Load(
    core::Cluster* cluster, const datagen::GlobalDataSet& ds,
    const LoadOptions& options) {
  auto db = std::unique_ptr<BenchmarkDatabase>(new BenchmarkDatabase());
  db->cluster_ = cluster;
  db->universe_ = ds.universe;

  db->constants_.clip_polygon =
      std::make_shared<const Polygon>(MakeClipPolygon());
  db->constants_.point = Point{-89.4, 43.07};  // Madison, of course
  db->constants_.q3_date = Date::FromYmd(1988, 4, 4);
  db->constants_.q14_lo = Date::FromYmd(1988, 4, 1);
  db->constants_.q14_hi = Date::FromYmd(1988, 12, 31);

  // Nudge q3_date onto an actual raster date (the generator emits 10-day
  // composites from 1986-01-06).
  if (!ds.rasters.empty()) {
    Date best = ds.rasters[0].date;
    for (const datagen::RasterSpec& r : ds.rasters) {
      if (r.date <= db->constants_.q3_date && r.date > best) best = r.date;
    }
    db->constants_.q3_date = best;
  }

  // ---- vector tables: spatially declustered on the world grid ----
  {
    TableDef def;
    def.name = "populatedPlaces";
    def.schema = datagen::PlacesSchema();
    def.partitioning = options.two_layer_vectors
                           ? PartitioningKind::kTwoLayer
                           : PartitioningKind::kSpatial;
    def.partition_column = datagen::col::kPlaceLocation;
    def.universe = ds.universe;
    def.indexes = {IndexDef{"places_name", datagen::col::kPlaceName, false}};
    PARADISE_ASSIGN_OR_RETURN(
        db->places_, ParallelTable::Load(cluster, std::move(def),
                                         ds.populated_places,
                                         options.tiles_per_axis));
  }
  {
    TableDef def;
    def.name = "roads";
    def.schema = datagen::RoadsSchema();
    def.partitioning = options.two_layer_vectors
                           ? PartitioningKind::kTwoLayer
                           : PartitioningKind::kSpatial;
    def.partition_column = datagen::col::kLineShape;
    def.universe = ds.universe;
    def.indexes = {IndexDef{"roads_shape", datagen::col::kLineShape, true}};
    PARADISE_ASSIGN_OR_RETURN(
        db->roads_, ParallelTable::Load(cluster, std::move(def), ds.roads,
                                        options.tiles_per_axis));
  }
  {
    TableDef def;
    def.name = "drainage";
    def.schema = datagen::DrainageSchema();
    def.partitioning = options.two_layer_vectors
                           ? PartitioningKind::kTwoLayer
                           : PartitioningKind::kSpatial;
    def.partition_column = datagen::col::kLineShape;
    def.universe = ds.universe;
    def.indexes = {IndexDef{"drainage_shape", datagen::col::kLineShape, true}};
    PARADISE_ASSIGN_OR_RETURN(
        db->drainage_, ParallelTable::Load(cluster, std::move(def),
                                           ds.drainage,
                                           options.tiles_per_axis));
  }
  {
    TableDef def;
    def.name = "landCover";
    def.schema = datagen::LandCoverSchema();
    def.partitioning = options.two_layer_vectors
                           ? PartitioningKind::kTwoLayer
                           : PartitioningKind::kSpatial;
    def.partition_column = datagen::col::kLcShape;
    def.universe = ds.universe;
    def.indexes = {IndexDef{"landCover_shape", datagen::col::kLcShape, true}};
    PARADISE_ASSIGN_OR_RETURN(
        db->land_cover_, ParallelTable::Load(cluster, std::move(def),
                                             ds.land_cover,
                                             options.tiles_per_axis));
  }

  // ---- raster table: tuples round-robin; tiles stored on the owning
  // node (or declustered across all nodes for the Section 2.6 study) ----
  {
    int num_nodes = cluster->num_nodes();
    std::vector<Tuple> rows;
    std::vector<uint32_t> owners;
    rows.reserve(ds.rasters.size());
    owners.reserve(ds.rasters.size());
    for (size_t i = 0; i < ds.rasters.size(); ++i) {
      const datagen::RasterSpec& spec = ds.rasters[i];
      // Hash-spread owners: the generator emits channels in an inner
      // loop, so plain round-robin would correlate channel with node
      // (putting, say, every channel-5 raster on one node). The paper's
      // rasters are "more or less uniformly distributed".
      uint64_t h = (i + 1) * 0x9e3779b97f4a7c15ULL;
      int owner = static_cast<int>((h >> 33) % static_cast<uint64_t>(num_nodes));
      owners.push_back(static_cast<uint32_t>(owner));
      array::Raster raster;
      raster.geo = spec.geo;
      const uint8_t* bytes =
          reinterpret_cast<const uint8_t*>(spec.pixels.data());
      if (options.decluster_rasters) {
        // Spread this image's tiles round-robin over all nodes. Tile t of
        // *every* image lands on the same node, so whole-image operations
        // (Query 3') can combine corresponding tiles without moving data.
        PARADISE_ASSIGN_OR_RETURN(
            raster.handle,
            array::StoreArrayWithPlacement(
                bytes, {spec.height, spec.width}, 2,
                [&](uint32_t tile_index, const std::vector<uint32_t>&) {
                  int node = static_cast<int>(tile_index %
                                              static_cast<uint32_t>(num_nodes));
                  return array::TilePlacement{
                      cluster->node(node).lob_store(),
                      cluster->node(node).clock(), node};
                },
                /*compress=*/true, options.tile_bytes,
                static_cast<uint32_t>(owner)));
      } else {
        core::Node& node = cluster->node(owner);
        PARADISE_ASSIGN_OR_RETURN(
            raster.handle,
            array::StoreArray(bytes, {spec.height, spec.width}, 2,
                              node.lob_store(), node.clock(),
                              /*compress=*/true, options.tile_bytes,
                              static_cast<uint32_t>(owner)));
      }
      rows.push_back(Tuple({Value(spec.date), Value(spec.channel),
                            Value(std::move(raster))}));
    }
    TableDef def;
    def.name = "raster";
    def.schema = datagen::RasterSchema();
    def.partitioning = PartitioningKind::kRoundRobin;
    def.indexes = {IndexDef{"raster_date", datagen::col::kRasterDate, false}};
    PARADISE_ASSIGN_OR_RETURN(
        db->raster_,
        ParallelTable::Load(cluster, std::move(def), rows,
                            core::SpatialGrid::kDefaultTilesPerAxis,
                            &owners));
  }
  // Register with the cluster's topology layer: membership changes
  // (join/drain/remove), online tile migration and loss salvage maintain
  // these tables' grids and fragments.
  core::TopologyManager* topology = cluster->topology();
  topology->RegisterTable(db->places_.get());
  topology->RegisterTable(db->roads_.get());
  topology->RegisterTable(db->drainage_.get());
  topology->RegisterTable(db->land_cover_.get());
  topology->RegisterTable(db->raster_.get());
  return db;
}

BenchmarkDatabase::~BenchmarkDatabase() {
  // The cluster (and its TopologyManager) outlives this database object;
  // drop the registrations so pending migration state cannot dangle.
  if (cluster_ == nullptr) return;
  core::TopologyManager* topology = cluster_->topology();
  for (core::ParallelTable* t :
       {places_.get(), roads_.get(), drainage_.get(), land_cover_.get(),
        raster_.get()}) {
    if (t != nullptr) topology->UnregisterTable(t);
  }
}

}  // namespace paradise::benchmark
