#ifndef PARADISE_BENCHMARK_DATABASE_H_
#define PARADISE_BENCHMARK_DATABASE_H_

#include <memory>

#include "core/cluster.h"
#include "core/parallel_ops.h"
#include "core/table.h"
#include "datagen/datagen.h"
#include "geom/polygon.h"

namespace paradise::benchmark {

/// Query constants (Section 3.1.2). The fixed POLYGON is a rectangular
/// region covering ~2% of each raster image, "roughly corresponding to
/// the continental United States".
struct QueryConstants {
  exec::PolygonPtr clip_polygon;       // the "constant POLYGON"
  geom::Point point;                   // the fixed POINT
  double radius = 12.0;                // Query 7's RADIUS (degrees)
  double max_area = 0.4;               // Query 7's area CONSTANT
  double box_length = 1.5;             // Query 8's LENGTH
  double average_threshold = 1300.0;   // Query 10's CONSTANT
  Date q3_date;                        // "1988-04-01"-equivalent date
  Date q14_lo, q14_hi;                 // Query 14's date range
  int64_t channel = 5;
};

struct LoadOptions {
  /// Spread each raster's tiles across all nodes (the Section 2.6 /
  /// Table 3.5 experiment). Default: a raster's tiles stay on one node.
  bool decluster_rasters = false;
  /// Tile size for raster chunking.
  size_t tile_bytes = 8 * 1024;
  uint32_t tiles_per_axis = core::SpatialGrid::kDefaultTilesPerAxis;
  /// Decluster the vector tables as kTwoLayer instead of kSpatial: the
  /// same stored bytes on the same tile grid, but joins run the two-layer
  /// class plan and skip the reference-point dedup branch.
  bool two_layer_vectors = false;
};

/// The loaded benchmark database: the five tables of Section 3.1.1,
/// declustered across the cluster (Query 1 is this load).
class BenchmarkDatabase {
 public:
  /// Loads `ds` into `cluster`: vector tables spatially declustered on
  /// the world grid (places by location, roads/drainage/landCover by
  /// shape), rasters round-robin with their tiles on the owning node.
  static StatusOr<std::unique_ptr<BenchmarkDatabase>> Load(
      core::Cluster* cluster, const datagen::GlobalDataSet& ds,
      const LoadOptions& options = {});

  /// Unregisters the tables from the cluster's TopologyManager.
  ~BenchmarkDatabase();

  core::Cluster* cluster() { return cluster_; }
  core::ParallelTable& places() { return *places_; }
  core::ParallelTable& roads() { return *roads_; }
  core::ParallelTable& drainage() { return *drainage_; }
  core::ParallelTable& land_cover() { return *land_cover_; }
  core::ParallelTable& raster() { return *raster_; }

  const geom::Box& universe() const { return universe_; }
  const QueryConstants& constants() const { return constants_; }

 private:
  BenchmarkDatabase() = default;

  core::Cluster* cluster_ = nullptr;
  geom::Box universe_;
  QueryConstants constants_;
  std::unique_ptr<core::ParallelTable> places_;
  std::unique_ptr<core::ParallelTable> roads_;
  std::unique_ptr<core::ParallelTable> drainage_;
  std::unique_ptr<core::ParallelTable> land_cover_;
  std::unique_ptr<core::ParallelTable> raster_;
};

}  // namespace paradise::benchmark

#endif  // PARADISE_BENCHMARK_DATABASE_H_
