#ifndef PARADISE_DATAGEN_DATAGEN_H_
#define PARADISE_DATAGEN_DATAGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/date.h"
#include "common/rng.h"
#include "exec/tuple.h"
#include "geom/box.h"

namespace paradise::datagen {

/// Feature-type constants mirroring the benchmark schema (Section 3.1.1).
inline constexpr int64_t kNumLandCoverTypes = 16;
inline constexpr int64_t kOilFieldType = 7;       // landCover LCPYTYPE
inline constexpr int64_t kNumRoadTypes = 8;
inline constexpr int64_t kNumDrainageTypes = 21;
inline constexpr int64_t kNumPlaceTypes = 6;
inline constexpr int64_t kLargeCityType = 5;      // populatedPlaces type

/// Column indexes, fixed by the schemas below.
namespace col {
// populatedPlaces(id, containing_face, type, location, name)
inline constexpr size_t kPlaceId = 0, kPlaceFace = 1, kPlaceType = 2,
                        kPlaceLocation = 3, kPlaceName = 4;
// roads/drainage(id, type, shape)
inline constexpr size_t kLineId = 0, kLineType = 1, kLineShape = 2;
// landCover(id, type, shape)
inline constexpr size_t kLcId = 0, kLcType = 1, kLcShape = 2;
// raster(date, channel, data)
inline constexpr size_t kRasterDate = 0, kRasterChannel = 1, kRasterData = 2;
}  // namespace col

/// Sizing of the synthetic global data set. Defaults approximate the
/// paper's 4-node base data set (Table 3.1) shrunk ~64x so a full bench
/// run fits one machine; `scale` applies the paper's *resolution scaleup*
/// (Section 3.1.3) exactly as specified.
struct DataSetOptions {
  uint64_t seed = 42;
  /// Resolution scaleup factor S: 1 for the 4-node data set, 2 for 8
  /// nodes, 4 for 16 nodes.
  int scale = 1;
  /// Linear shrink applied to base tuple counts (1.0 = the paper's
  /// 250k/700k/1.74M/570k tuples — do not try that on a laptop).
  double size_fraction = 1.0 / 64;

  // Base (fraction=1, scale=1) cardinalities from Table 3.1.
  int64_t base_places = 250'000;
  int64_t base_roads = 700'000;
  int64_t base_drainage = 1'740'000;
  int64_t base_land_cover = 570'000;

  /// 360 dates x 4 channels = 1440 rasters, as in the paper. Shrinking
  /// the raster set reduces dates, keeping 4 channels.
  int num_dates = 360;
  int num_channels = 4;
  /// Base image resolution (paper: ~20 MB/image; here ~253 KB).
  uint32_t base_raster_size = 360;

  /// Number of population centers (skew generators).
  int num_centers = 24;
};

/// One synthetic satellite image (pixels are generated, then the loader
/// stores/tiles/compresses them onto a node).
struct RasterSpec {
  Date date;
  int64_t channel = 0;
  uint32_t height = 0;
  uint32_t width = 0;
  std::vector<uint16_t> pixels;
  geom::Box geo;
};

/// The synthetic global geo-spatial data set.
struct GlobalDataSet {
  geom::Box universe;  // lon/lat world box
  std::vector<exec::Tuple> populated_places;
  std::vector<exec::Tuple> roads;
  std::vector<exec::Tuple> drainage;
  std::vector<exec::Tuple> land_cover;
  std::vector<RasterSpec> rasters;

  int64_t VectorBytes() const;
  int64_t RasterBytes() const;
};

exec::Schema PlacesSchema();
exec::Schema RoadsSchema();
exec::Schema DrainageSchema();
exec::Schema LandCoverSchema();
exec::Schema RasterSchema();

/// Generates the data set; deterministic in `options.seed`.
GlobalDataSet GenerateGlobalDataSet(const DataSetOptions& options);

/// Adversarially clustered workloads for skew studies (not paper
/// reproduction): nearly all features concentrate in a few hotspots, so a
/// cell→partition map that keeps neighbouring cells together overloads
/// the partitions that own them. The partition-count and two-layer
/// ablations and the PBSM stats tests use them.
struct ClusteredDataOptions {
  uint64_t seed = 7;
  /// Feature count before any polyline splitting.
  int64_t count = 10'000;
  /// Number of hotspots (coastline arcs / urban centers).
  int num_clusters = 6;
  /// Fraction of features drawn from hotspots instead of the uniform
  /// background: 0 = uniform data, 1 = fully clustered.
  double skew = 0.9;
  geom::Box universe = geom::Box(-180.0, -90.0, 180.0, 90.0);
};

/// Coastline-hugging polylines: roads follow a handful of long synthetic
/// coastline arcs with small lateral jitter. RoadsSchema-compatible
/// tuples (id, type, shape); deterministic in `options.seed`.
std::vector<exec::Tuple> GenerateCoastlineRoads(
    const ClusteredDataOptions& options);

/// Gaussian urban point clusters with Zipf-weighted center choice.
/// PlacesSchema-compatible tuples (id, face, type, location, name);
/// deterministic in `options.seed`.
std::vector<exec::Tuple> GenerateUrbanPoints(
    const ClusteredDataOptions& options);

/// The paper's resolution-scaleup primitives (exposed for tests):
/// scale a polygon S times: the original gains N*(S-1)/S points by edge
/// splitting, and S-1 regular "satellite" polygons (each with N*(S-1)/S
/// points, bounding box 1/10 the size) appear nearby.
std::vector<geom::Polygon> ScalePolygon(const geom::Polygon& polygon, int s,
                                        Rng* rng);
std::vector<geom::Polyline> ScalePolyline(const geom::Polyline& line, int s,
                                          Rng* rng);
std::vector<geom::Point> ScalePoint(const geom::Point& point, int s, Rng* rng);

}  // namespace paradise::datagen

#endif  // PARADISE_DATAGEN_DATAGEN_H_
