#ifndef PARADISE_ARRAY_RASTER_H_
#define PARADISE_ARRAY_RASTER_H_

#include <cstdint>
#include <vector>

#include "array/chunked_array.h"
#include "common/status.h"
#include "geom/box.h"
#include "geom/polygon.h"

namespace paradise::array {

/// A 2-D geo-located raster image (the benchmark's Raster16), derived from
/// the array ADT: dims = {height, width}, row 0 at the top (max y).
/// Pixels hold 16-bit samples; kNoData marks pixels masked out by a clip.
struct Raster {
  static constexpr uint16_t kNoData = 0xffff;

  ArrayHandle handle;  // elem_size == 2
  geom::Box geo;       // georeferenced extent

  uint32_t height() const { return handle.dims[0]; }
  uint32_t width() const { return handle.dims[1]; }

  double PixelWidth() const { return geo.Width() / width(); }
  double PixelHeight() const { return geo.Height() / height(); }

  /// Geo-coordinates of the center of pixel (row, col).
  geom::Point PixelCenter(uint32_t row, uint32_t col) const {
    return geom::Point{geo.xmin + (col + 0.5) * PixelWidth(),
                       geo.ymax - (row + 0.5) * PixelHeight()};
  }

  /// Pixel rows [row_lo, row_hi) and cols [col_lo, col_hi) covering the
  /// intersection of `box` with the raster extent; empty() if disjoint.
  struct PixelRegion {
    uint32_t row_lo = 0, row_hi = 0, col_lo = 0, col_hi = 0;
    bool empty() const { return row_lo >= row_hi || col_lo >= col_hi; }
    uint64_t num_pixels() const {
      return empty() ? 0
                     : static_cast<uint64_t>(row_hi - row_lo) *
                           (col_hi - col_lo);
    }
  };
  PixelRegion RegionForBox(const geom::Box& box) const;

  void Serialize(ByteWriter* w) const;
  static Raster Deserialize(ByteReader* r);
};

/// Builds a raster from dense row-major 16-bit samples, tiling/compressing
/// through StoreArray.
StatusOr<Raster> MakeRaster(const std::vector<uint16_t>& pixels,
                            uint32_t height, uint32_t width,
                            const geom::Box& geo,
                            storage::LargeObjectStore* store,
                            sim::NodeClock* clock,
                            size_t tile_bytes = kDefaultTileBytes,
                            uint32_t owner_node = 0);

/// Clips `raster` by `polygon`: the result covers the polygon's bounding
/// box intersected with the raster, with pixels whose centers fall outside
/// the polygon set to kNoData. Only tiles overlapping the clip region are
/// read — the paper's headline large-object optimisation. The result is
/// stored in `out_store` (or inlined if small). Returns NotFound when the
/// polygon misses the raster entirely.
StatusOr<Raster> ClipRaster(const Raster& raster, const geom::Polygon& polygon,
                            TileSource* source,
                            storage::LargeObjectStore* out_store,
                            sim::NodeClock* clock, uint32_t owner_node = 0);

/// Box-filter downsample by an integer factor (Query 4's lower_res(8)).
StatusOr<Raster> LowerRes(const Raster& raster, uint32_t factor,
                          TileSource* source,
                          storage::LargeObjectStore* out_store,
                          sim::NodeClock* clock, uint32_t owner_node = 0);

/// Mean sample value, ignoring kNoData pixels (Query 10's predicate).
StatusOr<double> RasterAverage(const Raster& raster, TileSource* source,
                               sim::NodeClock* clock);

/// Pixel-by-pixel average over `region` of same-shaped rasters, ignoring
/// kNoData samples (Query 3's sequential plan); source[i] reads
/// raster[i]'s tiles (they may live on different nodes). The result holds
/// the region's pixels and keeps rasters[0]'s geo extent.
StatusOr<Raster> PixelAverage(const std::vector<Raster>& rasters,
                              const std::vector<TileSource*>& sources,
                              const Raster::PixelRegion& region,
                              storage::LargeObjectStore* out_store,
                              sim::NodeClock* clock, uint32_t owner_node = 0);

}  // namespace paradise::array

#endif  // PARADISE_ARRAY_RASTER_H_
