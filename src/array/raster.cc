#include "array/raster.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "sim/cost_model.h"

namespace paradise::array {

using geom::Box;
using geom::Point;
using geom::Polygon;

Raster::PixelRegion Raster::RegionForBox(const Box& box) const {
  PixelRegion r;
  Box overlap = geo.Intersection(box);
  if (overlap.IsEmpty()) return r;
  double pw = PixelWidth();
  double ph = PixelHeight();
  // Columns increase with x; rows increase as y decreases.
  r.col_lo = static_cast<uint32_t>(
      std::clamp(std::floor((overlap.xmin - geo.xmin) / pw), 0.0,
                 static_cast<double>(width())));
  r.col_hi = static_cast<uint32_t>(
      std::clamp(std::ceil((overlap.xmax - geo.xmin) / pw), 0.0,
                 static_cast<double>(width())));
  r.row_lo = static_cast<uint32_t>(
      std::clamp(std::floor((geo.ymax - overlap.ymax) / ph), 0.0,
                 static_cast<double>(height())));
  r.row_hi = static_cast<uint32_t>(
      std::clamp(std::ceil((geo.ymax - overlap.ymin) / ph), 0.0,
                 static_cast<double>(height())));
  return r;
}

void Raster::Serialize(ByteWriter* w) const {
  handle.Serialize(w);
  w->PutDouble(geo.xmin);
  w->PutDouble(geo.ymin);
  w->PutDouble(geo.xmax);
  w->PutDouble(geo.ymax);
}

Raster Raster::Deserialize(ByteReader* r) {
  Raster out;
  out.handle = ArrayHandle::Deserialize(r);
  out.geo.xmin = r->GetDouble();
  out.geo.ymin = r->GetDouble();
  out.geo.xmax = r->GetDouble();
  out.geo.ymax = r->GetDouble();
  return out;
}

StatusOr<Raster> MakeRaster(const std::vector<uint16_t>& pixels,
                            uint32_t height, uint32_t width, const Box& geo,
                            storage::LargeObjectStore* store,
                            sim::NodeClock* clock, size_t tile_bytes,
                            uint32_t owner_node) {
  PARADISE_CHECK(pixels.size() == static_cast<size_t>(height) * width);
  Raster r;
  r.geo = geo;
  PARADISE_ASSIGN_OR_RETURN(
      r.handle,
      StoreArray(reinterpret_cast<const uint8_t*>(pixels.data()),
                 {height, width}, /*elem_size=*/2, store, clock,
                 /*compress=*/true, tile_bytes, owner_node));
  return r;
}

namespace {

/// Geo extent of a pixel region within `raster`.
Box GeoForRegion(const Raster& raster, const Raster::PixelRegion& region) {
  double pw = raster.PixelWidth();
  double ph = raster.PixelHeight();
  return Box(raster.geo.xmin + region.col_lo * pw,
             raster.geo.ymax - region.row_hi * ph,
             raster.geo.xmin + region.col_hi * pw,
             raster.geo.ymax - region.row_lo * ph);
}

StatusOr<std::vector<uint16_t>> ReadPixelRegion(
    const Raster& raster, const Raster::PixelRegion& region,
    TileSource* source) {
  PARADISE_ASSIGN_OR_RETURN(
      ByteBuffer bytes,
      ReadRegion(raster.handle, source, {region.row_lo, region.col_lo},
                 {region.row_hi, region.col_hi}));
  std::vector<uint16_t> pixels(bytes.size() / 2);
  std::memcpy(pixels.data(), bytes.data(), bytes.size());
  return pixels;
}

}  // namespace

StatusOr<Raster> ClipRaster(const Raster& raster, const Polygon& polygon,
                            TileSource* source,
                            storage::LargeObjectStore* out_store,
                            sim::NodeClock* clock, uint32_t owner_node) {
  Raster::PixelRegion region = raster.RegionForBox(polygon.Mbr());
  if (region.empty()) {
    return Status::NotFound("polygon does not overlap raster");
  }
  PARADISE_ASSIGN_OR_RETURN(std::vector<uint16_t> pixels,
                            ReadPixelRegion(raster, region, source));
  uint32_t rows = region.row_hi - region.row_lo;
  uint32_t cols = region.col_hi - region.col_lo;
  // Mask pixels whose centers fall outside the polygon.
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      Point center =
          raster.PixelCenter(region.row_lo + r, region.col_lo + c);
      if (!polygon.Contains(center)) {
        pixels[static_cast<size_t>(r) * cols + c] = Raster::kNoData;
      }
    }
  }
  if (clock != nullptr) {
    // Pixel masking plus a point-in-polygon test per pixel.
    clock->ChargeCpu(static_cast<double>(pixels.size()) *
                     (sim::cpu_cost::kPerPixel +
                      sim::cpu_cost::kPerPointDistance));
  }
  Raster out;
  out.geo = GeoForRegion(raster, region);
  PARADISE_ASSIGN_OR_RETURN(
      out.handle,
      StoreArray(reinterpret_cast<const uint8_t*>(pixels.data()),
                 {rows, cols}, 2, out_store, clock, /*compress=*/true,
                 kDefaultTileBytes, owner_node));
  return out;
}

StatusOr<Raster> LowerRes(const Raster& raster, uint32_t factor,
                          TileSource* source,
                          storage::LargeObjectStore* out_store,
                          sim::NodeClock* clock, uint32_t owner_node) {
  PARADISE_CHECK(factor >= 1);
  Raster::PixelRegion all{0, raster.height(), 0, raster.width()};
  PARADISE_ASSIGN_OR_RETURN(std::vector<uint16_t> pixels,
                            ReadPixelRegion(raster, all, source));
  uint32_t out_h = std::max<uint32_t>(1, raster.height() / factor);
  uint32_t out_w = std::max<uint32_t>(1, raster.width() / factor);
  std::vector<uint16_t> out_pixels(static_cast<size_t>(out_h) * out_w);
  for (uint32_t r = 0; r < out_h; ++r) {
    for (uint32_t c = 0; c < out_w; ++c) {
      uint64_t sum = 0;
      uint32_t count = 0;
      for (uint32_t dr = 0; dr < factor; ++dr) {
        for (uint32_t dc = 0; dc < factor; ++dc) {
          uint32_t rr = r * factor + dr;
          uint32_t cc = c * factor + dc;
          if (rr >= raster.height() || cc >= raster.width()) continue;
          uint16_t v = pixels[static_cast<size_t>(rr) * raster.width() + cc];
          if (v == Raster::kNoData) continue;
          sum += v;
          ++count;
        }
      }
      out_pixels[static_cast<size_t>(r) * out_w + c] =
          count == 0 ? Raster::kNoData : static_cast<uint16_t>(sum / count);
    }
  }
  if (clock != nullptr) {
    clock->ChargeCpu(static_cast<double>(pixels.size()) *
                     sim::cpu_cost::kPerPixel);
  }
  Raster out;
  out.geo = raster.geo;
  PARADISE_ASSIGN_OR_RETURN(
      out.handle,
      StoreArray(reinterpret_cast<const uint8_t*>(out_pixels.data()),
                 {out_h, out_w}, 2, out_store, clock, /*compress=*/true,
                 kDefaultTileBytes, owner_node));
  return out;
}

StatusOr<double> RasterAverage(const Raster& raster, TileSource* source,
                               sim::NodeClock* clock) {
  Raster::PixelRegion all{0, raster.height(), 0, raster.width()};
  PARADISE_ASSIGN_OR_RETURN(std::vector<uint16_t> pixels,
                            ReadPixelRegion(raster, all, source));
  uint64_t sum = 0;
  uint64_t count = 0;
  for (uint16_t v : pixels) {
    if (v == Raster::kNoData) continue;
    sum += v;
    ++count;
  }
  if (clock != nullptr) {
    clock->ChargeCpu(static_cast<double>(pixels.size()) *
                     sim::cpu_cost::kPerPixel);
  }
  if (count == 0) return Status::NotFound("raster has no valid pixels");
  return static_cast<double>(sum) / static_cast<double>(count);
}

StatusOr<Raster> PixelAverage(const std::vector<Raster>& rasters,
                              const std::vector<TileSource*>& sources,
                              const Raster::PixelRegion& region,
                              storage::LargeObjectStore* out_store,
                              sim::NodeClock* clock, uint32_t owner_node) {
  PARADISE_CHECK(!rasters.empty() && rasters.size() == sources.size());
  std::vector<uint64_t> sum(region.num_pixels(), 0);
  std::vector<uint32_t> count(sum.size(), 0);
  for (size_t i = 0; i < rasters.size(); ++i) {
    if (rasters[i].height() != rasters[0].height() ||
        rasters[i].width() != rasters[0].width()) {
      return Status::InvalidArgument("PixelAverage: shape mismatch");
    }
    PARADISE_ASSIGN_OR_RETURN(
        ByteBuffer bytes,
        ReadRegion(rasters[i].handle, sources[i],
                   {region.row_lo, region.col_lo},
                   {region.row_hi, region.col_hi}));
    const uint16_t* px = reinterpret_cast<const uint16_t*>(bytes.data());
    for (size_t p = 0; p < sum.size(); ++p) {
      if (px[p] == Raster::kNoData) continue;
      sum[p] += px[p];
      ++count[p];
    }
    if (clock != nullptr) {
      clock->ChargeCpu(static_cast<double>(sum.size()) *
                       sim::cpu_cost::kPerPixel);
    }
  }
  std::vector<uint16_t> out_pixels(sum.size());
  for (size_t p = 0; p < sum.size(); ++p) {
    out_pixels[p] = count[p] == 0
                        ? Raster::kNoData
                        : static_cast<uint16_t>(sum[p] / count[p]);
  }
  Raster out;
  out.geo = rasters[0].geo;
  PARADISE_ASSIGN_OR_RETURN(
      out.handle,
      StoreArray(reinterpret_cast<const uint8_t*>(out_pixels.data()),
                 {region.row_hi - region.row_lo, region.col_hi - region.col_lo},
                 2, out_store, clock, /*compress=*/true, kDefaultTileBytes,
                 owner_node));
  return out;
}

}  // namespace paradise::array
