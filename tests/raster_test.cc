#include <gtest/gtest.h>

#include <cstring>

#include "array/raster.h"
#include "common/rng.h"

namespace paradise::array {
namespace {

using geom::Box;
using geom::Point;
using geom::Polygon;

class RasterTest : public ::testing::Test {
 protected:
  RasterTest() : vol_(0, &clock_), pool_(4096), store_(&pool_, &vol_) {
    pool_.AttachVolume(&vol_);
  }

  Raster MakeGradientRaster(uint32_t h, uint32_t w, const Box& geo,
                            size_t tile_bytes = 8192) {
    std::vector<uint16_t> px(static_cast<size_t>(h) * w);
    for (uint32_t r = 0; r < h; ++r) {
      for (uint32_t c = 0; c < w; ++c) {
        px[static_cast<size_t>(r) * w + c] = static_cast<uint16_t>(r * 100 + c);
      }
    }
    auto raster = MakeRaster(px, h, w, geo, &store_, &clock_, tile_bytes);
    EXPECT_TRUE(raster.ok());
    return *raster;
  }

  sim::NodeClock clock_;
  storage::DiskVolume vol_;
  storage::BufferPool pool_;
  storage::LargeObjectStore store_;
};

TEST_F(RasterTest, PixelGeoMapping) {
  Raster r = MakeGradientRaster(100, 200, Box(0, 0, 200, 100));
  EXPECT_DOUBLE_EQ(r.PixelWidth(), 1.0);
  EXPECT_DOUBLE_EQ(r.PixelHeight(), 1.0);
  // Row 0 is the top (max y).
  Point p = r.PixelCenter(0, 0);
  EXPECT_DOUBLE_EQ(p.x, 0.5);
  EXPECT_DOUBLE_EQ(p.y, 99.5);
  Raster::PixelRegion region = r.RegionForBox(Box(10, 10, 20, 30));
  EXPECT_EQ(region.col_lo, 10u);
  EXPECT_EQ(region.col_hi, 20u);
  EXPECT_EQ(region.row_lo, 70u);  // y in [10,30] -> rows [70, 90)
  EXPECT_EQ(region.row_hi, 90u);
}

TEST_F(RasterTest, RegionForDisjointBoxIsEmpty) {
  Raster r = MakeGradientRaster(50, 50, Box(0, 0, 50, 50));
  EXPECT_TRUE(r.RegionForBox(Box(100, 100, 120, 120)).empty());
}

TEST_F(RasterTest, ClipMasksOutsidePolygon) {
  Raster r = MakeGradientRaster(100, 100, Box(0, 0, 100, 100));
  // Triangle in the lower-left corner.
  Polygon tri({Point{0, 0}, Point{60, 0}, Point{0, 60}});
  LocalTileSource src(&store_, &clock_);
  auto clipped = ClipRaster(r, tri, &src, &store_, &clock_);
  ASSERT_TRUE(clipped.ok());
  // The clip covers the triangle's bounding box.
  EXPECT_EQ(clipped->width(), 60u);
  EXPECT_EQ(clipped->height(), 60u);
  auto bytes = ReadFull(clipped->handle, &src);
  ASSERT_TRUE(bytes.ok());
  const uint16_t* px = reinterpret_cast<const uint16_t*>(bytes->data());
  int inside = 0, outside = 0;
  for (uint32_t row = 0; row < 60; ++row) {
    for (uint32_t col = 0; col < 60; ++col) {
      uint16_t v = px[row * 60 + col];
      Point center = clipped->PixelCenter(row, col);
      if (tri.Contains(center)) {
        EXPECT_NE(v, Raster::kNoData);
        ++inside;
      } else {
        EXPECT_EQ(v, Raster::kNoData);
        ++outside;
      }
    }
  }
  EXPECT_GT(inside, 1000);
  EXPECT_GT(outside, 1000);
}

TEST_F(RasterTest, ClipPreservesPixelValues) {
  Raster r = MakeGradientRaster(80, 80, Box(0, 0, 80, 80));
  Polygon square({Point{10, 10}, Point{30, 10}, Point{30, 30}, Point{10, 30}});
  LocalTileSource src(&store_, &clock_);
  auto clipped = ClipRaster(r, square, &src, &store_, &clock_);
  ASSERT_TRUE(clipped.ok());
  auto bytes = ReadFull(clipped->handle, &src);
  ASSERT_TRUE(bytes.ok());
  const uint16_t* px = reinterpret_cast<const uint16_t*>(bytes->data());
  // Pixel (15, 15) in geo space = row 64, col 15 of the source.
  // In the clipped raster: geo (15.5, 64.5)...
  // Simply verify: every non-nodata pixel equals the source pixel at the
  // same geo location.
  for (uint32_t row = 0; row < clipped->height(); ++row) {
    for (uint32_t col = 0; col < clipped->width(); ++col) {
      uint16_t v = px[row * clipped->width() + col];
      if (v == Raster::kNoData) continue;
      Point center = clipped->PixelCenter(row, col);
      uint32_t src_row = static_cast<uint32_t>(80 - center.y);
      uint32_t src_col = static_cast<uint32_t>(center.x);
      EXPECT_EQ(v, static_cast<uint16_t>(src_row * 100 + src_col));
    }
  }
}

TEST_F(RasterTest, ClipMissReturnsNotFound) {
  Raster r = MakeGradientRaster(50, 50, Box(0, 0, 50, 50));
  Polygon far({Point{200, 200}, Point{210, 200}, Point{205, 210}});
  LocalTileSource src(&store_, &clock_);
  EXPECT_FALSE(ClipRaster(r, far, &src, &store_, &clock_).ok());
}

TEST_F(RasterTest, ClipReadsOnlyNeededTiles) {
  Raster r = MakeGradientRaster(256, 256, Box(0, 0, 256, 256), 8192);
  ASSERT_GT(r.handle.num_tiles(), 8u);
  // Small polygon in one corner.
  Polygon small({Point{1, 1}, Point{10, 1}, Point{10, 10}, Point{1, 10}});
  Raster::PixelRegion region = r.RegionForBox(small.Mbr());
  std::vector<uint32_t> needed =
      TilesForRegion(r.handle, {region.row_lo, region.col_lo},
                     {region.row_hi, region.col_hi});
  EXPECT_LT(needed.size(), r.handle.num_tiles() / 2);
}

TEST_F(RasterTest, LowerResAveragesBlocks) {
  // Constant blocks so averaging is exact.
  std::vector<uint16_t> px(64 * 64);
  for (uint32_t r = 0; r < 64; ++r) {
    for (uint32_t c = 0; c < 64; ++c) {
      px[r * 64 + c] = static_cast<uint16_t>(((r / 8) * 8 + (c / 8)) * 10);
    }
  }
  auto raster = MakeRaster(px, 64, 64, Box(0, 0, 64, 64), &store_, &clock_);
  ASSERT_TRUE(raster.ok());
  LocalTileSource src(&store_, &clock_);
  auto low = LowerRes(*raster, 8, &src, &store_, &clock_);
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low->height(), 8u);
  EXPECT_EQ(low->width(), 8u);
  auto bytes = ReadFull(low->handle, &src);
  ASSERT_TRUE(bytes.ok());
  const uint16_t* lpx = reinterpret_cast<const uint16_t*>(bytes->data());
  for (uint32_t r = 0; r < 8; ++r) {
    for (uint32_t c = 0; c < 8; ++c) {
      EXPECT_EQ(lpx[r * 8 + c], (r * 8 + c) * 10);
    }
  }
}

TEST_F(RasterTest, AverageIgnoresNoData) {
  std::vector<uint16_t> px = {100, 200, Raster::kNoData, 300};
  auto raster = MakeRaster(px, 2, 2, Box(0, 0, 2, 2), &store_, &clock_);
  ASSERT_TRUE(raster.ok());
  LocalTileSource src(&store_, &clock_);
  auto avg = RasterAverage(*raster, &src, &clock_);
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ(*avg, 200.0);
}

TEST_F(RasterTest, PixelAverageAcrossRasters) {
  std::vector<Raster> rasters;
  std::vector<TileSource*> sources;
  LocalTileSource src(&store_, &clock_);
  for (int i = 1; i <= 4; ++i) {
    std::vector<uint16_t> px(32 * 32, static_cast<uint16_t>(i * 100));
    auto r = MakeRaster(px, 32, 32, Box(0, 0, 32, 32), &store_, &clock_);
    ASSERT_TRUE(r.ok());
    rasters.push_back(*r);
    sources.push_back(&src);
  }
  Raster::PixelRegion whole{0, 32, 0, 32};
  auto avg = PixelAverage(rasters, sources, whole, &store_, &clock_);
  ASSERT_TRUE(avg.ok());
  auto bytes = ReadFull(avg->handle, &src);
  ASSERT_TRUE(bytes.ok());
  const uint16_t* px = reinterpret_cast<const uint16_t*>(bytes->data());
  for (size_t i = 0; i < 32 * 32; ++i) EXPECT_EQ(px[i], 250);
}

TEST_F(RasterTest, SerializationRoundTrip) {
  Raster r = MakeGradientRaster(64, 48, Box(-10, -5, 10, 5));
  ByteBuffer buf;
  ByteWriter w(&buf);
  r.Serialize(&w);
  ByteReader reader(buf);
  Raster rt = Raster::Deserialize(&reader);
  EXPECT_EQ(rt.height(), 64u);
  EXPECT_EQ(rt.width(), 48u);
  EXPECT_EQ(rt.geo, r.geo);
  LocalTileSource src(&store_, &clock_);
  auto a = ReadFull(r.handle, &src);
  auto b = ReadFull(rt.handle, &src);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

}  // namespace
}  // namespace paradise::array
