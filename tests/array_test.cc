#include <gtest/gtest.h>

#include <cstring>

#include "array/chunked_array.h"
#include "common/rng.h"
#include "storage/buffer_pool.h"

namespace paradise::array {
namespace {

class ArrayTest : public ::testing::Test {
 protected:
  ArrayTest() : vol_(0, &clock_), pool_(2048), store_(&pool_, &vol_) {
    pool_.AttachVolume(&vol_);
  }
  sim::NodeClock clock_;
  storage::DiskVolume vol_;
  storage::BufferPool pool_;
  storage::LargeObjectStore store_;
};

std::vector<uint8_t> MakeData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextUint(17) * 3);
  return data;
}

TEST(TileDimsTest, ProportionalChunking) {
  // A 1024x512 2-byte array with 32 KB tiles: tiles keep the 2:1 aspect.
  std::vector<uint32_t> dims = ChooseTileDims({1024, 512}, 2, 32 * 1024);
  ASSERT_EQ(dims.size(), 2u);
  EXPECT_NEAR(static_cast<double>(dims[0]) / dims[1], 2.0, 0.3);
  EXPECT_NEAR(dims[0] * dims[1] * 2.0, 32 * 1024.0, 32 * 1024.0 * 0.3);
  // Tiny array: one tile covering everything.
  EXPECT_EQ(ChooseTileDims({4, 4}, 2, 32 * 1024), (std::vector<uint32_t>{4, 4}));
}

TEST_F(ArrayTest, SmallArrayInlines) {
  std::vector<uint8_t> data = MakeData(1000, 1);
  auto h = StoreArray(data.data(), {10, 100}, 1, &store_, &clock_);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->inlined());
  EXPECT_EQ(h->inline_data, data);
  LocalTileSource src(&store_, &clock_);
  auto full = ReadFull(*h, &src);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, data);
}

TEST_F(ArrayTest, InlineThresholdBoundary) {
  size_t threshold = InlineThresholdBytes();
  std::vector<uint8_t> small = MakeData(threshold, 2);
  auto h1 = StoreArray(small.data(), {1, static_cast<uint32_t>(threshold)}, 1,
                       &store_, &clock_);
  ASSERT_TRUE(h1.ok());
  EXPECT_TRUE(h1->inlined());
  std::vector<uint8_t> big = MakeData(threshold + 1, 3);
  auto h2 = StoreArray(big.data(), {1, static_cast<uint32_t>(threshold + 1)},
                       1, &store_, &clock_);
  ASSERT_TRUE(h2.ok());
  EXPECT_FALSE(h2->inlined());
}

TEST_F(ArrayTest, LargeArrayRoundTrip2D) {
  std::vector<uint8_t> data = MakeData(512 * 256 * 2, 4);
  auto h = StoreArray(data.data(), {512, 256}, 2, &store_, &clock_,
                      /*compress=*/true, /*tile_bytes=*/16 * 1024);
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(h->inlined());
  EXPECT_GT(h->num_tiles(), 4u);
  LocalTileSource src(&store_, &clock_);
  auto full = ReadFull(*h, &src);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, data);
}

TEST_F(ArrayTest, RegionReadMatchesDirectSlice) {
  const uint32_t H = 200, W = 300;
  std::vector<uint8_t> data(H * W * 2);
  for (uint32_t r = 0; r < H; ++r) {
    for (uint32_t c = 0; c < W; ++c) {
      uint16_t v = static_cast<uint16_t>(r * 1000 + c);
      std::memcpy(&data[(r * W + c) * 2], &v, 2);
    }
  }
  auto h = StoreArray(data.data(), {H, W}, 2, &store_, &clock_, true, 8192);
  ASSERT_TRUE(h.ok());
  LocalTileSource src(&store_, &clock_);
  // Several random regions.
  Rng rng(5);
  for (int iter = 0; iter < 20; ++iter) {
    uint32_t r0 = static_cast<uint32_t>(rng.NextUint(H - 1));
    uint32_t r1 = r0 + 1 + static_cast<uint32_t>(rng.NextUint(H - r0 - 1)) ;
    uint32_t c0 = static_cast<uint32_t>(rng.NextUint(W - 1));
    uint32_t c1 = c0 + 1 + static_cast<uint32_t>(rng.NextUint(W - c0 - 1));
    auto region = ReadRegion(*h, &src, {r0, c0}, {r1, c1});
    ASSERT_TRUE(region.ok());
    ASSERT_EQ(region->size(), static_cast<size_t>(r1 - r0) * (c1 - c0) * 2);
    for (uint32_t r = r0; r < r1; ++r) {
      for (uint32_t c = c0; c < c1; ++c) {
        uint16_t got;
        std::memcpy(&got,
                    region->data() + (((r - r0) * (c1 - c0)) + (c - c0)) * 2,
                    2);
        EXPECT_EQ(got, static_cast<uint16_t>(r * 1000 + c));
      }
    }
  }
}

TEST_F(ArrayTest, RegionReadTouchesOnlyOverlappingTiles) {
  std::vector<uint8_t> data = MakeData(400 * 400 * 2, 6);
  auto h = StoreArray(data.data(), {400, 400}, 2, &store_, &clock_,
                      /*compress=*/false, 16 * 1024);
  ASSERT_TRUE(h.ok());
  // A region inside one tile.
  std::vector<uint32_t> tiles = TilesForRegion(*h, {0, 0}, {10, 10});
  EXPECT_EQ(tiles.size(), 1u);
  // The whole array touches all tiles.
  tiles = TilesForRegion(*h, {0, 0}, {400, 400});
  EXPECT_EQ(tiles.size(), h->num_tiles());
}

TEST_F(ArrayTest, CompressionFlagPerTile) {
  // Half the data compressible, half random: tiles should differ.
  const uint32_t H = 256, W = 256;
  std::vector<uint8_t> data(H * W * 2, 0);
  Rng rng(9);
  for (size_t i = data.size() / 2; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(rng.Next());
  }
  auto h = StoreArray(data.data(), {H, W}, 2, &store_, &clock_, true, 8192);
  ASSERT_TRUE(h.ok());
  bool some_compressed = false, some_raw = false;
  for (const TileRef& t : h->tiles) {
    if (t.compressed) {
      some_compressed = true;
      EXPECT_LT(t.lob.length, t.raw_bytes);
    } else {
      some_raw = true;
    }
  }
  EXPECT_TRUE(some_compressed);
  EXPECT_TRUE(some_raw);
  LocalTileSource src(&store_, &clock_);
  auto full = ReadFull(*h, &src);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, data);
}

TEST_F(ArrayTest, CompressedTileOfUnexpectedSizeIsCorruption) {
  // A compressed tile whose recorded raw size is one byte short of, or one
  // byte past, what its stream decodes to must fail the read. Under ASan
  // the short case also shows the decode stays inside the tile buffer.
  std::vector<uint8_t> data(256 * 256 * 2);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((i / 64) % 5);
  }
  auto h =
      StoreArray(data.data(), {256, 256}, 2, &store_, &clock_, true, 8192);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->tiles[0].compressed);
  LocalTileSource src(&store_, &clock_);
  auto good = src.ReadTile(*h, 0);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_EQ(good->size(), h->tiles[0].raw_bytes);
  for (int delta : {-1, +1}) {
    ArrayHandle bad = *h;
    bad.tiles[0].raw_bytes = static_cast<uint32_t>(
        static_cast<int64_t>(bad.tiles[0].raw_bytes) + delta);
    auto tile = src.ReadTile(bad, 0);
    ASSERT_FALSE(tile.ok()) << "raw_bytes off by " << delta;
    EXPECT_EQ(tile.status().code(), StatusCode::kCorruption)
        << tile.status().ToString();
  }
}

TEST_F(ArrayTest, ThreeDimensionalArray) {
  const uint32_t D = 12, H = 40, W = 50;
  std::vector<uint8_t> data = MakeData(D * H * W * 2, 7);
  auto h = StoreArray(data.data(), {D, H, W}, 2, &store_, &clock_, true, 8192);
  ASSERT_TRUE(h.ok());
  LocalTileSource src(&store_, &clock_);
  auto full = ReadFull(*h, &src);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, data);
  // A sub-cube.
  auto region = ReadRegion(*h, &src, {2, 5, 10}, {7, 25, 40});
  ASSERT_TRUE(region.ok());
  ASSERT_EQ(region->size(), 5u * 20u * 30u * 2u);
  for (uint32_t d = 2; d < 7; ++d) {
    for (uint32_t r = 5; r < 25; ++r) {
      for (uint32_t c = 10; c < 40; ++c) {
        size_t src_off = ((static_cast<size_t>(d) * H + r) * W + c) * 2;
        size_t dst_off =
            (((static_cast<size_t>(d) - 2) * 20 + (r - 5)) * 30 + (c - 10)) * 2;
        ASSERT_EQ(std::memcmp(region->data() + dst_off, data.data() + src_off,
                              2),
                  0);
      }
    }
  }
}

TEST_F(ArrayTest, HandleSerializationRoundTrip) {
  std::vector<uint8_t> data = MakeData(300 * 300 * 2, 8);
  auto h = StoreArray(data.data(), {300, 300}, 2, &store_, &clock_, true,
                      8192, /*owner_node=*/3);
  ASSERT_TRUE(h.ok());
  ByteBuffer buf;
  ByteWriter w(&buf);
  h->Serialize(&w);
  ByteReader r(buf);
  ArrayHandle rt = ArrayHandle::Deserialize(&r);
  EXPECT_EQ(rt.dims, h->dims);
  EXPECT_EQ(rt.tile_dims, h->tile_dims);
  EXPECT_EQ(rt.owner_node, 3u);
  ASSERT_EQ(rt.tiles.size(), h->tiles.size());
  for (size_t i = 0; i < rt.tiles.size(); ++i) {
    EXPECT_EQ(rt.tiles[i].lob, h->tiles[i].lob);
    EXPECT_EQ(rt.tiles[i].compressed, h->tiles[i].compressed);
  }
  // Deserialized handle reads the same bytes.
  LocalTileSource src(&store_, &clock_);
  auto full = ReadFull(rt, &src);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, data);
}

TEST_F(ArrayTest, PlacementCallbackControlsTileOwner) {
  std::vector<uint8_t> data = MakeData(256 * 256 * 2, 11);
  auto h = StoreArrayWithPlacement(
      data.data(), {256, 256}, 2,
      [&](uint32_t tile_index, const std::vector<uint32_t>&) {
        return TilePlacement{&store_, &clock_,
                             static_cast<int32_t>(tile_index % 4)};
      },
      true, 8192, /*owner_node=*/0);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->declustered());
  for (uint32_t t = 0; t < h->num_tiles(); ++t) {
    EXPECT_EQ(h->TileOwner(t), t % 4);
  }
}

}  // namespace
}  // namespace paradise::array
