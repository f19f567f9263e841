#ifndef PARADISE_ARRAY_CHUNKED_ARRAY_H_
#define PARADISE_ARRAY_CHUNKED_ARRAY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "array/array_handle.h"
#include "common/status.h"
#include "sim/node_clock.h"
#include "storage/large_object.h"
#include "storage/page.h"

namespace paradise::array {

/// Arrays whose serialized size is below this fraction of a page are
/// inlined into the tuple (Section 2.5.1: "currently set at 70%").
inline constexpr double kInlineFraction = 0.70;
inline size_t InlineThresholdBytes() {
  return static_cast<size_t>(kInlineFraction * storage::kPageSize);
}

/// Target tile size. The paper used ~128 KB against a 120 GB data set; the
/// bundled synthetic data set is ~64x smaller, so the default keeps the
/// tile:image ratio comparable. Override per-store if needed.
inline constexpr size_t kDefaultTileBytes = 32 * 1024;

/// Abstracts where tile bytes come from: the local LargeObjectStore, or a
/// remote node via the pull protocol (core/pull.h). Implementations return
/// *decompressed* tile contents and charge their own costs.
class TileSource {
 public:
  virtual ~TileSource() = default;
  virtual StatusOr<ByteBuffer> ReadTile(const ArrayHandle& handle,
                                        uint32_t tile_index) = 0;

  /// Advisory readahead for a batch of tiles about to be read. The default
  /// is a no-op (remote pulls ship tiles individually); the local source
  /// pushes each tile's page run into the buffer pool in one batched read.
  virtual void PrefetchTiles(const ArrayHandle& handle,
                             const std::vector<uint32_t>& tile_indices) {
    (void)handle;
    (void)tile_indices;
  }
};

/// Reads tiles from the node-local store, decompressing as needed and
/// charging decompression CPU to `clock` (may be null).
class LocalTileSource : public TileSource {
 public:
  LocalTileSource(storage::LargeObjectStore* store, sim::NodeClock* clock)
      : store_(store), clock_(clock) {}

  StatusOr<ByteBuffer> ReadTile(const ArrayHandle& handle,
                                uint32_t tile_index) override;

  void PrefetchTiles(const ArrayHandle& handle,
                     const std::vector<uint32_t>& tile_indices) override;

 private:
  storage::LargeObjectStore* const store_;
  sim::NodeClock* const clock_;
};

/// Chunks `data` (row-major, `dims` extents, `elem_size`-byte elements)
/// into tiles of roughly `tile_bytes`, compresses each tile with LZW when
/// that shrinks it (per-tile flag), stores tiles in `store`, and returns
/// the handle. Arrays under the inline threshold are inlined instead and
/// `store` is not touched. Compression CPU is charged to `clock`.
StatusOr<ArrayHandle> StoreArray(const uint8_t* data,
                                 std::vector<uint32_t> dims,
                                 uint32_t elem_size,
                                 storage::LargeObjectStore* store,
                                 sim::NodeClock* clock,
                                 bool compress = true,
                                 size_t tile_bytes = kDefaultTileBytes,
                                 uint32_t owner_node = 0);

/// Where one tile should be stored — used to decluster a single array's
/// tiles across nodes (Section 2.6).
struct TilePlacement {
  storage::LargeObjectStore* store = nullptr;
  sim::NodeClock* clock = nullptr;  // charged for compression CPU
  int32_t owner_node = -1;          // -1 inherits the handle owner
};

/// As StoreArray, but asks `placement(tile_index, tile_lo)` where to put
/// each tile (`tile_lo` is the tile's origin in element coordinates).
StatusOr<ArrayHandle> StoreArrayWithPlacement(
    const uint8_t* data, std::vector<uint32_t> dims, uint32_t elem_size,
    const std::function<TilePlacement(uint32_t tile_index,
                                      const std::vector<uint32_t>& tile_lo)>&
        placement,
    bool compress = true, size_t tile_bytes = kDefaultTileBytes,
    uint32_t owner_node = 0);

/// Tile extents proportional to the array extents with a product of about
/// `tile_bytes` ([Suni94]'s proportional chunking).
std::vector<uint32_t> ChooseTileDims(const std::vector<uint32_t>& dims,
                                     uint32_t elem_size, size_t tile_bytes);

/// Row-major tile indices whose extent intersects [lo, hi) per dimension.
std::vector<uint32_t> TilesForRegion(const ArrayHandle& handle,
                                     const std::vector<uint32_t>& lo,
                                     const std::vector<uint32_t>& hi);

/// Reads the subarray [lo, hi) into a dense row-major buffer, fetching
/// only the tiles the region overlaps.
StatusOr<ByteBuffer> ReadRegion(const ArrayHandle& handle, TileSource* source,
                                const std::vector<uint32_t>& lo,
                                const std::vector<uint32_t>& hi);

/// Reads the whole array.
StatusOr<ByteBuffer> ReadFull(const ArrayHandle& handle, TileSource* source);

}  // namespace paradise::array

#endif  // PARADISE_ARRAY_CHUNKED_ARRAY_H_
