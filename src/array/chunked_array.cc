#include "array/chunked_array.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "codec/lzw.h"
#include "common/logging.h"
#include "sim/cost_model.h"

namespace paradise::array {

void ArrayHandle::Serialize(ByteWriter* w) const {
  w->PutU32(static_cast<uint32_t>(dims.size()));
  for (uint32_t d : dims) w->PutU32(d);
  w->PutU32(elem_size);
  for (uint32_t d : tile_dims) w->PutU32(d);
  w->PutU32(owner_node);
  w->PutBytes(inline_data.data(), inline_data.size());
  w->PutU32(static_cast<uint32_t>(tiles.size()));
  for (const TileRef& t : tiles) {
    w->PutU32(t.lob.volume);
    w->PutU32(t.lob.first_page);
    w->PutU32(t.lob.num_pages);
    w->PutU32(t.lob.length);
    w->PutU8(t.compressed ? 1 : 0);
    w->PutU32(t.raw_bytes);
    w->PutI32(t.owner_node);
  }
}

ArrayHandle ArrayHandle::Deserialize(ByteReader* r) {
  ArrayHandle h;
  uint32_t ndims = r->GetU32();
  if (!r->Fits(ndims, 8)) return h;  // dims and tile_dims
  h.dims.resize(ndims);
  for (uint32_t& d : h.dims) d = r->GetU32();
  h.elem_size = r->GetU32();
  h.tile_dims.resize(ndims);
  for (uint32_t& d : h.tile_dims) d = r->GetU32();
  h.owner_node = r->GetU32();
  h.inline_data = r->GetBlob();
  uint32_t ntiles = r->GetU32();
  if (!r->Fits(ntiles, 25)) return h;
  h.tiles.resize(ntiles);
  for (TileRef& t : h.tiles) {
    t.lob.volume = r->GetU32();
    t.lob.first_page = r->GetU32();
    t.lob.num_pages = r->GetU32();
    t.lob.length = r->GetU32();
    t.compressed = r->GetU8() != 0;
    t.raw_bytes = r->GetU32();
    t.owner_node = r->GetI32();
  }
  return h;
}

std::vector<uint32_t> ChooseTileDims(const std::vector<uint32_t>& dims,
                                     uint32_t elem_size, size_t tile_bytes) {
  // Proportional chunking: tile_dims[i] = dims[i] * f with
  // prod(tile_dims) * elem_size ~= tile_bytes.
  double total = 1.0;
  for (uint32_t d : dims) total *= static_cast<double>(d);
  double target_elems = static_cast<double>(tile_bytes) / elem_size;
  double f = std::pow(target_elems / total, 1.0 / dims.size());
  f = std::min(f, 1.0);
  std::vector<uint32_t> tile_dims(dims.size());
  for (size_t i = 0; i < dims.size(); ++i) {
    tile_dims[i] = std::max<uint32_t>(
        1, static_cast<uint32_t>(std::lround(dims[i] * f)));
    tile_dims[i] = std::min(tile_dims[i], dims[i]);
  }
  return tile_dims;
}

namespace {

/// Copies the overlap of tile `tile_coord` with region [lo, hi) between a
/// tile-local buffer and a region-local buffer. Handles any number of
/// dimensions by iterating row-major over all but the innermost dimension.
/// `to_region` selects direction: tile buffer -> region buffer.
void CopyTileRegion(const ArrayHandle& h,
                    const std::vector<uint32_t>& tile_coord,
                    const std::vector<uint32_t>& lo,
                    const std::vector<uint32_t>& hi, uint8_t* tile_buf,
                    uint8_t* region_buf, bool to_region) {
  size_t ndims = h.dims.size();
  // Tile extent (edge tiles may be smaller).
  std::vector<uint32_t> tile_lo(ndims), tile_hi(ndims), tile_ext(ndims);
  for (size_t i = 0; i < ndims; ++i) {
    tile_lo[i] = tile_coord[i] * h.tile_dims[i];
    tile_hi[i] = std::min(h.dims[i], tile_lo[i] + h.tile_dims[i]);
    tile_ext[i] = tile_hi[i] - tile_lo[i];
  }
  // Overlap of tile with region, in global coordinates.
  std::vector<uint32_t> olo(ndims), ohi(ndims);
  for (size_t i = 0; i < ndims; ++i) {
    olo[i] = std::max(lo[i], tile_lo[i]);
    ohi[i] = std::min(hi[i], tile_hi[i]);
    if (olo[i] >= ohi[i]) return;  // empty overlap
  }
  std::vector<uint32_t> region_ext(ndims);
  for (size_t i = 0; i < ndims; ++i) region_ext[i] = hi[i] - lo[i];

  // Iterate over all coordinates of the overlap except the last dimension,
  // copying contiguous runs along the last dimension.
  size_t run_elems = ohi[ndims - 1] - olo[ndims - 1];
  size_t run_bytes = run_elems * h.elem_size;
  std::vector<uint32_t> cur(olo.begin(), olo.end());
  while (true) {
    // Compute flat offsets for `cur` in tile and region buffers.
    size_t tile_off = 0, region_off = 0;
    for (size_t i = 0; i < ndims; ++i) {
      tile_off = tile_off * tile_ext[i] + (cur[i] - tile_lo[i]);
      region_off = region_off * region_ext[i] + (cur[i] - lo[i]);
    }
    tile_off *= h.elem_size;
    region_off *= h.elem_size;
    if (to_region) {
      std::memcpy(region_buf + region_off, tile_buf + tile_off, run_bytes);
    } else {
      std::memcpy(tile_buf + tile_off, region_buf + region_off, run_bytes);
    }
    // Advance `cur` over dimensions [0, ndims-1), odometer style.
    if (ndims == 1) break;
    size_t d = ndims - 2;
    while (true) {
      if (++cur[d] < ohi[d]) break;
      cur[d] = olo[d];
      if (d == 0) return;
      --d;
    }
  }
}

std::vector<uint32_t> TileCoordFromIndex(const ArrayHandle& h,
                                         uint32_t tile_index) {
  size_t ndims = h.dims.size();
  std::vector<uint32_t> coord(ndims);
  for (size_t i = ndims; i-- > 0;) {
    uint32_t n = h.tiles_in_dim(i);
    coord[i] = tile_index % n;
    tile_index /= n;
  }
  return coord;
}

}  // namespace

StatusOr<ByteBuffer> LocalTileSource::ReadTile(const ArrayHandle& handle,
                                               uint32_t tile_index) {
  const TileRef& ref = handle.tiles[tile_index];
  PARADISE_ASSIGN_OR_RETURN(ByteBuffer stored, store_->Read(ref.lob));
  if (!ref.compressed) return stored;
  PARADISE_ASSIGN_OR_RETURN(
      ByteBuffer raw,
      codec::LzwDecompressExact(stored.data(), stored.size(), ref.raw_bytes));
  if (clock_ != nullptr) {
    clock_->ChargeCpu(sim::cpu_cost::kPerByteDecompressed *
                      static_cast<double>(raw.size()));
  }
  return raw;
}

void LocalTileSource::PrefetchTiles(const ArrayHandle& handle,
                                    const std::vector<uint32_t>& tile_indices) {
  // Readahead at most half the pool: prefetching a region larger than the
  // pool would evict its own tiles before they are read.
  size_t budget_pages = store_->pool_capacity() / 2;
  size_t used = 0;
  for (uint32_t t : tile_indices) {
    const storage::LobId& lob = handle.tiles[t].lob;
    if (used + lob.num_pages > budget_pages) break;
    store_->Prefetch(lob);
    used += lob.num_pages;
  }
}

StatusOr<ArrayHandle> StoreArrayWithPlacement(
    const uint8_t* data, std::vector<uint32_t> dims, uint32_t elem_size,
    const std::function<TilePlacement(uint32_t,
                                      const std::vector<uint32_t>&)>&
        placement,
    bool compress, size_t tile_bytes, uint32_t owner_node) {
  PARADISE_CHECK(!dims.empty() && elem_size > 0);
  ArrayHandle h;
  h.dims = std::move(dims);
  h.elem_size = elem_size;
  h.owner_node = owner_node;
  h.tile_dims = ChooseTileDims(h.dims, elem_size, tile_bytes);

  if (h.total_bytes() <= InlineThresholdBytes()) {
    h.inline_data.assign(data, data + h.total_bytes());
    return h;
  }

  uint32_t ntiles = h.num_tiles();
  h.tiles.reserve(ntiles);
  size_t ndims = h.dims.size();
  for (uint32_t t = 0; t < ntiles; ++t) {
    std::vector<uint32_t> coord = TileCoordFromIndex(h, t);
    // Materialize the tile into a dense buffer.
    std::vector<uint32_t> tlo(ndims), thi(ndims);
    uint64_t tile_elems = 1;
    for (size_t i = 0; i < ndims; ++i) {
      tlo[i] = coord[i] * h.tile_dims[i];
      thi[i] = std::min(h.dims[i], tlo[i] + h.tile_dims[i]);
      tile_elems *= thi[i] - tlo[i];
    }
    ByteBuffer tile(tile_elems * elem_size);
    // The "region" is the whole array [0, dims); copy the tile's overlap
    // with it (i.e. the whole tile) out of the dense source buffer.
    std::vector<uint32_t> zero(ndims, 0);
    CopyTileRegion(h, coord, zero, h.dims, tile.data(),
                   const_cast<uint8_t*>(data), /*to_region=*/false);

    TilePlacement place = placement(t, tlo);
    PARADISE_CHECK_MSG(place.store != nullptr, "large array requires a store");
    TileRef ref;
    ref.raw_bytes = static_cast<uint32_t>(tile.size());
    ref.owner_node = place.owner_node;
    if (compress) {
      std::vector<uint8_t> packed = codec::LzwCompress(tile);
      if (place.clock != nullptr) {
        place.clock->ChargeCpu(sim::cpu_cost::kPerByteCompressed *
                               static_cast<double>(tile.size()));
      }
      // Keep the compressed form only if it meaningfully shrinks the tile
      // (the per-tile flag of Section 2.5.1).
      if (packed.size() < tile.size() * 9 / 10) {
        ref.compressed = true;
        PARADISE_ASSIGN_OR_RETURN(ref.lob, place.store->Write(packed));
      }
    }
    if (!ref.compressed) {
      PARADISE_ASSIGN_OR_RETURN(ref.lob, place.store->Write(tile));
    }
    h.tiles.push_back(ref);
  }
  return h;
}

StatusOr<ArrayHandle> StoreArray(const uint8_t* data,
                                 std::vector<uint32_t> dims,
                                 uint32_t elem_size,
                                 storage::LargeObjectStore* store,
                                 sim::NodeClock* clock, bool compress,
                                 size_t tile_bytes, uint32_t owner_node) {
  return StoreArrayWithPlacement(
      data, std::move(dims), elem_size,
      [&](uint32_t, const std::vector<uint32_t>&) {
        return TilePlacement{store, clock, -1};
      },
      compress, tile_bytes, owner_node);
}

std::vector<uint32_t> TilesForRegion(const ArrayHandle& handle,
                                     const std::vector<uint32_t>& lo,
                                     const std::vector<uint32_t>& hi) {
  size_t ndims = handle.dims.size();
  std::vector<uint32_t> tlo(ndims), thi(ndims);
  for (size_t i = 0; i < ndims; ++i) {
    PARADISE_CHECK(lo[i] < hi[i] && hi[i] <= handle.dims[i]);
    tlo[i] = lo[i] / handle.tile_dims[i];
    thi[i] = (hi[i] - 1) / handle.tile_dims[i];
  }
  std::vector<uint32_t> out;
  std::vector<uint32_t> cur = tlo;
  while (true) {
    uint32_t index = 0;
    for (size_t i = 0; i < ndims; ++i) {
      index = index * handle.tiles_in_dim(i) + cur[i];
    }
    out.push_back(index);
    size_t d = ndims - 1;
    while (true) {
      if (++cur[d] <= thi[d]) break;
      cur[d] = tlo[d];
      if (d == 0) return out;
      --d;
    }
  }
}

StatusOr<ByteBuffer> ReadRegion(const ArrayHandle& handle, TileSource* source,
                                const std::vector<uint32_t>& lo,
                                const std::vector<uint32_t>& hi) {
  size_t ndims = handle.dims.size();
  uint64_t region_elems = 1;
  for (size_t i = 0; i < ndims; ++i) {
    PARADISE_CHECK(lo[i] < hi[i] && hi[i] <= handle.dims[i]);
    region_elems *= hi[i] - lo[i];
  }
  ByteBuffer out(region_elems * handle.elem_size);

  if (handle.inlined()) {
    // One "tile" covering the whole array.
    ArrayHandle whole = handle;
    whole.tile_dims = whole.dims;
    std::vector<uint32_t> zero(ndims, 0);
    CopyTileRegion(whole, zero, lo, hi,
                   const_cast<uint8_t*>(handle.inline_data.data()), out.data(),
                   /*to_region=*/true);
    return out;
  }

  std::vector<uint32_t> tiles = TilesForRegion(handle, lo, hi);
  source->PrefetchTiles(handle, tiles);
  for (uint32_t t : tiles) {
    PARADISE_ASSIGN_OR_RETURN(ByteBuffer tile, source->ReadTile(handle, t));
    std::vector<uint32_t> coord = TileCoordFromIndex(handle, t);
    CopyTileRegion(handle, coord, lo, hi, tile.data(), out.data(),
                   /*to_region=*/true);
  }
  return out;
}

StatusOr<ByteBuffer> ReadFull(const ArrayHandle& handle, TileSource* source) {
  if (handle.inlined()) return handle.inline_data;
  std::vector<uint32_t> lo(handle.dims.size(), 0);
  return ReadRegion(handle, source, lo, handle.dims);
}

}  // namespace paradise::array
