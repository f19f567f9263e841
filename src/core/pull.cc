#include "core/pull.h"

#include "common/logging.h"

namespace paradise::core {

StatusOr<ByteBuffer> PullTileSource::ReadTile(const array::ArrayHandle& handle,
                                              uint32_t tile_index) {
  uint32_t owner = handle.TileOwner(tile_index);
  Node& owner_node = cluster_->node(static_cast<int>(owner));

  if (owner == consumer_node_) {
    // Local after all: read directly.
    return owner_node.local_tile_source()->ReadTile(handle, tile_index);
  }

  // Start the pull operator on the owner.
  owner_node.clock()->ChargeCpu(kPullOperatorStartupOps);
  // Small request message from consumer to owner.
  cluster_->ChargeTransfer(consumer_node_, owner, 64);

  // The owner reads + decompresses the tile. LocalTileSource charges the
  // owner's disk (random, since pulled tiles break the sequential layout)
  // and decompression CPU through the owner's clock.
  PARADISE_ASSIGN_OR_RETURN(
      ByteBuffer tile,
      owner_node.local_tile_source()->ReadTile(handle, tile_index));

  // Ship the raw tile to the consumer.
  cluster_->ChargeTransfer(owner, consumer_node_,
                           static_cast<int64_t>(tile.size()));
  ++tiles_pulled_;
  bytes_pulled_ += static_cast<int64_t>(tile.size());
  return tile;
}

StatusOr<array::Raster> CopyRasterToNode(Cluster* cluster, int dest_node,
                                         const array::Raster& raster) {
  PullTileSource pull(cluster, static_cast<uint32_t>(dest_node));
  PARADISE_ASSIGN_OR_RETURN(ByteBuffer data,
                            array::ReadFull(raster.handle, &pull));
  Node& dest = cluster->node(dest_node);
  array::Raster copy;
  copy.geo = raster.geo;
  PARADISE_ASSIGN_OR_RETURN(
      copy.handle,
      array::StoreArray(data.data(), raster.handle.dims,
                        raster.handle.elem_size, dest.lob_store(),
                        dest.clock(), /*compress=*/true,
                        array::kDefaultTileBytes,
                        static_cast<uint32_t>(dest_node)));
  return copy;
}

}  // namespace paradise::core
