#ifndef PARADISE_CORE_PULL_H_
#define PARADISE_CORE_PULL_H_

#include "array/chunked_array.h"
#include "array/raster.h"
#include "core/cluster.h"

namespace paradise::core {

/// The pull model for large attributes (Section 2.5.2): when an operator
/// on `consumer_node` invokes a method on an array stored elsewhere, a
/// pull operator is started on the owner node that reads (and
/// decompresses) only the needed tiles and ships them over.
///
/// Costs charged per pulled tile:
///   - owner node: operator start-up CPU, the tile's disk I/O (random
///     seeks — pulls do not enjoy sequential layout), decompression CPU;
///   - both link endpoints: the tile bytes plus message latency.
class PullTileSource : public array::TileSource {
 public:
  PullTileSource(Cluster* cluster, uint32_t consumer_node)
      : cluster_(cluster), consumer_node_(consumer_node) {}

  StatusOr<ByteBuffer> ReadTile(const array::ArrayHandle& handle,
                                uint32_t tile_index) override;

  /// Number of tiles pulled through this source (for tests/ablation).
  int64_t tiles_pulled() const { return tiles_pulled_; }
  int64_t bytes_pulled() const { return bytes_pulled_; }

 private:
  Cluster* const cluster_;
  const uint32_t consumer_node_;
  int64_t tiles_pulled_ = 0;
  int64_t bytes_pulled_ = 0;
};

/// Deep-copies a raster's tiles onto `dest_node` (copy-on-insert and row
/// migration): every tile is pulled from its owner, then stored compressed
/// in the destination's LOB store. Charges the owner's read, both links
/// and the destination's write.
StatusOr<array::Raster> CopyRasterToNode(Cluster* cluster, int dest_node,
                                         const array::Raster& raster);

/// CPU cost of starting a pull operator on the remote node; pulls are
/// "expensive because each pull requires that a separate operator be
/// started on the remote node".
inline constexpr double kPullOperatorStartupOps = 40000;

}  // namespace paradise::core

#endif  // PARADISE_CORE_PULL_H_
