#ifndef PARADISE_CORE_SPATIAL_GRID_H_
#define PARADISE_CORE_SPATIAL_GRID_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "geom/box.h"
#include "geom/tile_grid.h"

namespace paradise::core {

/// The spatial declustering scheme of Sections 2.7.1 and Query 12: the
/// universe is cut into tiles_per_axis^2 tiles, numbered row-major from
/// the upper-left corner; each tile is mapped to a node by hashing its
/// number. Tuples go to every node owning a tile their MBR overlaps
/// (replication); exactly one copy — the one at the tile holding the
/// feature's reference point — is the *primary* copy.
///
/// Ownership resolution is layered: a planned reassignment (tile
/// migration, scale-out onto an added node) overrides the base hash,
/// and the dead-node rehash then applies to whatever that resolves to.
/// The grid carries no version: TopologyManager::epoch() versions every
/// assignment, and readers pin the epoch they started under there.
class SpatialGrid {
 public:
  /// The paper breaks the universe into 10,000 tiles (100 x 100).
  static constexpr uint32_t kDefaultTilesPerAxis = 100;

  SpatialGrid() = default;
  SpatialGrid(const geom::Box& universe, uint32_t tiles_per_axis,
              uint32_t num_nodes)
      : universe_(universe),
        tiles_(universe, tiles_per_axis),
        num_nodes_(num_nodes),
        max_node_(num_nodes - 1) {
    PARADISE_CHECK(tiles_per_axis > 0 && num_nodes > 0);
    PARADISE_CHECK(!universe.IsEmpty());
  }

  const geom::Box& universe() const { return universe_; }
  uint32_t tiles_per_axis() const { return tiles_.tiles_per_axis(); }
  uint32_t num_tiles() const { return tiles_per_axis() * tiles_per_axis(); }
  uint32_t num_nodes() const { return num_nodes_; }

  /// Tile numbering is row-major starting at the upper-left corner
  /// (max y, min x), as Query 12's description specifies.
  uint32_t TileOfPoint(const geom::Point& p) const {
    return tiles_.TileOfPoint(p);
  }

  /// Node owning a tile: planned reassignment if present, else hash on
  /// the tile number. Tiles whose resolved owner has been marked dead
  /// are rehashed over the survivors, so a dead node's tiles spread
  /// across all remaining nodes deterministically (the survivor
  /// redistribution scheme used after a permanent loss).
  uint32_t NodeOfTile(uint32_t tile) const {
    uint32_t n;
    if (!reassigned_.empty()) {
      auto it = reassigned_.find(tile);
      n = it != reassigned_.end() ? it->second : BaseNodeOfTile(tile);
    } else {
      n = BaseNodeOfTile(tile);
    }
    if (alive_nodes_.empty() || n >= dead_.size() || !dead_[n]) return n;
    // Use independent hash bits for the secondary placement so the
    // reassigned tiles do not all land on one survivor.
    uint64_t h = (tile + 0x51ed270b) * 0xbf58476d1ce4e5b9ULL;
    return alive_nodes_[(h >> 32) % alive_nodes_.size()];
  }

  /// The unmodified hash owner of a tile (ignores planned reassignment
  /// and dead-node remapping).
  uint32_t BaseNodeOfTile(uint32_t tile) const {
    // Fibonacci hashing spreads consecutive tiles across nodes.
    uint64_t h = tile * 0x9e3779b97f4a7c15ULL;
    return static_cast<uint32_t>((h >> 32) % num_nodes_);
  }

  /// Extends the routable node domain to include `node` (scale-out).
  /// The base hash still spreads over the original num_nodes(); added
  /// nodes only receive tiles through explicit reassignment.
  void IncludeNode(uint32_t node) {
    if (node > max_node_) max_node_ = node;
    if (!dead_.empty() && dead_.size() <= max_node_) {
      dead_.resize(max_node_ + 1, 0);
      RebuildAliveNodes();
    }
  }

  /// Plans/commits tile ownership: `tile` now belongs to `node`
  /// regardless of the base hash (the dead-node rehash still applies
  /// should `node` later die).
  void ReassignTile(uint32_t tile, uint32_t node) {
    PARADISE_CHECK(tile < num_tiles());
    IncludeNode(node);
    if (node == BaseNodeOfTile(tile)) {
      reassigned_.erase(tile);
    } else {
      reassigned_[tile] = node;
    }
  }

  /// Tiles currently reassigned away from their base owner.
  const std::unordered_map<uint32_t, uint32_t>& reassigned_tiles() const {
    return reassigned_;
  }

  /// Marks a node dead: every tile it owned is remapped over survivors.
  void MarkNodeDead(uint32_t node) {
    IncludeNode(node);
    if (dead_.empty()) dead_.assign(max_node_ + 1, 0);
    PARADISE_CHECK(node <= max_node_);
    dead_[node] = 1;
    RebuildAliveNodes();
    PARADISE_CHECK_MSG(!alive_nodes_.empty(), "all grid nodes dead");
  }

  /// Reinstates a previously dead/removed node (rolling-restart rejoin).
  void MarkNodeAlive(uint32_t node) {
    if (dead_.empty() || node >= dead_.size() || !dead_[node]) return;
    dead_[node] = 0;
    RebuildAliveNodes();
  }

  bool node_dead(uint32_t node) const {
    return !dead_.empty() && node < dead_.size() && dead_[node] != 0;
  }

  uint32_t NodeOfPoint(const geom::Point& p) const {
    return NodeOfTile(TileOfPoint(p));
  }

  /// Geographic extent of a tile.
  geom::Box TileBox(uint32_t tile) const {
    uint32_t cx = tile % tiles_per_axis();
    uint32_t cy = tile / tiles_per_axis();
    double w = universe_.Width() / tiles_per_axis();
    double h = universe_.Height() / tiles_per_axis();
    double x0 = universe_.xmin + cx * w;
    double y1 = universe_.ymax - cy * h;
    return geom::Box(x0, y1 - h, x0 + w, y1);
  }

  /// Cell-index rectangle of a box (geom::TileGrid: the begin tile, the
  /// one containing the reference point, is (cx0, cy1)).
  using CellRange = geom::TileGrid::CellRange;
  CellRange RangeOfBox(const geom::Box& b) const {
    return tiles_.RangeOfBox(b);
  }

  /// All tiles a box overlaps (the replication set).
  std::vector<uint32_t> TilesOfBox(const geom::Box& b) const {
    CellRange rg = RangeOfBox(b);
    uint32_t cx0 = rg.cx0, cx1 = rg.cx1, cy0 = rg.cy0, cy1 = rg.cy1;
    std::vector<uint32_t> tiles;
    tiles.reserve(static_cast<size_t>(cx1 - cx0 + 1) * (cy1 - cy0 + 1));
    for (uint32_t cy = cy0; cy <= cy1; ++cy) {
      for (uint32_t cx = cx0; cx <= cx1; ++cx) {
        tiles.push_back(cy * tiles_per_axis() + cx);
      }
    }
    return tiles;
  }

  /// Distinct destination nodes for a feature with MBR `b`.
  std::vector<uint32_t> NodesOfBox(const geom::Box& b) const {
    std::vector<uint8_t> seen(max_node_ + 1, 0);
    std::vector<uint32_t> nodes;
    for (uint32_t t : TilesOfBox(b)) {
      uint32_t n = NodeOfTile(t);
      if (!seen[n]) {
        seen[n] = 1;
        nodes.push_back(n);
      }
    }
    return nodes;
  }

  /// The feature's reference point: the lower-left corner of its MBR
  /// (clamped into the universe). The tile containing it holds the
  /// *primary* copy; every query-time duplicate-elimination rule is
  /// phrased against this point.
  geom::Point ReferencePoint(const geom::Box& b) const {
    return ClampToUniverse(geom::Point{b.xmin, b.ymin});
  }

  uint32_t PrimaryTile(const geom::Box& b) const {
    return TileOfPoint(ReferencePoint(b));
  }
  uint32_t PrimaryNode(const geom::Box& b) const {
    return NodeOfTile(PrimaryTile(b));
  }

  geom::Point ClampToUniverse(const geom::Point& p) const {
    geom::Point q = p;
    q.x = std::min(std::max(q.x, universe_.xmin), universe_.xmax);
    q.y = std::min(std::max(q.y, universe_.ymin), universe_.ymax);
    return q;
  }

 private:
  void RebuildAliveNodes() {
    alive_nodes_.clear();
    for (uint32_t n = 0; n <= max_node_; ++n) {
      if (n >= dead_.size() || !dead_[n]) alive_nodes_.push_back(n);
    }
  }

  geom::Box universe_;
  geom::TileGrid tiles_;
  uint32_t num_nodes_ = 1;
  uint32_t max_node_ = 0;
  // Planned tile->owner overrides (migration cutovers); consulted
  // before the base hash.
  std::unordered_map<uint32_t, uint32_t> reassigned_;
  std::vector<uint8_t> dead_;           // empty until a node dies
  std::vector<uint32_t> alive_nodes_;  // ascending; empty until a node dies
};

}  // namespace paradise::core

#endif  // PARADISE_CORE_SPATIAL_GRID_H_
