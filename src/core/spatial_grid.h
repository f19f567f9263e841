#ifndef PARADISE_CORE_SPATIAL_GRID_H_
#define PARADISE_CORE_SPATIAL_GRID_H_

#include <algorithm>
#include <cstdint>
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
/// Ownership is recorded: one tile -> node entry per tile, filled from the
/// base hash when the grid is built and overwritten by a migration cutover
/// (ReassignTile) or a node loss (RehashOntoLive). Every reader looks the
/// owner up; none derives it. The grid carries no version:
/// TopologyManager::epoch() versions every assignment, and readers pin the
/// epoch they started under there.
class SpatialGrid {
 public:
  /// The paper breaks the universe into 10,000 tiles (100 x 100).
  static constexpr uint32_t kDefaultTilesPerAxis = 100;

  SpatialGrid() = default;
  SpatialGrid(const geom::Box& universe, uint32_t tiles_per_axis,
              uint32_t num_nodes)
      : universe_(universe),
        tiles_(universe, tiles_per_axis),
        num_nodes_(num_nodes) {
    PARADISE_CHECK(tiles_per_axis > 0 && num_nodes > 0);
    PARADISE_CHECK(!universe.IsEmpty());
    owner_.resize(num_tiles());
    for (uint32_t t = 0; t < num_tiles(); ++t) owner_[t] = BaseNodeOfTile(t);
  }

  const geom::Box& universe() const { return universe_; }
  uint32_t tiles_per_axis() const { return tiles_.tiles_per_axis(); }
  uint32_t num_tiles() const { return tiles_per_axis() * tiles_per_axis(); }

  /// Tile numbering is row-major starting at the upper-left corner
  /// (max y, min x), as Query 12's description specifies.
  uint32_t TileOfPoint(const geom::Point& p) const {
    return tiles_.TileOfPoint(p);
  }

  /// The node that owns a tile.
  uint32_t NodeOfTile(uint32_t tile) const { return owner_[tile]; }

  /// The hash owner a tile gets when the grid is built: the owner before
  /// any migration or node loss.
  uint32_t BaseNodeOfTile(uint32_t tile) const {
    // Fibonacci hashing spreads consecutive tiles across nodes.
    uint64_t h = tile * 0x9e3779b97f4a7c15ULL;
    return static_cast<uint32_t>((h >> 32) % num_nodes_);
  }

  /// Records a migration cutover: `tile` now belongs to `node`.
  void ReassignTile(uint32_t tile, uint32_t node) {
    PARADISE_CHECK(tile < num_tiles());
    owner_[tile] = node;
  }

  /// Moves every tile whose owner is not in `live` (ascending node ids)
  /// onto a live node: the survivor redistribution after a permanent loss.
  /// The tile's second hash picks the survivor, so a lost node's tiles
  /// spread over all of them deterministically.
  void RehashOntoLive(const std::vector<int>& live) {
    PARADISE_CHECK_MSG(!live.empty(), "all grid nodes dead");
    for (uint32_t t = 0; t < num_tiles(); ++t) {
      if (std::binary_search(live.begin(), live.end(),
                             static_cast<int>(owner_[t]))) {
        continue;
      }
      uint64_t h = (t + 0x51ed270b) * 0xbf58476d1ce4e5b9ULL;
      owner_[t] = static_cast<uint32_t>(live[(h >> 32) % live.size()]);
    }
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

  /// Distinct destination nodes for a feature with MBR `b`, in the order
  /// its tiles first name them (row-major).
  std::vector<uint32_t> NodesOfBox(const geom::Box& b) const {
    CellRange rg = RangeOfBox(b);
    std::vector<uint32_t> nodes;
    for (uint32_t cy = rg.cy0; cy <= rg.cy1; ++cy) {
      for (uint32_t cx = rg.cx0; cx <= rg.cx1; ++cx) {
        uint32_t n = owner_[cy * tiles_per_axis() + cx];
        if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
          nodes.push_back(n);
        }
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
  geom::Box universe_;
  geom::TileGrid tiles_;
  uint32_t num_nodes_ = 1;
  std::vector<uint32_t> owner_;  // tile -> owning node
};

}  // namespace paradise::core

#endif  // PARADISE_CORE_SPATIAL_GRID_H_
