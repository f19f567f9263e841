#ifndef PARADISE_GEOM_TILE_GRID_H_
#define PARADISE_GEOM_TILE_GRID_H_

#include <cmath>
#include <cstdint>

#include "geom/box.h"

namespace paradise::geom {

/// The tile arithmetic of the spatial declustering grid: a universe cut
/// into tiles_per_axis^2 tiles, numbered row-major from the upper-left
/// corner, rows growing *downward* (row = cell of ymax - y). This is the
/// one definition: core::SpatialGrid places replicas with it and
/// exec::TwoLayerSpatialJoin sweeps with it, so a parallel two-layer join
/// only ever meets pairs at tiles the decluster pass shipped copies to.
class TileGrid {
 public:
  /// Cell-index rectangle of a box: columns [cx0, cx1], rows [cy0, cy1].
  /// cy0 is the row holding the box's ymax and cy1 the row holding its
  /// ymin, so the *begin* tile (the one containing the reference point
  /// (xmin, ymin)) is (cx0, cy1).
  struct CellRange {
    uint32_t cx0 = 0, cx1 = 0;
    uint32_t cy0 = 0, cy1 = 0;
  };

  TileGrid() = default;
  TileGrid(const Box& universe, uint32_t tiles_per_axis)
      : xmin_(universe.xmin),
        ymax_(universe.ymax),
        width_(universe.Width()),
        height_(universe.Height()),
        tiles_(tiles_per_axis) {}

  uint32_t tiles_per_axis() const { return tiles_; }

  uint32_t ColumnOf(double x) const { return CoordToCell(x - xmin_, width_); }
  uint32_t RowOf(double y) const { return CoordToCell(ymax_ - y, height_); }

  uint32_t TileOfPoint(const Point& p) const {
    return RowOf(p.y) * tiles_ + ColumnOf(p.x);
  }

  CellRange RangeOf(double xlo, double ylo, double xhi, double yhi) const {
    CellRange r;
    r.cx0 = ColumnOf(xlo);
    r.cx1 = ColumnOf(xhi);
    r.cy0 = RowOf(yhi);
    r.cy1 = RowOf(ylo);
    return r;
  }
  CellRange RangeOfBox(const Box& b) const {
    return RangeOf(b.xmin, b.ymin, b.xmax, b.ymax);
  }

  /// Two-layer begin class (0..3 = A..D) of the box with range `r` at
  /// tile (cx, cy): bit 0 = it spilled in along x (begins in an earlier
  /// column), bit 1 = along y (begins in a lower row).
  static uint8_t ClassAt(uint32_t cx, uint32_t cy, const CellRange& r) {
    return static_cast<uint8_t>((cx != r.cx0 ? 1 : 0) | (cy != r.cy1 ? 2 : 0));
  }

 private:
  /// Cell of `offset` along an axis of length `extent`:
  /// floor(offset / extent * tiles) clamped to [0, tiles-1], clamped
  /// before the cast so no out-of-range double reaches it. A zero extent
  /// (a universe with no width or height, used as given) maps every
  /// coordinate to cell 0, and so does any other non-finite ratio: an
  /// empty box's ±inf corners land in tile 0.
  uint32_t CoordToCell(double offset, double extent) const {
    const double f = offset / extent * tiles_;
    if (!(f > 0) || std::isinf(f)) return 0;
    if (f >= tiles_ - 1) return tiles_ - 1;
    return static_cast<uint32_t>(f);
  }

  double xmin_ = 0.0;
  double ymax_ = 0.0;
  double width_ = 0.0;
  double height_ = 0.0;
  uint32_t tiles_ = 1;
};

}  // namespace paradise::geom

#endif  // PARADISE_GEOM_TILE_GRID_H_
