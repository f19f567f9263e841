#ifndef PARADISE_GEOM_POLYGON_H_
#define PARADISE_GEOM_POLYGON_H_

#include <string>
#include <vector>

#include "common/bytes.h"
#include "geom/box.h"
#include "geom/point.h"

namespace paradise::geom {

class Polyline;

/// A simple polygon given as a ring of vertices (implicitly closed: the
/// last vertex connects back to the first). Land-cover features in the
/// benchmark schema. Immutable after construction; the MBR is cached.
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Point> ring);

  const std::vector<Point>& ring() const { return ring_; }
  size_t num_points() const { return ring_.size(); }

  const Box& Mbr() const { return mbr_; }

  /// Unsigned area (shoelace formula).
  double Area() const;

  /// Point-in-polygon by the crossing-number rule; boundary points count
  /// as inside.
  bool Contains(const Point& p) const;

  bool Intersects(const Polygon& other) const;
  bool Intersects(const Polyline& line) const;
  bool IntersectsBox(const Box& box) const;

  /// Distance from `p` to the polygon (0 if inside).
  double DistanceTo(const Point& p) const;

  size_t StorageBytes() const { return 16 + 16 * ring_.size(); }

  void Serialize(ByteWriter* w) const;
  static Polygon Deserialize(ByteReader* r);

  std::string ToString() const;

  friend bool operator==(const Polygon& a, const Polygon& b) {
    return a.ring_ == b.ring_;
  }

 private:
  std::vector<Point> ring_;
  Box mbr_;
};

/// A polygon with holes ("swiss-cheese polygon" in the Paradise data
/// model) — e.g. a lake with islands.
class SwissCheesePolygon {
 public:
  SwissCheesePolygon() = default;
  SwissCheesePolygon(Polygon outer, std::vector<Polygon> holes)
      : outer_(std::move(outer)), holes_(std::move(holes)) {}

  const Polygon& outer() const { return outer_; }
  const std::vector<Polygon>& holes() const { return holes_; }

  const Box& Mbr() const { return outer_.Mbr(); }

  /// Outer area minus hole areas.
  double Area() const;

  bool Contains(const Point& p) const;

  void Serialize(ByteWriter* w) const;
  static SwissCheesePolygon Deserialize(ByteReader* r);

  std::string ToString() const;

 private:
  Polygon outer_;
  std::vector<Polygon> holes_;
};

}  // namespace paradise::geom

#endif  // PARADISE_GEOM_POLYGON_H_
