#ifndef PARADISE_GEOM_CIRCLE_H_
#define PARADISE_GEOM_CIRCLE_H_

#include <string>

#include "geom/box.h"
#include "geom/point.h"

namespace paradise::geom {

/// A circle; used for radius selections (Query 7) and for the expanding
/// probe circles of the `closest` spatial aggregate (Queries 11-12).
struct Circle {
  Point center;
  double radius = 0.0;

  Circle() = default;
  Circle(const Point& c, double r) : center(c), radius(r) {}

  Box Mbr() const {
    return Box(center.x - radius, center.y - radius, center.x + radius,
               center.y + radius);
  }

  bool Contains(const Point& p) const {
    return DistanceSquared(center, p) <= radius * radius;
  }

  bool IntersectsBox(const Box& b) const {
    return b.DistanceTo(center) <= radius;
  }

  double Area() const;

  std::string ToString() const;
};

}  // namespace paradise::geom

#endif  // PARADISE_GEOM_CIRCLE_H_
