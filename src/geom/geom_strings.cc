#include <cstdio>

#include "geom/box.h"
#include "geom/circle.h"
#include "geom/point.h"

namespace paradise::geom {

std::string Point::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "(%.6g %.6g)", x, y);
  return buf;
}

std::string Box::ToString() const {
  if (IsEmpty()) return "BOX(empty)";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "BOX(%.6g %.6g, %.6g %.6g)", xmin, ymin,
                xmax, ymax);
  return buf;
}

double Circle::Area() const { return 3.14159265358979323846 * radius * radius; }

std::string Circle::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "CIRCLE(%.6g %.6g, r=%.6g)", center.x,
                center.y, radius);
  return buf;
}

}  // namespace paradise::geom
