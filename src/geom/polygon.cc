#include "geom/polygon.h"

#include <cmath>
#include <limits>

#include "geom/algorithms.h"
#include "geom/polyline.h"

namespace paradise::geom {

Polygon::Polygon(std::vector<Point> ring) : ring_(std::move(ring)) {
  for (const Point& p : ring_) mbr_.ExpandToInclude(p);
}

double Polygon::Area() const {
  if (ring_.size() < 3) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Point& a = ring_[i];
    const Point& b = ring_[(i + 1) % ring_.size()];
    sum += a.x * b.y - b.x * a.y;
  }
  return std::fabs(sum) / 2.0;
}

bool Polygon::Contains(const Point& p) const {
  if (ring_.size() < 3 || !mbr_.Contains(p)) return false;
  bool inside = false;
  for (size_t i = 0, j = ring_.size() - 1; i < ring_.size(); j = i++) {
    const Point& a = ring_[i];
    const Point& b = ring_[j];
    if (OnSegment(p, a, b)) return true;  // boundary counts as inside
    if ((a.y > p.y) != (b.y > p.y)) {
      double x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
      if (p.x < x_cross) inside = !inside;
    }
  }
  return inside;
}

bool Polygon::Intersects(const Polygon& other) const {
  if (!mbr_.Intersects(other.mbr_)) return false;
  if (ring_.empty() || other.ring_.empty()) return false;
  // Any edge crossing?
  size_t n = ring_.size();
  size_t m = other.ring_.size();
  for (size_t i = 0; i < n; ++i) {
    const Point& a = ring_[i];
    const Point& b = ring_[(i + 1) % n];
    Box seg_box;
    seg_box.ExpandToInclude(a);
    seg_box.ExpandToInclude(b);
    if (!seg_box.Intersects(other.mbr_)) continue;
    for (size_t j = 0; j < m; ++j) {
      if (SegmentsIntersect(a, b, other.ring_[j], other.ring_[(j + 1) % m])) {
        return true;
      }
    }
  }
  // No edge crossing: one may fully contain the other.
  return Contains(other.ring_[0]) || other.Contains(ring_[0]);
}

bool Polygon::Intersects(const Polyline& line) const {
  if (!mbr_.Intersects(line.Mbr())) return false;
  const std::vector<Point>& pts = line.points();
  if (pts.empty() || ring_.empty()) return false;
  size_t n = ring_.size();
  for (size_t i = 1; i < pts.size(); ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (SegmentsIntersect(pts[i - 1], pts[i], ring_[j],
                            ring_[(j + 1) % n])) {
        return true;
      }
    }
  }
  // No boundary crossing: the whole chain may be inside the polygon.
  return Contains(pts[0]);
}

bool Polygon::IntersectsBox(const Box& box) const {
  if (!mbr_.Intersects(box)) return false;
  if (ring_.empty()) return false;
  // Any vertex inside the box, or any edge crossing the box?
  size_t n = ring_.size();
  for (size_t i = 0; i < n; ++i) {
    if (SegmentIntersectsBox(ring_[i], ring_[(i + 1) % n], box)) return true;
  }
  // Box may be entirely inside the polygon.
  return Contains(box.Center());
}

double Polygon::DistanceTo(const Point& p) const {
  if (ring_.empty()) return std::numeric_limits<double>::infinity();
  if (Contains(p)) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  size_t n = ring_.size();
  for (size_t i = 0; i < n; ++i) {
    best =
        std::min(best, PointSegmentDistance(p, ring_[i], ring_[(i + 1) % n]));
  }
  return best;
}

void Polygon::Serialize(ByteWriter* w) const {
  Polyline::SerializePoints(ring_, w);
}

Polygon Polygon::Deserialize(ByteReader* r) {
  return Polygon(Polyline::DeserializePoints(r));
}

std::string Polygon::ToString() const {
  std::string out = "POLYGON(";
  for (size_t i = 0; i < ring_.size(); ++i) {
    if (i > 0) out += ", ";
    out += ring_[i].ToString();
  }
  out += ")";
  return out;
}

double SwissCheesePolygon::Area() const {
  double a = outer_.Area();
  for (const Polygon& h : holes_) a -= h.Area();
  return a;
}

bool SwissCheesePolygon::Contains(const Point& p) const {
  if (!outer_.Contains(p)) return false;
  for (const Polygon& h : holes_) {
    if (h.Contains(p)) return false;
  }
  return true;
}

void SwissCheesePolygon::Serialize(ByteWriter* w) const {
  outer_.Serialize(w);
  w->PutU32(static_cast<uint32_t>(holes_.size()));
  for (const Polygon& h : holes_) h.Serialize(w);
}

SwissCheesePolygon SwissCheesePolygon::Deserialize(ByteReader* r) {
  Polygon outer = Polygon::Deserialize(r);
  uint32_t n = r->GetU32();
  if (!r->Fits(n, 4)) return SwissCheesePolygon(std::move(outer), {});
  std::vector<Polygon> holes;
  holes.reserve(n);
  for (uint32_t i = 0; i < n; ++i) holes.push_back(Polygon::Deserialize(r));
  return SwissCheesePolygon(std::move(outer), std::move(holes));
}

std::string SwissCheesePolygon::ToString() const {
  std::string out = "SWISSCHEESE(outer=" + outer_.ToString();
  for (const Polygon& h : holes_) out += ", hole=" + h.ToString();
  out += ")";
  return out;
}

}  // namespace paradise::geom
