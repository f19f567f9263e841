#include "geom/polyline.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/algorithms.h"

namespace paradise::geom {

Polyline::Polyline(std::vector<Point> points) : points_(std::move(points)) {
  for (const Point& p : points_) mbr_.ExpandToInclude(p);
}

double Polyline::Length() const {
  double len = 0.0;
  for (size_t i = 1; i < points_.size(); ++i) {
    len += Distance(points_[i - 1], points_[i]);
  }
  return len;
}

double Polyline::DistanceTo(const Point& p) const {
  if (points_.empty()) return std::numeric_limits<double>::infinity();
  if (points_.size() == 1) return Distance(p, points_[0]);
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 1; i < points_.size(); ++i) {
    best = std::min(best, PointSegmentDistance(p, points_[i - 1], points_[i]));
  }
  return best;
}

bool Polyline::Intersects(const Polyline& other) const {
  if (!mbr_.Intersects(other.mbr_)) return false;
  // Slack of the segment-pair interval prune below. The prune is part of
  // this predicate's definition, not only a speed-up: SegmentsIntersect
  // compares cross products against an absolute 1e-12, so it accepts some
  // nearly collinear segments that lie far apart. With a = (0,0),(1,0),
  // (3,-1) and b = (1.5,0),(2.5,1.5e-12) it accepts a's first segment and
  // b's, 0.5 apart, and Intersects answers false in both orders because
  // their intervals are disjoint. Two chains intersect when some pair of
  // segments passes the prunes below and then SegmentsIntersect.
  constexpr double kPruneSlack = 1e-9;
  const Point* a = points_.data();
  const Point* b = other.points_.data();
  const size_t an = points_.size();
  const size_t bn = other.points_.size();
  const size_t bsegs = bn > 0 ? bn - 1 : 0;

  // Prefilter, once per call: keep the other chain's segments whose
  // bounding interval reaches this chain's MBR inflated by the slack, with
  // their intervals and indexes. Every segment of this chain lies inside
  // that MBR, so a segment dropped here fails the pair prune below against
  // all of them: the pairs tested are exactly those tested without it.
  // Chains are short (road/river fragments), so a stack block covers the
  // common case.
  struct Interval {
    double xlo, xhi, ylo, yhi;
    uint32_t index;
  };
  constexpr size_t kStackSegs = 32;
  Interval stack_block[kStackSegs];
  std::vector<Interval> heap_block;
  Interval* sv = stack_block;
  if (bsegs > kStackSegs) {
    heap_block.resize(bsegs);
    sv = heap_block.data();
  }
  const double pxlo = mbr_.xmin - kPruneSlack;
  const double pxhi = mbr_.xmax + kPruneSlack;
  const double pylo = mbr_.ymin - kPruneSlack;
  const double pyhi = mbr_.ymax + kPruneSlack;
  size_t nsurv = 0;
  for (size_t j = 0; j < bsegs; ++j) {
    Interval& s = sv[nsurv];
    s.xlo = std::min(b[j].x, b[j + 1].x);
    s.xhi = std::max(b[j].x, b[j + 1].x);
    s.ylo = std::min(b[j].y, b[j + 1].y);
    s.yhi = std::max(b[j].y, b[j + 1].y);
    s.index = static_cast<uint32_t>(j);
    nsurv += (s.xhi >= pxlo) & (s.xlo <= pxhi) & (s.yhi >= pylo) &
             (s.ylo <= pyhi);
  }
  if (nsurv == 0) return false;

  const double oxlo = other.mbr_.xmin - kPruneSlack;
  const double oxhi = other.mbr_.xmax + kPruneSlack;
  const double oylo = other.mbr_.ymin - kPruneSlack;
  const double oyhi = other.mbr_.ymax + kPruneSlack;
  for (size_t i = 1; i < an; ++i) {
    // Per-segment prune against the other chain's MBR, inflated by the
    // slack like the prefilter: every pair the pair prune below keeps
    // passes it, so the pairs tested, and the answer, do not depend on
    // which chain is `this`.
    const double sxlo = std::min(a[i - 1].x, a[i].x);
    const double sxhi = std::max(a[i - 1].x, a[i].x);
    const double sylo = std::min(a[i - 1].y, a[i].y);
    const double syhi = std::max(a[i - 1].y, a[i].y);
    if (sxhi < oxlo || sxlo > oxhi || syhi < oylo || sylo > oyhi) continue;
    const double axlo = sxlo - kPruneSlack;
    const double axhi = sxhi + kPruneSlack;
    const double aylo = sylo - kPruneSlack;
    const double ayhi = syhi + kPruneSlack;
    // Interval prune per segment pair, branchless: disjoint bounding
    // intervals mean the exact test cannot succeed. Survivor indexes are
    // compress-stored so the orientation tests run in a separate loop —
    // the prune itself never mispredicts.
    size_t j = 0;
    while (j < nsurv) {
      const size_t block = std::min(nsurv - j, kStackSegs);
      uint32_t surv[kStackSegs];
      uint32_t m = 0;
      for (size_t t = 0; t < block; ++t) {
        const Interval& s = sv[j + t];
        const bool keep = (s.xhi >= axlo) & (s.xlo <= axhi) &
                          (s.yhi >= aylo) & (s.ylo <= ayhi);
        surv[m] = s.index;
        m += keep;
      }
      for (uint32_t t = 0; t < m; ++t) {
        const size_t k = surv[t];
        if (SegmentsIntersect(a[i - 1], a[i], b[k], b[k + 1])) {
          return true;
        }
      }
      j += block;
    }
  }
  return false;
}

bool Polyline::IntersectsBox(const Box& box) const {
  if (!mbr_.Intersects(box)) return false;
  if (points_.size() == 1) return box.Contains(points_[0]);
  for (size_t i = 1; i < points_.size(); ++i) {
    if (SegmentIntersectsBox(points_[i - 1], points_[i], box)) return true;
  }
  return false;
}

namespace {

/// A stored chain's point count, or nullopt (failing `r`) if that many
/// points cannot follow.
std::optional<uint32_t> ReadPointCount(ByteReader* r) {
  const uint32_t n = r->GetU32();
  if (!r->Fits(n, 16)) return std::nullopt;
  return n;
}

Point ReadPoint(ByteReader* r) {
  const double x = r->GetDouble();
  const double y = r->GetDouble();
  return Point{x, y};
}

}  // namespace

void Polyline::SerializePoints(const std::vector<Point>& points,
                               ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(points.size()));
  for (const Point& p : points) {
    w->PutDouble(p.x);
    w->PutDouble(p.y);
  }
}

std::vector<Point> Polyline::DeserializePoints(ByteReader* r) {
  const std::optional<uint32_t> n = ReadPointCount(r);
  if (!n.has_value()) return {};
  std::vector<Point> pts;
  pts.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) pts.push_back(ReadPoint(r));
  return pts;
}

std::optional<uint32_t> Polyline::DeserializeMbr(ByteReader* r, Box* mbr) {
  const std::optional<uint32_t> n = ReadPointCount(r);
  if (!n.has_value()) return std::nullopt;
  for (uint32_t i = 0; i < *n; ++i) mbr->ExpandToInclude(ReadPoint(r));
  return n;
}

bool Polyline::SkipSerialized(ByteReader* r) {
  const std::optional<uint32_t> n = ReadPointCount(r);
  return n.has_value() && r->Skip(16 * static_cast<size_t>(*n));
}

void Polyline::Serialize(ByteWriter* w) const { SerializePoints(points_, w); }

Polyline Polyline::Deserialize(ByteReader* r) {
  return Polyline(DeserializePoints(r));
}

std::string Polyline::ToString() const {
  std::string out = "LINESTRING(";
  for (size_t i = 0; i < points_.size(); ++i) {
    if (i > 0) out += ", ";
    out += points_[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace paradise::geom
