#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "geom/algorithms.h"
#include "geom/box.h"
#include "geom/circle.h"
#include "geom/point.h"
#include "geom/polygon.h"
#include "geom/polyline.h"
#include "geom/tile_grid.h"

namespace paradise::geom {
namespace {

Polygon Square(double x0, double y0, double side) {
  return Polygon({Point{x0, y0}, Point{x0 + side, y0},
                  Point{x0 + side, y0 + side}, Point{x0, y0 + side}});
}

Polygon RandomPolygon(Rng* rng, double cx, double cy, double radius, int n) {
  std::vector<Point> ring;
  for (int i = 0; i < n; ++i) {
    double angle = 2 * M_PI * i / n;
    double r = radius * (0.5 + 0.5 * rng->NextDouble());
    ring.push_back(Point{cx + r * std::cos(angle), cy + r * std::sin(angle)});
  }
  return Polygon(std::move(ring));
}

TEST(BoxTest, BasicPredicates) {
  Box a(0, 0, 10, 10);
  Box b(5, 5, 15, 15);
  Box c(11, 11, 12, 12);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Contains(Point{5, 5}));
  EXPECT_TRUE(a.Contains(Point{0, 0}));  // boundary inclusive
  EXPECT_FALSE(a.Contains(Point{10.001, 5}));
  EXPECT_TRUE(a.Contains(Box(1, 1, 9, 9)));
  EXPECT_FALSE(a.Contains(b));
}

TEST(BoxTest, EmptyBoxBehaviour) {
  Box e = Box::Empty();
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_FALSE(e.Intersects(Box(0, 0, 1, 1)));
  EXPECT_FALSE(Box(0, 0, 1, 1).Intersects(e));
  EXPECT_EQ(e.Area(), 0.0);
  Box a(0, 0, 1, 1);
  a.ExpandToInclude(e);  // no-op
  EXPECT_EQ(a, Box(0, 0, 1, 1));
  e.ExpandToInclude(Point{3, 4});
  EXPECT_FALSE(e.IsEmpty());
  EXPECT_EQ(e.Area(), 0.0);  // degenerate point box
}

TEST(BoxTest, IntersectionAndUnion) {
  Box a(0, 0, 10, 10);
  Box b(5, 5, 15, 15);
  EXPECT_EQ(a.Intersection(b), Box(5, 5, 10, 10));
  EXPECT_EQ(a.Union(b), Box(0, 0, 15, 15));
  EXPECT_TRUE(a.Intersection(Box(20, 20, 30, 30)).IsEmpty());
}

TEST(BoxTest, DistanceTo) {
  Box a(0, 0, 10, 10);
  EXPECT_EQ(a.DistanceTo(Point{5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(a.DistanceTo(Point{13, 14}), 5.0);  // 3-4-5
  EXPECT_DOUBLE_EQ(a.DistanceTo(Point{-2, 5}), 2.0);
}

TEST(BoxTest, BoundaryDistanceIsInscribedCircleRadius) {
  Box a(0, 0, 10, 10);
  EXPECT_DOUBLE_EQ(a.BoundaryDistanceFrom(Point{5, 5}), 5.0);
  EXPECT_DOUBLE_EQ(a.BoundaryDistanceFrom(Point{1, 5}), 1.0);
  EXPECT_DOUBLE_EQ(a.BoundaryDistanceFrom(Point{5, 9}), 1.0);
  // Outside: falls back to distance to the box.
  EXPECT_DOUBLE_EQ(a.BoundaryDistanceFrom(Point{-3, 5}), 3.0);
}

TEST(BoxTest, MakeBox) {
  Box b = Box::MakeBox(Point{5, 5}, 4);
  EXPECT_EQ(b, Box(3, 3, 7, 7));
}

TEST(SegmentTest, Intersections) {
  EXPECT_TRUE(SegmentsIntersect(Point{0, 0}, Point{10, 10}, Point{0, 10},
                                Point{10, 0}));
  EXPECT_FALSE(SegmentsIntersect(Point{0, 0}, Point{10, 0}, Point{0, 1},
                                 Point{10, 1}));
  // Shared endpoint.
  EXPECT_TRUE(SegmentsIntersect(Point{0, 0}, Point{5, 5}, Point{5, 5},
                                Point{10, 0}));
  // Collinear overlapping.
  EXPECT_TRUE(SegmentsIntersect(Point{0, 0}, Point{10, 0}, Point{5, 0},
                                Point{15, 0}));
  // Collinear disjoint.
  EXPECT_FALSE(SegmentsIntersect(Point{0, 0}, Point{4, 0}, Point{5, 0},
                                 Point{15, 0}));
}

TEST(SegmentTest, PointSegmentDistance) {
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point{5, 5}, Point{0, 0}, Point{10, 0}),
                   5.0);
  // Beyond an endpoint.
  EXPECT_DOUBLE_EQ(
      PointSegmentDistance(Point{13, 4}, Point{0, 0}, Point{10, 0}), 5.0);
  // Degenerate segment.
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point{3, 4}, Point{0, 0}, Point{0, 0}),
                   5.0);
}

TEST(SegmentTest, SegmentBoxIntersection) {
  Box box(0, 0, 10, 10);
  EXPECT_TRUE(SegmentIntersectsBox(Point{5, 5}, Point{20, 20}, box));
  EXPECT_TRUE(SegmentIntersectsBox(Point{-5, 5}, Point{15, 5}, box));
  EXPECT_FALSE(SegmentIntersectsBox(Point{-5, -5}, Point{-1, 20}, box));
  // Diagonal passing outside the corner.
  EXPECT_FALSE(SegmentIntersectsBox(Point{21, 0}, Point{0, 21}, box));
  // The same diagonal close enough to cut the corner.
  EXPECT_TRUE(SegmentIntersectsBox(Point{15, 0}, Point{0, 15}, box));
}

TEST(PolygonTest, Area) {
  Polygon sq = Square(0, 0, 10);
  EXPECT_DOUBLE_EQ(sq.Area(), 100.0);
  // Orientation independence.
  Polygon sq_cw({Point{0, 0}, Point{0, 10}, Point{10, 10}, Point{10, 0}});
  EXPECT_DOUBLE_EQ(sq_cw.Area(), 100.0);
}

TEST(PolygonTest, ContainsPoint) {
  Polygon sq = Square(0, 0, 10);
  EXPECT_TRUE(sq.Contains(Point{5, 5}));
  EXPECT_FALSE(sq.Contains(Point{15, 5}));
  EXPECT_TRUE(sq.Contains(Point{0, 5}));   // boundary
  EXPECT_TRUE(sq.Contains(Point{0, 0}));   // vertex
  // Concave polygon (a "C" shape).
  Polygon c({Point{0, 0}, Point{10, 0}, Point{10, 2}, Point{2, 2},
             Point{2, 8}, Point{10, 8}, Point{10, 10}, Point{0, 10}});
  EXPECT_TRUE(c.Contains(Point{1, 5}));
  EXPECT_FALSE(c.Contains(Point{5, 5}));  // in the notch
}

TEST(PolygonTest, PolygonPolygonIntersection) {
  Polygon a = Square(0, 0, 10);
  Polygon b = Square(5, 5, 10);
  Polygon c = Square(20, 20, 5);
  Polygon inner = Square(2, 2, 2);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  // Full containment (no edge crossings).
  EXPECT_TRUE(a.Intersects(inner));
  EXPECT_TRUE(inner.Intersects(a));
}

TEST(PolygonTest, PolygonPolylineIntersection) {
  Polygon a = Square(0, 0, 10);
  Polyline crossing({Point{-5, 5}, Point{15, 5}});
  Polyline outside({Point{20, 20}, Point{30, 30}});
  Polyline inside({Point{2, 2}, Point{3, 3}});
  EXPECT_TRUE(a.Intersects(crossing));
  EXPECT_FALSE(a.Intersects(outside));
  EXPECT_TRUE(a.Intersects(inside));  // wholly inside
}

TEST(PolygonTest, DistanceToPoint) {
  Polygon sq = Square(0, 0, 10);
  EXPECT_DOUBLE_EQ(sq.DistanceTo(Point{5, 5}), 0.0);  // inside
  EXPECT_DOUBLE_EQ(sq.DistanceTo(Point{15, 5}), 5.0);
  EXPECT_DOUBLE_EQ(sq.DistanceTo(Point{13, 14}), 5.0);
}

TEST(PolygonTest, SerializeRoundTrip) {
  Rng rng(13);
  Polygon p = RandomPolygon(&rng, 0, 0, 10, 17);
  ByteBuffer buf;
  ByteWriter w(&buf);
  p.Serialize(&w);
  ByteReader r(buf);
  Polygon q = Polygon::Deserialize(&r);
  EXPECT_EQ(p, q);
}

TEST(PolylineTest, LengthAndDistance) {
  Polyline line({Point{0, 0}, Point{10, 0}, Point{10, 10}});
  EXPECT_DOUBLE_EQ(line.Length(), 20.0);
  EXPECT_DOUBLE_EQ(line.DistanceTo(Point{5, 3}), 3.0);
  EXPECT_DOUBLE_EQ(line.DistanceTo(Point{14, 13}), 5.0);
}

TEST(PolylineTest, Intersections) {
  Polyline a({Point{0, 0}, Point{10, 10}});
  Polyline b({Point{0, 10}, Point{10, 0}});
  Polyline c({Point{20, 20}, Point{30, 20}});
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
}

TEST(PolylineTest, IntersectsBox) {
  Polyline a({Point{-5, 5}, Point{15, 5}});
  EXPECT_TRUE(a.IntersectsBox(Box(0, 0, 10, 10)));
  EXPECT_FALSE(a.IntersectsBox(Box(0, 6, 10, 10)));
}

TEST(PolylineTest, SerializeRoundTrip) {
  Polyline line({Point{0, 0}, Point{1.5, -2.25}, Point{3.75, 9}});
  ByteBuffer buf;
  ByteWriter w(&buf);
  line.Serialize(&w);
  ByteReader r(buf);
  EXPECT_EQ(line, Polyline::Deserialize(&r));
}

// ---------- Polyline::Intersects against the earlier implementation ----------

/// Polyline::Intersects as it was before the other chain's segments were
/// prefiltered to this chain's MBR, copied with only the member accesses
/// changed, and with the per-segment prune inflated by the slack as in
/// Intersects. Kept as the differential oracle for the prefilter.
bool ReferenceIntersects(const Polyline& self, const Polyline& other) {
  if (!self.Mbr().Intersects(other.Mbr())) return false;
  constexpr double kPruneSlack = 1e-9;
  const Point* a = self.points().data();
  const Point* b = other.points().data();
  const size_t an = self.points().size();
  const size_t bn = other.points().size();

  constexpr size_t kStackSegs = 32;
  double stack_buf[kStackSegs * 4];
  std::vector<double> heap_buf;
  double* sb = stack_buf;
  const size_t bsegs = bn > 0 ? bn - 1 : 0;
  if (bsegs > kStackSegs) {
    heap_buf.resize(bsegs * 4);
    sb = heap_buf.data();
  }
  for (size_t j = 0; j < bsegs; ++j) {
    sb[j * 4 + 0] = std::min(b[j].x, b[j + 1].x);
    sb[j * 4 + 1] = std::max(b[j].x, b[j + 1].x);
    sb[j * 4 + 2] = std::min(b[j].y, b[j + 1].y);
    sb[j * 4 + 3] = std::max(b[j].y, b[j + 1].y);
  }

  const double oxlo = other.Mbr().xmin - kPruneSlack;
  const double oxhi = other.Mbr().xmax + kPruneSlack;
  const double oylo = other.Mbr().ymin - kPruneSlack;
  const double oyhi = other.Mbr().ymax + kPruneSlack;
  for (size_t i = 1; i < an; ++i) {
    const double sxlo = std::min(a[i - 1].x, a[i].x);
    const double sxhi = std::max(a[i - 1].x, a[i].x);
    const double sylo = std::min(a[i - 1].y, a[i].y);
    const double syhi = std::max(a[i - 1].y, a[i].y);
    if (sxhi < oxlo || sxlo > oxhi || syhi < oylo || sylo > oyhi) continue;
    const double axlo = sxlo - kPruneSlack;
    const double axhi = sxhi + kPruneSlack;
    const double aylo = sylo - kPruneSlack;
    const double ayhi = syhi + kPruneSlack;
    size_t j = 0;
    while (j < bsegs) {
      const size_t block = std::min(bsegs - j, kStackSegs);
      uint32_t surv[kStackSegs];
      uint32_t m = 0;
      for (size_t t = 0; t < block; ++t) {
        const double* s = sb + (j + t) * 4;
        const bool keep =
            (s[1] >= axlo) & (s[0] <= axhi) & (s[3] >= aylo) & (s[2] <= ayhi);
        surv[m] = static_cast<uint32_t>(j + t);
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

/// Checks Intersects against the reference in both argument orders, and
/// that the two orders agree; returns a.Intersects(b).
bool ExpectIntersectsLikeReference(const Polyline& a, const Polyline& b) {
  const bool ab = a.Intersects(b);
  const bool ba = b.Intersects(a);
  EXPECT_EQ(ab, ReferenceIntersects(a, b))
      << a.ToString() << " vs " << b.ToString();
  EXPECT_EQ(ba, ReferenceIntersects(b, a))
      << b.ToString() << " vs " << a.ToString();
  EXPECT_EQ(ab, ba) << "asymmetric: " << a.ToString() << " vs "
                    << b.ToString();
  return ab;
}

/// A meandering walk like datagen's roads and drainage: `points` steps of
/// one length, the heading turning by up to 0.6 rad per step. With `snap`,
/// every point is rounded to multiples of it, so walks share endpoints,
/// cross at vertices and overlap collinearly.
Polyline RandomWalk(Rng* rng, int points, double snap) {
  std::vector<Point> pts;
  Point cur{rng->NextDouble(0, 4), rng->NextDouble(0, 4)};
  const double step = rng->NextDouble(0.03, 0.4);
  double heading = rng->NextDouble(0, 2.0 * M_PI);
  for (int i = 0; i < points; ++i) {
    Point p = cur;
    if (snap > 0) {
      p = Point{std::round(p.x / snap) * snap, std::round(p.y / snap) * snap};
    }
    pts.push_back(p);
    heading += rng->NextDouble(-0.6, 0.6);
    cur.x += step * std::cos(heading);
    cur.y += step * std::sin(heading);
  }
  return Polyline(std::move(pts));
}

TEST(PolylineDifferentialTest, RandomWalksMatchTheReference) {
  for (const double snap : {0.0, 0.25}) {
    Rng rng(snap > 0 ? 17 : 13);
    std::vector<Polyline> walks;
    for (int i = 0; i < 160; ++i) {
      walks.push_back(
          RandomWalk(&rng, static_cast<int>(rng.NextInt(2, 40)), snap));
    }
    int hits = 0, misses = 0, heap_pairs = 0;
    for (size_t i = 0; i < walks.size(); ++i) {
      for (size_t j = i; j < walks.size(); ++j) {
        const bool hit = ExpectIntersectsLikeReference(walks[i], walks[j]);
        hit ? ++hits : ++misses;
        if (std::max(walks[i].num_segments(), walks[j].num_segments()) > 32) {
          ++heap_pairs;
        }
      }
    }
    // Both answers occur, and chains of more than 32 segments take the
    // prefilter's heap block.
    EXPECT_GT(hits, 500) << "snap " << snap;
    EXPECT_GT(misses, 500) << "snap " << snap;
    EXPECT_GT(heap_pairs, 500) << "snap " << snap;
  }
}

TEST(PolylineDifferentialTest, DegenerateChainsMatchTheReference) {
  const Polyline diagonal({Point{0, 0}, Point{1, 1}});
  const Polyline horizontal({Point{0, 0}, Point{2, 0}});
  // Shared endpoint.
  EXPECT_TRUE(ExpectIntersectsLikeReference(
      diagonal, Polyline({Point{1, 1}, Point{2, 0}})));
  // T-junction.
  EXPECT_TRUE(ExpectIntersectsLikeReference(
      horizontal, Polyline({Point{1, 0}, Point{1, 1}})));
  // Collinear overlap.
  EXPECT_TRUE(ExpectIntersectsLikeReference(
      horizontal, Polyline({Point{1, 0}, Point{3, 0}})));
  // Zero-length segments: on the other chain, at a shared vertex, and off
  // both.
  EXPECT_TRUE(ExpectIntersectsLikeReference(
      diagonal, Polyline({Point{0.5, 0.5}, Point{0.5, 0.5}})));
  EXPECT_TRUE(ExpectIntersectsLikeReference(
      Polyline({Point{0, 0}, Point{0, 0}, Point{-1, 1}}), diagonal));
  EXPECT_FALSE(ExpectIntersectsLikeReference(
      diagonal, Polyline({Point{0.5, 0.2}, Point{0.5, 0.2}})));
  // One-point and empty chains: no segment, so no intersection.
  EXPECT_FALSE(ExpectIntersectsLikeReference(
      diagonal, Polyline({Point{0.5, 0.5}})));
  EXPECT_FALSE(ExpectIntersectsLikeReference(diagonal, Polyline()));
  EXPECT_FALSE(ExpectIntersectsLikeReference(Polyline(), Polyline()));
  // MBRs touching only at a corner: through a shared vertex, and with the
  // corner on neither chain.
  EXPECT_TRUE(ExpectIntersectsLikeReference(
      diagonal, Polyline({Point{1, 1}, Point{2, 2}})));
  EXPECT_FALSE(ExpectIntersectsLikeReference(
      Polyline({Point{0, 1}, Point{1, 0}}),
      Polyline({Point{1, 1}, Point{2, 1.5}, Point{2, 2}})));
  // The other chain's first segment reaches this chain's MBR (x <= 1) only
  // within the 1e-9 slack, and SegmentsIntersect accepts it (its endpoint
  // lies 5e-13 past this chain's end, inside the 1e-12 tolerance); every
  // other segment of it is far away. The pair survives the slack prunes
  // from either side (the long chain's first segment misses the short
  // chain's exact MBR), so both orders test it and answer true.
  const Polyline short_chain({Point{0, 0}, Point{1, 0}});
  const Polyline long_chain(
      {Point{1 + 5e-13, 0}, Point{3, 0}, Point{3, 2}, Point{0.5, 2}});
  EXPECT_TRUE(ExpectIntersectsLikeReference(short_chain, long_chain));
  EXPECT_TRUE(long_chain.Intersects(short_chain));
}

TEST(PolylineTest, SlackPruneIsPartOfThePredicate) {
  // SegmentsIntersect compares cross products against an absolute 1e-12,
  // so it accepts a's first segment and b's, which lie 0.5 apart. Their
  // bounding intervals are disjoint, so Intersects never tests the pair.
  const Polyline a({Point{0, 0}, Point{1, 0}, Point{3, -1}});
  const Polyline b({Point{1.5, 0}, Point{2.5, 1.5e-12}});
  bool any_pair = false;
  for (size_t i = 1; i < a.num_points(); ++i) {
    for (size_t k = 1; k < b.num_points(); ++k) {
      any_pair |= SegmentsIntersect(a.points()[i - 1], a.points()[i],
                                    b.points()[k - 1], b.points()[k]);
    }
  }
  EXPECT_TRUE(any_pair);
  EXPECT_TRUE(SegmentsIntersect(a.points()[0], a.points()[1], b.points()[0],
                                b.points()[1]));
  EXPECT_FALSE(a.Intersects(b));
  EXPECT_FALSE(b.Intersects(a));
}

TEST(SwissCheeseTest, AreaAndContains) {
  Polygon outer = Square(0, 0, 10);
  Polygon hole = Square(4, 4, 2);
  SwissCheesePolygon sc(outer, {hole});
  EXPECT_DOUBLE_EQ(sc.Area(), 96.0);
  EXPECT_TRUE(sc.Contains(Point{1, 1}));
  EXPECT_FALSE(sc.Contains(Point{5, 5}));   // in the hole
  EXPECT_FALSE(sc.Contains(Point{15, 5}));  // outside
}

TEST(SwissCheeseTest, SerializeRoundTrip) {
  SwissCheesePolygon sc(Square(0, 0, 10), {Square(1, 1, 2), Square(6, 6, 2)});
  ByteBuffer buf;
  ByteWriter w(&buf);
  sc.Serialize(&w);
  ByteReader r(buf);
  SwissCheesePolygon rt = SwissCheesePolygon::Deserialize(&r);
  EXPECT_DOUBLE_EQ(rt.Area(), sc.Area());
  EXPECT_EQ(rt.holes().size(), 2u);
}

TEST(CircleTest, Basics) {
  Circle c(Point{0, 0}, 5);
  EXPECT_TRUE(c.Contains(Point{3, 4}));
  EXPECT_FALSE(c.Contains(Point{4, 4}));
  EXPECT_TRUE(c.IntersectsBox(Box(4, 0, 10, 1)));
  EXPECT_FALSE(c.IntersectsBox(Box(4, 4, 10, 10)));
}

/// Property sweep: polygon-polygon intersection is symmetric, and
/// containment of either centroid implies intersection.
class PolygonPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PolygonPropertyTest, IntersectionSymmetricAndConsistent) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 40; ++iter) {
    Polygon a = RandomPolygon(&rng, rng.NextDouble(-20, 20),
                              rng.NextDouble(-20, 20),
                              rng.NextDouble(2, 15), 3 + iter % 12);
    Polygon b = RandomPolygon(&rng, rng.NextDouble(-20, 20),
                              rng.NextDouble(-20, 20),
                              rng.NextDouble(2, 15), 3 + (iter * 7) % 12);
    EXPECT_EQ(a.Intersects(b), b.Intersects(a));
    if (a.Contains(b.ring()[0]) || b.Contains(a.ring()[0])) {
      EXPECT_TRUE(a.Intersects(b));
    }
    if (!a.Mbr().Intersects(b.Mbr())) {
      EXPECT_FALSE(a.Intersects(b));
    }
  }
}

TEST_P(PolygonPropertyTest, DistanceZeroIffContains) {
  Rng rng(GetParam() * 31 + 5);
  for (int iter = 0; iter < 60; ++iter) {
    Polygon a = RandomPolygon(&rng, 0, 0, 10, 3 + iter % 15);
    Point p{rng.NextDouble(-15, 15), rng.NextDouble(-15, 15)};
    if (a.Contains(p)) {
      EXPECT_EQ(a.DistanceTo(p), 0.0);
    } else {
      EXPECT_GT(a.DistanceTo(p), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolygonPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(TileGridTest, DegenerateInputsMapToDefinedCells) {
  // Zero width: every x is column 0, wherever it lies; y still spreads,
  // rows growing downward from ymax.
  TileGrid g(Box(5, 0, 5, 10), 10);
  for (double x : {5.0, 7.0, 3.0}) EXPECT_EQ(g.ColumnOf(x), 0u);
  EXPECT_EQ(g.RowOf(10), 0u);
  EXPECT_EQ(g.RowOf(4.5), 5u);
  EXPECT_EQ(g.RowOf(0), 9u);
  TileGrid square(Box(0, 0, 10, 10), 10);
  // Far outside the universe clamps to the edge cell.
  EXPECT_EQ(square.ColumnOf(1e300), 9u);
  EXPECT_EQ(square.ColumnOf(-1e300), 0u);
  // An empty box's ±inf corners land in tile 0.
  TileGrid::CellRange r = square.RangeOfBox(Box());
  EXPECT_EQ(r.cx0 + r.cx1 + r.cy0 + r.cy1, 0u);
}

}  // namespace
}  // namespace paradise::geom
