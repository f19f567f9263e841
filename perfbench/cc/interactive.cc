// Seeded statement mix of the interactive_select workload.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "bench.h"
#include "common/rng.h"
#include "datagen/datagen.h"

namespace perfbench {

using paradise::Rng;
using paradise::geom::Box;
using paradise::geom::Point;

namespace {

constexpr int kHotCentres = 48;
constexpr double kHotShare = 0.6;      // region centres drawn from the hot set
constexpr double kHotJitterDeg = 1.5;  // Gaussian jitter around a hot centre
constexpr double kMinHalfDeg = 0.25;   // log-uniform region half-size range
constexpr double kMaxHalfDeg = 3.0;

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

std::string PolygonLiteral(const Box& b) {
  return "POLYGON((" + Num(b.xmin) + " " + Num(b.ymin) + ", " + Num(b.xmax) +
         " " + Num(b.ymin) + ", " + Num(b.xmax) + " " + Num(b.ymax) + ", " +
         Num(b.xmin) + " " + Num(b.ymax) + "))";
}

std::string CircleLiteral(const Point& c, double r) {
  return "CIRCLE(" + Num(c.x) + " " + Num(c.y) + ", " + Num(r) + ")";
}

}  // namespace

std::vector<Statement> GenerateStatements(
    const paradise::datagen::GlobalDataSet& ds, uint64_t seed, int count) {
  namespace col = paradise::datagen::col;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 17);
  const Box& u = ds.universe;
  const auto& places = ds.populated_places;
  std::vector<Point> hot;
  for (int i = 0; i < kHotCentres && !places.empty(); ++i) {
    hot.push_back(places[rng.NextUint(places.size())]
                      .at(col::kPlaceLocation)
                      .AsPoint());
  }
  auto clamp_to_universe = [&](Point p) {
    p.x = std::min(std::max(p.x, u.xmin), u.xmax);
    p.y = std::min(std::max(p.y, u.ymin), u.ymax);
    return p;
  };

  // Stratified draws: the kind shares, the hot-set share and the region
  // size quantiles are exact in every pass, and the seed only permutes the
  // sizes and hot/uniform roles over the regions (and picks the names, hot
  // centres and uniform centres). The mix then costs about the same for
  // every seed.
  auto shuffled = [&rng](std::vector<int> v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.NextUint(i)]);
    }
    return v;
  };
  // Kinds follow one fixed interleaving (30% names, 14% of each region
  // kind), so every seed's pass warms and evicts the pools in the same
  // rhythm.
  const int shares[] = {30, 14, 14, 14, 14, 14};  // percent, by Statement::Kind
  std::vector<int> kinds;
  std::vector<double> credit(6, 0.0);
  for (int i = 0; i < count; ++i) {
    int best = 0;
    for (int k = 0; k < 6; ++k) {
      credit[static_cast<size_t>(k)] += shares[k];
      if (credit[static_cast<size_t>(k)] > credit[static_cast<size_t>(best)]) best = k;
    }
    credit[static_cast<size_t>(best)] -= 100;
    kinds.push_back(best);
  }
  const int regions =
      static_cast<int>(std::count_if(kinds.begin(), kinds.end(),
                                     [](int k) { return k != Statement::kName; }));
  std::vector<int> size_rank(static_cast<size_t>(regions)), hot_rank;
  for (int j = 0; j < regions; ++j) size_rank[static_cast<size_t>(j)] = j;
  size_rank = shuffled(std::move(size_rank));
  hot_rank = shuffled(size_rank);
  // Regions with hot_rank < hot_count centre on the hot set (each hot centre
  // equally often); the rest form a Latin hypercube over the universe.
  const int hot_count = hot.empty() ? 0 : static_cast<int>(std::ceil(kHotShare * regions));
  std::vector<int> y_stratum(static_cast<size_t>(regions - hot_count));
  for (size_t j = 0; j < y_stratum.size(); ++j) y_stratum[j] = static_cast<int>(j);
  y_stratum = shuffled(std::move(y_stratum));
  int region_index = 0;

  std::vector<Statement> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Statement s;
    s.kind = static_cast<Statement::Kind>(kinds[static_cast<size_t>(i)]);
    if (s.kind == Statement::kName) {
      s.table = "populatedPlaces";
      s.name = places[rng.NextUint(places.size())].at(col::kPlaceName).AsString();
      s.sql = "SELECT * FROM populatedPlaces WHERE name = '" + s.name + "'";
      out.push_back(std::move(s));
      continue;
    }
    const size_t r = static_cast<size_t>(region_index++);
    Point c;
    if (hot_rank[r] < hot_count) {
      const Point& h = hot[static_cast<size_t>(hot_rank[r]) % hot.size()];
      c = clamp_to_universe(Point{h.x + rng.NextGaussian() * kHotJitterDeg,
                                  h.y + rng.NextGaussian() * kHotJitterDeg});
    } else {
      const int ui = hot_rank[r] - hot_count;
      const double strata = static_cast<double>(y_stratum.size());
      c = Point{u.xmin + (ui + rng.NextDouble()) / strata * u.Width(),
                u.ymin + (y_stratum[static_cast<size_t>(ui)] + rng.NextDouble()) /
                             strata * u.Height()};
    }
    const double q = (size_rank[r] + rng.NextDouble()) / regions;
    const double half = std::exp(std::log(kMinHalfDeg) +
                                 q * (std::log(kMaxHalfDeg) - std::log(kMinHalfDeg)));
    s.region = Box(c.x - half, c.y - half, c.x + half, c.y + half);
    switch (s.kind) {
      case Statement::kPolygon:
        s.table = "landCover";
        s.sql = "SELECT id, area(shape) FROM landCover WHERE shape OVERLAPS " +
                PolygonLiteral(s.region);
        break;
      case Statement::kCircle:
        s.table = "roads";
        s.sql = "SELECT id, type FROM roads WHERE shape OVERLAPS " +
                CircleLiteral(c, half);
        break;
      case Statement::kBox:
        s.table = "drainage";
        s.sql = "SELECT id, type FROM drainage WHERE shape OVERLAPS BOX(" +
                Num(s.region.xmin) + " " + Num(s.region.ymin) + ", " +
                Num(s.region.xmax) + " " + Num(s.region.ymax) + ")";
        break;
      case Statement::kCount:
        s.table = "landCover";
        s.sql = "SELECT count(*) FROM landCover WHERE shape OVERLAPS " +
                CircleLiteral(c, half);
        break;
      case Statement::kClosest:
        s.table = "drainage";
        s.sql = "SELECT closest(shape, POINT(" + Num(c.x) + " " + Num(c.y) +
                ")) FROM drainage WHERE shape OVERLAPS " +
                PolygonLiteral(s.region);
        break;
      case Statement::kName:
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace perfbench
