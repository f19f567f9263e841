#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/spatial_join.h"

namespace paradise::exec {
namespace {

using geom::Box;
using geom::Point;
using geom::Polygon;
using geom::Polyline;

ExecContext NullCtx() { return ExecContext{}; }

Polygon RandomPolygon(Rng* rng, double extent, double radius, int n) {
  double cx = rng->NextDouble(-extent, extent);
  double cy = rng->NextDouble(-extent, extent);
  std::vector<Point> ring;
  for (int i = 0; i < n; ++i) {
    double angle = 2 * M_PI * i / n;
    double r = radius * (0.5 + 0.5 * rng->NextDouble());
    ring.push_back(Point{cx + r * std::cos(angle), cy + r * std::sin(angle)});
  }
  return Polygon(std::move(ring));
}

Polyline RandomPolyline(Rng* rng, double extent, double step, int n) {
  Point cur{rng->NextDouble(-extent, extent), rng->NextDouble(-extent, extent)};
  std::vector<Point> pts;
  double heading = rng->NextDouble(0, 2 * M_PI);
  for (int i = 0; i < n; ++i) {
    pts.push_back(cur);
    heading += rng->NextDouble(-0.5, 0.5);
    cur.x += step * std::cos(heading);
    cur.y += step * std::sin(heading);
  }
  return Polyline(std::move(pts));
}

TupleVec PolygonTuples(Rng* rng, int n, double extent, double radius) {
  TupleVec out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Tuple(
        {Value(int64_t{i}), Value(RandomPolygon(rng, extent, radius, 8))}));
  }
  return out;
}

TupleVec PolylineTuples(Rng* rng, int n, double extent) {
  TupleVec out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Tuple({Value(int64_t{i + 100000}),
                         Value(RandomPolyline(rng, extent, 2.0, 6))}));
  }
  return out;
}

std::set<std::pair<int64_t, int64_t>> JoinKeys(const TupleVec& joined,
                                               size_t lid, size_t rid) {
  std::set<std::pair<int64_t, int64_t>> keys;
  for (const Tuple& t : joined) {
    auto inserted =
        keys.emplace(t.at(lid).AsInt(), t.at(rid).AsInt());
    EXPECT_TRUE(inserted.second) << "duplicate join result";
  }
  return keys;
}

class PbsmPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PbsmPropertyTest, MatchesNestedLoopsWithNoDuplicates) {
  auto [seed, partitions] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  ExecContext ctx = NullCtx();
  TupleVec left = PolygonTuples(&rng, 150, 40, 5);
  TupleVec right = PolylineTuples(&rng, 120, 40);

  PbsmOptions opts;
  opts.num_partitions = static_cast<size_t>(partitions);
  auto pbsm = PbsmSpatialJoin(left, 1, right, 1, ctx, opts);
  ASSERT_TRUE(pbsm.ok());

  auto nl = NestedLoopsJoin(left, right, Overlaps(Col(1), Col(3)), ctx);
  ASSERT_TRUE(nl.ok());

  EXPECT_EQ(JoinKeys(*pbsm, 0, 2), JoinKeys(*nl, 0, 2));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPartitions, PbsmPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 4, 32, 111)));

TEST(PbsmTest, EmptyInputs) {
  ExecContext ctx = NullCtx();
  Rng rng(1);
  TupleVec some = PolygonTuples(&rng, 10, 10, 2);
  auto r1 = PbsmSpatialJoin({}, 1, some, 1, ctx);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->empty());
  auto r2 = PbsmSpatialJoin(some, 1, {}, 1, ctx);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->empty());
}

TEST(PbsmTest, SkewedDataStillCorrect) {
  // Everything piled into one corner: stresses replication + dedup.
  Rng rng(9);
  ExecContext ctx = NullCtx();
  TupleVec left, right;
  for (int i = 0; i < 80; ++i) {
    left.push_back(Tuple({Value(int64_t{i}),
                          Value(RandomPolygon(&rng, 2, 1.5, 6))}));
    right.push_back(Tuple({Value(int64_t{i + 100000}),
                           Value(RandomPolygon(&rng, 2, 1.5, 6))}));
  }
  PbsmOptions opts;
  opts.num_partitions = 16;
  auto pbsm = PbsmSpatialJoin(left, 1, right, 1, ctx, opts);
  ASSERT_TRUE(pbsm.ok());
  auto nl = NestedLoopsJoin(left, right, Overlaps(Col(1), Col(3)), ctx);
  ASSERT_TRUE(nl.ok());
  EXPECT_EQ(JoinKeys(*pbsm, 0, 2), JoinKeys(*nl, 0, 2));
}

TEST(PbsmTest, DegenerateMbrsOnCellBoundariesNoDuplicates) {
  // Left: zero-extent polylines sitting exactly on every cell boundary
  // crossing of an 8x8 grid over [0,8]^2 (corner anchors pin the
  // universe). Right: polygons covering exactly one cell, edges on the
  // boundaries. A point on a shared cell edge is replicated into every
  // adjacent partition; the reference-point rule must still report each
  // matching pair exactly once — JoinKeys() fails on any duplicate.
  ExecContext ctx = NullCtx();
  TupleVec left, right;
  int64_t id = 0;
  for (int i = 0; i <= 8; ++i) {
    for (int j = 0; j <= 8; ++j) {
      double x = static_cast<double>(i), y = static_cast<double>(j);
      left.push_back(
          Tuple({Value(id++), Value(Polyline({{x, y}, {x, y}}))}));
    }
  }
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      double x = static_cast<double>(i), y = static_cast<double>(j);
      right.push_back(Tuple(
          {Value(id++), Value(Polygon({{x, y}, {x + 1, y}, {x + 1, y + 1},
                                       {x, y + 1}}))}));
    }
  }
  PbsmOptions opts;
  opts.num_partitions = 16;
  opts.cells_per_axis = 8;
  auto pbsm = PbsmSpatialJoin(left, 1, right, 1, ctx, opts);
  ASSERT_TRUE(pbsm.ok());
  auto nl = NestedLoopsJoin(left, right, Overlaps(Col(1), Col(3)), ctx);
  ASSERT_TRUE(nl.ok());
  EXPECT_EQ(JoinKeys(*pbsm, 0, 2), JoinKeys(*nl, 0, 2));
}

/// Ordered (left id, right id) pairs — position-sensitive, unlike JoinKeys.
std::vector<std::pair<int64_t, int64_t>> OrderedKeys(const TupleVec& joined,
                                                     size_t lid, size_t rid) {
  std::vector<std::pair<int64_t, int64_t>> keys;
  for (const Tuple& t : joined) {
    keys.emplace_back(t.at(lid).AsInt(), t.at(rid).AsInt());
  }
  return keys;
}

void ExpectUsageEq(const sim::ResourceUsage& a, const sim::ResourceUsage& b) {
  EXPECT_EQ(a.cpu_ops, b.cpu_ops);  // bit-identical doubles, not near
  EXPECT_EQ(a.disk_seeks, b.disk_seeks);
  EXPECT_EQ(a.disk_bytes_read, b.disk_bytes_read);
  EXPECT_EQ(a.disk_bytes_written, b.disk_bytes_written);
  EXPECT_EQ(a.net_messages, b.net_messages);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.idle_seconds, b.idle_seconds);
}

/// FNV-1a over the ordered (left id, right id) keys: one literal pins the
/// result rows and their order.
uint64_t KeysHash(const std::vector<std::pair<int64_t, int64_t>>& keys) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [l, r] : keys) {
    for (int64_t v : {l, r}) {
      for (int b = 0; b < 8; ++b) {
        h ^= (static_cast<uint64_t>(v) >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

/// A CPU-only ResourceUsage, for pinning a join's modeled charges.
sim::ResourceUsage CpuUsage(double cpu_ops) {
  sim::ResourceUsage u;
  u.cpu_ops = cpu_ops;
  return u;
}

TEST(PbsmTest, DuplicateXminKeepsResultsDeterministicAndCorrect) {
  // Regression for the sweep sort's tie-break: many MBRs share xmin
  // exactly (geometries snapped to a 0.5 lattice), so the sort order of
  // equal keys is decided purely by the (xlo, ordinal) rule. An unstable
  // sort without the ordinal tie would make the emission order — and with
  // it the result order — depend on the sort implementation. Two runs
  // must agree exactly, and both must match nested loops.
  Rng rng(41);
  ExecContext ctx = NullCtx();
  TupleVec left, right;
  for (int i = 0; i < 200; ++i) {
    double x = static_cast<double>(rng.NextInt(-10, 10)) * 0.5;
    double y = static_cast<double>(rng.NextInt(-10, 10)) * 0.5;
    left.push_back(Tuple(
        {Value(int64_t{i}), Value(Polyline({{x, y}, {x + 0.7, y + 0.7}}))}));
    // Right side reuses the same lattice, so cross-side xmin duplicates
    // (and exact coordinate duplicates within each side) are everywhere.
    double rx = static_cast<double>(rng.NextInt(-10, 10)) * 0.5;
    double ry = static_cast<double>(rng.NextInt(-10, 10)) * 0.5;
    right.push_back(
        Tuple({Value(int64_t{i + 100000}),
               Value(Polyline({{rx, ry}, {rx + 0.7, ry - 0.7}}))}));
  }
  PbsmOptions opts;
  opts.num_partitions = 16;
  auto r1 = PbsmSpatialJoin(left, 1, right, 1, ctx, opts);
  auto r2 = PbsmSpatialJoin(left, 1, right, 1, ctx, opts);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(OrderedKeys(*r1, 0, 2), OrderedKeys(*r2, 0, 2));
  auto nl = NestedLoopsJoin(left, right, Overlaps(Col(1), Col(3)), ctx);
  ASSERT_TRUE(nl.ok());
  EXPECT_EQ(JoinKeys(*r1, 0, 2), JoinKeys(*nl, 0, 2));
}

TEST(PbsmTest, ZeroWidthUniverseInflates) {
  // Every geometry is the same single point: the universe has zero width
  // and height, forcing the Inflate(1.0) path; the join must still find
  // all pairs, each exactly once.
  ExecContext ctx = NullCtx();
  TupleVec left, right;
  for (int i = 0; i < 6; ++i) {
    left.push_back(
        Tuple({Value(int64_t{i}), Value(Polyline({{3, 4}, {3, 4}}))}));
    right.push_back(Tuple(
        {Value(int64_t{i + 100}), Value(Polyline({{3, 4}, {3, 4}}))}));
  }
  PbsmOptions opts;
  opts.num_partitions = 8;
  auto pbsm = PbsmSpatialJoin(left, 1, right, 1, ctx, opts);
  ASSERT_TRUE(pbsm.ok());
  EXPECT_EQ(pbsm->size(), 36u);
  EXPECT_EQ(JoinKeys(*pbsm, 0, 2).size(), 36u);

  // One-dimensional degeneracy: all on a vertical segment (zero width,
  // nonzero height) — the same inflation guard covers it.
  TupleVec vleft, vright;
  for (int i = 0; i < 4; ++i) {
    double y = static_cast<double>(i);
    vleft.push_back(Tuple(
        {Value(int64_t{i}), Value(Polyline({{1, y}, {1, y + 1}}))}));
    vright.push_back(Tuple({Value(int64_t{i + 100}),
                            Value(Polyline({{1, y + 0.5}, {1, y + 1.5}}))}));
  }
  auto vres = PbsmSpatialJoin(vleft, 1, vright, 1, ctx, opts);
  ASSERT_TRUE(vres.ok());
  auto vnl = NestedLoopsJoin(vleft, vright, Overlaps(Col(1), Col(3)), ctx);
  ASSERT_TRUE(vnl.ok());
  EXPECT_EQ(JoinKeys(*vres, 0, 2), JoinKeys(*vnl, 0, 2));
}

TEST(PbsmTest, ThreadCountLeavesResultsAndChargesBitIdentical) {
  Rng rng(31);
  TupleVec left = PolygonTuples(&rng, 220, 50, 6);
  TupleVec right = PolylineTuples(&rng, 260, 50);
  PbsmOptions opts;
  opts.num_partitions = 48;

  std::vector<std::pair<int64_t, int64_t>> keys_1;
  sim::ResourceUsage usage_1;
  PbsmJoinStats stats_1;
  for (int threads : {1, 8}) {
    common::ThreadPool pool(threads);
    sim::NodeClock clock;
    PbsmJoinStats stats;
    ExecContext ctx;
    ctx.clock = &clock;
    ctx.pool = &pool;
    ctx.pbsm_stats = &stats;
    auto r = PbsmSpatialJoin(left, 1, right, 1, ctx, opts);
    ASSERT_TRUE(r.ok());
    sim::ResourceUsage usage = clock.EndPhase();
    if (threads == 1) {
      keys_1 = OrderedKeys(*r, 0, 2);
      usage_1 = usage;
      stats_1 = stats;
      EXPECT_EQ(stats.parallel_tasks, 0);
    } else {
      EXPECT_EQ(OrderedKeys(*r, 0, 2), keys_1) << "result order changed";
      ExpectUsageEq(usage, usage_1);
      EXPECT_EQ(stats.partitions, stats_1.partitions);
      EXPECT_EQ(stats.left_items, stats_1.left_items);
      EXPECT_EQ(stats.right_items, stats_1.right_items);
      EXPECT_EQ(stats.max_partition_items, stats_1.max_partition_items);
      EXPECT_EQ(stats.mean_partition_items, stats_1.mean_partition_items);
      // Sweep-kernel counters are summed in partition order at the merge,
      // so they must not move with the schedule either.
      EXPECT_EQ(stats.sweep_pair_compares, stats_1.sweep_pair_compares);
      EXPECT_EQ(stats.sweep_candidates, stats_1.sweep_candidates);
      EXPECT_EQ(stats.exact_tests, stats_1.exact_tests);
      EXPECT_GT(stats.parallel_tasks, 0);
    }
  }
  // Literals recorded before PBSM and the two-layer join shared one
  // partition-join driver: rows, order, charges and every counter but
  // the schedule-dependent parallel_tasks must not move.
  EXPECT_EQ(keys_1.size(), 735u);
  EXPECT_EQ(KeysHash(keys_1), 0xbe74b506ecffb30aull);
  ExpectUsageEq(usage_1, CpuUsage(1423446.7493247746));
  EXPECT_EQ(stats_1, (PbsmJoinStats{.partitions = 48,
                                    .cells_per_axis = 28,
                                    .left_tuples = 220,
                                    .right_tuples = 260,
                                    .left_items = 2207,
                                    .right_items = 1554,
                                    .max_partition_items = 114,
                                    .mean_partition_items = 78.354166666666671,
                                    .nonempty_partitions = 48,
                                    .parallel_tasks = 0,
                                    .sweep_pair_compares = 14359,
                                    .sweep_candidates = 4290,
                                    .exact_tests = 1137,
                                    .dedup_tests = 4290,
                                    .dedup_dropped = 3153,
                                    .replicated_entry_bytes = 118116}));
}

TEST(PbsmTest, BlockHashMapBalancesClusteredDataBetterThanModulo) {
  // Clustered inputs on the grid where a modulo map degenerates (P
  // divides the cell row width, so `cell % P` collapses to `cx % P`): the
  // block-hash map must cut the largest partition.
  Rng rng(37);
  TupleVec left, right;
  for (int i = 0; i < 600; ++i) {
    // Three tight hotspots along x = 10, 11, 12 — a few grid columns.
    double cx = 10.0 + (i % 3);
    double x = cx + rng.NextDouble(-0.4, 0.4);
    double y = rng.NextDouble(-40, 40);
    left.push_back(Tuple({Value(int64_t{i}),
                          Value(Polyline({{x, y}, {x + 0.2, y + 0.2}}))}));
    right.push_back(Tuple({Value(int64_t{i + 100000}),
                           Value(Polyline({{x, y}, {x + 0.2, y + 0.2}}))}));
  }
  // Corner anchors pin the universe to [-50,50]^2 so columns are stable.
  left.push_back(
      Tuple({Value(int64_t{9000}), Value(Polyline({{-50, -50}, {-50, -50}}))}));
  left.push_back(
      Tuple({Value(int64_t{9001}), Value(Polyline({{50, 50}, {50, 50}}))}));

  PbsmOptions opts;
  opts.num_partitions = 32;
  opts.cells_per_axis = 32;
  ExecContext ctx;
  PbsmJoinStats hash_stats;
  ctx.pbsm_stats = &hash_stats;
  ASSERT_TRUE(PbsmSpatialJoin(left, 1, right, 1, ctx, opts).ok());

  // The `cell % P` map's largest partition on this input, recorded before
  // that map was deleted: it piled the three hotspot columns into 4 of the
  // 32 partitions.
  constexpr int64_t kModuloMaxPartitionItems = 1200;
  EXPECT_LT(hash_stats.max_partition_items, kModuloMaxPartitionItems);
  EXPECT_EQ(hash_stats.max_partition_items, 182);
  EXPECT_EQ(hash_stats.nonempty_partitions, 17);
  EXPECT_EQ(hash_stats.left_tuples, 602);
}

class ExpandingCircleTest : public ::testing::TestWithParam<int> {};

TEST_P(ExpandingCircleTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 1);
  ExecContext ctx = NullCtx();
  TupleVec targets = PolylineTuples(&rng, 80, 200);
  auto tree = BuildRTreeOnColumn(targets, 1, ctx);
  double universe_area = 160.0 * 160.0;
  for (int q = 0; q < 25; ++q) {
    Point p{rng.NextDouble(-80, 80), rng.NextDouble(-80, 80)};
    auto match = ExpandingCircleClosest(p, targets, 1, *tree, universe_area,
                                        ctx);
    ASSERT_TRUE(match.ok());
    ASSERT_TRUE(match->found);
    double best = 1e300;
    size_t best_row = 0;
    for (size_t i = 0; i < targets.size(); ++i) {
      double d = targets[i].at(1).AsPolyline()->DistanceTo(p);
      if (d < best) {
        best = d;
        best_row = i;
      }
    }
    EXPECT_NEAR(match->distance, best, 1e-9);
    EXPECT_EQ(match->row, best_row);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpandingCircleTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ExpandingCircleTest, EmptyTargets) {
  ExecContext ctx = NullCtx();
  index::RStarTree tree;
  auto match = ExpandingCircleClosest(Point{0, 0}, {}, 1, tree, 100.0, ctx);
  ASSERT_TRUE(match.ok());
  EXPECT_FALSE(match->found);
}

TEST(ExpandingCircleTest, FarAwayPointFallsBackToScan) {
  // The point is way outside the data's universe: the circle must expand
  // past the bound and the scan fallback must still answer correctly.
  Rng rng(3);
  ExecContext ctx = NullCtx();
  TupleVec targets = PolylineTuples(&rng, 5, 10);
  auto tree = BuildRTreeOnColumn(targets, 1, ctx);
  Point p{5000, 5000};
  auto match = ExpandingCircleClosest(p, targets, 1, *tree, 100.0, ctx);
  ASSERT_TRUE(match.ok());
  ASSERT_TRUE(match->found);
  double best = 1e300;
  for (const Tuple& t : targets) {
    best = std::min(best, t.at(1).AsPolyline()->DistanceTo(p));
  }
  EXPECT_NEAR(match->distance, best, 1e-9);
}

// ---------------------------------------------------------------------------
// Two-layer class mini-join plan vs. the legacy replicate-and-dedup PBSM.

TupleVec ClusteredTuples(Rng* rng, int n, int64_t id_base) {
  // Three tight hotspots plus corner anchors — the shape that makes
  // replicate-and-dedup pay (many entries straddle tile boundaries
  // inside the hotspots).
  TupleVec out;
  for (int i = 0; i < n; ++i) {
    double cx = 10.0 + (i % 3);
    double x = cx + rng->NextDouble(-0.6, 0.6);
    double y = rng->NextDouble(-40, 40);
    out.push_back(Tuple({Value(id_base + i),
                         Value(Polyline({{x, y}, {x + 0.4, y + 0.4}}))}));
  }
  out.push_back(Tuple(
      {Value(id_base + 9000), Value(Polyline({{-50, -50}, {-50, -50}}))}));
  out.push_back(
      Tuple({Value(id_base + 9001), Value(Polyline({{50, 50}, {50, 50}}))}));
  return out;
}

class TwoLayerDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(TwoLayerDifferentialTest, MatchesLegacyWithZeroDedup) {
  int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  // Alternate data shapes across seeds: uniform random and clustered.
  TupleVec left, right;
  if (seed % 2 == 0) {
    left = PolygonTuples(&rng, 160, 40, 5);
    right = PolylineTuples(&rng, 140, 40);
  } else {
    left = ClusteredTuples(&rng, 200, 0);
    right = ClusteredTuples(&rng, 180, 100000);
  }

  ExecContext ctx = NullCtx();
  PbsmJoinStats two_stats;
  ctx.pbsm_stats = &two_stats;
  TwoLayerOptions two;
  two.tiles_per_axis = 16;
  auto twol = TwoLayerSpatialJoin(left, 1, right, 1, ctx, two);
  ASSERT_TRUE(twol.ok());

  ExecContext lctx = NullCtx();
  auto legacy = PbsmSpatialJoin(left, 1, right, 1, lctx);
  ASSERT_TRUE(legacy.ok());
  auto nl = NestedLoopsJoin(left, right, Overlaps(Col(1), Col(3)), lctx);
  ASSERT_TRUE(nl.ok());

  EXPECT_EQ(JoinKeys(*twol, 0, 2), JoinKeys(*legacy, 0, 2));
  EXPECT_EQ(JoinKeys(*twol, 0, 2), JoinKeys(*nl, 0, 2));
  // The plan's whole point: no reference-point duplicate elimination runs.
  EXPECT_EQ(two_stats.dedup_tests, 0);
  EXPECT_EQ(two_stats.dedup_dropped, 0);
  // Every distributed entry is classified; A..D census covers all items.
  EXPECT_EQ(two_stats.class_a_items + two_stats.class_b_items +
                two_stats.class_c_items + two_stats.class_d_items,
            two_stats.left_items + two_stats.right_items);
  EXPECT_GT(two_stats.class_a_items, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoLayerDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(TwoLayerTest, DegenerateInputs) {
  ExecContext ctx = NullCtx();
  // Zero-width universe: every geometry is the same point, forcing the
  // inflation guard; all 36 cross pairs, each exactly once.
  TupleVec left, right;
  for (int i = 0; i < 6; ++i) {
    left.push_back(
        Tuple({Value(int64_t{i}), Value(Polyline({{3, 4}, {3, 4}}))}));
    right.push_back(Tuple(
        {Value(int64_t{i + 100}), Value(Polyline({{3, 4}, {3, 4}}))}));
  }
  PbsmJoinStats stats;
  ctx.pbsm_stats = &stats;
  auto r = TwoLayerSpatialJoin(left, 1, right, 1, ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(JoinKeys(*r, 0, 2).size(), 36u);
  EXPECT_EQ(stats.dedup_tests, 0);
  EXPECT_EQ(stats.dedup_dropped, 0);

  // All-spanning MBRs: one entry per side covers the whole universe (so
  // it lands in every tile, class D almost everywhere) among normal data.
  Rng rng(11);
  TupleVec bl = PolygonTuples(&rng, 40, 30, 4);
  TupleVec br = PolylineTuples(&rng, 40, 30);
  bl.push_back(Tuple({Value(int64_t{777}),
                      Value(Polygon({{-60, -60}, {60, -60}, {60, 60},
                                     {-60, 60}}))}));
  br.push_back(Tuple(
      {Value(int64_t{888}),
       Value(Polyline({{-60, -60}, {60, 60}}))}));
  ExecContext c2 = NullCtx();
  auto twol = TwoLayerSpatialJoin(bl, 1, br, 1, c2);
  ASSERT_TRUE(twol.ok());
  auto nl = NestedLoopsJoin(bl, br, Overlaps(Col(1), Col(3)), c2);
  ASSERT_TRUE(nl.ok());
  EXPECT_EQ(JoinKeys(*twol, 0, 2), JoinKeys(*nl, 0, 2));
}

TEST(TwoLayerTest, CrossSpillPairNeedsBxC) {
  // r spans columns only (begin class B at the intersection tile), s spans
  // rows only (class C there); neither is class A anywhere near the
  // reference point (5,5). A mini-join matrix without B×C / C×B silently
  // drops this pair.
  ExecContext ctx = NullCtx();
  TupleVec left, right;
  left.push_back(
      Tuple({Value(int64_t{1}), Value(Polyline({{0, 5}, {10, 6}}))}));
  right.push_back(
      Tuple({Value(int64_t{2}), Value(Polyline({{5, 0}, {6, 10}}))}));
  TwoLayerOptions two;
  two.tiles_per_axis = 10;
  two.universe = Box{0, 0, 10, 10};
  auto r = TwoLayerSpatialJoin(left, 1, right, 1, ctx, two);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
}

TEST(TwoLayerTest, OwnedTilePartitionsUnionToGlobalResult) {
  // Split the tile grid among three simulated nodes; each node's run sees
  // the full inputs but only sweeps its owned tiles. The per-node results
  // must be disjoint and union to the global (all-tiles) result — the
  // exactly-once guarantee the parallel join relies on.
  Rng rng(17);
  TupleVec left = PolygonTuples(&rng, 150, 40, 5);
  TupleVec right = PolylineTuples(&rng, 130, 40);
  TwoLayerOptions two;
  two.tiles_per_axis = 8;
  two.universe = Box{-50, -50, 50, 50};

  ExecContext ctx = NullCtx();
  auto global = TwoLayerSpatialJoin(left, 1, right, 1, ctx, two);
  ASSERT_TRUE(global.ok());
  auto global_keys = JoinKeys(*global, 0, 2);

  const uint32_t tiles = two.tiles_per_axis * two.tiles_per_axis;
  std::set<std::pair<int64_t, int64_t>> unioned;
  for (int node = 0; node < 3; ++node) {
    std::vector<uint8_t> owned(tiles, 0);
    for (uint32_t t = 0; t < tiles; ++t) owned[t] = (t % 3 == unsigned(node));
    two.owned = &owned;
    auto part = TwoLayerSpatialJoin(left, 1, right, 1, ctx, two);
    ASSERT_TRUE(part.ok());
    for (auto key : JoinKeys(*part, 0, 2)) {
      EXPECT_TRUE(unioned.insert(key).second)
          << "pair emitted by two owners: " << key.first << "," << key.second;
    }
  }
  EXPECT_EQ(unioned, global_keys);
}

TEST(TwoLayerTest, ThreadCountLeavesResultsAndChargesBitIdentical) {
  Rng rng(53);
  TupleVec left = PolygonTuples(&rng, 220, 50, 6);
  TupleVec right = PolylineTuples(&rng, 260, 50);
  TwoLayerOptions two;
  two.tiles_per_axis = 16;
  two.num_tasks = 48;

  std::vector<std::pair<int64_t, int64_t>> keys_1;
  sim::ResourceUsage usage_1;
  PbsmJoinStats stats_1;
  for (int threads : {1, 8}) {
    common::ThreadPool pool(threads);
    sim::NodeClock clock;
    PbsmJoinStats stats;
    ExecContext ctx;
    ctx.clock = &clock;
    ctx.pool = &pool;
    ctx.pbsm_stats = &stats;
    auto r = TwoLayerSpatialJoin(left, 1, right, 1, ctx, two);
    ASSERT_TRUE(r.ok());
    sim::ResourceUsage usage = clock.EndPhase();
    EXPECT_EQ(stats.dedup_tests, 0);
    EXPECT_EQ(stats.dedup_dropped, 0);
    if (threads == 1) {
      keys_1 = OrderedKeys(*r, 0, 2);
      usage_1 = usage;
      stats_1 = stats;
      EXPECT_EQ(stats.parallel_tasks, 0);
    } else {
      EXPECT_EQ(OrderedKeys(*r, 0, 2), keys_1) << "result order changed";
      ExpectUsageEq(usage, usage_1);
      stats_1.parallel_tasks = stats.parallel_tasks;  // the one allowed delta
      EXPECT_EQ(stats, stats_1);
      EXPECT_GT(stats.parallel_tasks, 0);
    }
  }
  // Literals recorded before the shared partition-join driver (see the
  // PBSM twin above).
  EXPECT_EQ(keys_1.size(), 739u);
  EXPECT_EQ(KeysHash(keys_1), 0x74f7077364261bfeull);
  ExpectUsageEq(usage_1, CpuUsage(1101973.3442390841));
  stats_1.parallel_tasks = 0;
  EXPECT_EQ(stats_1, (PbsmJoinStats{.partitions = 48,
                                    .cells_per_axis = 16,
                                    .left_tuples = 220,
                                    .right_tuples = 260,
                                    .left_items = 1159,
                                    .right_items = 894,
                                    .max_partition_items = 59,
                                    .mean_partition_items = 47.744186046511629,
                                    .nonempty_partitions = 43,
                                    .parallel_tasks = 0,
                                    .sweep_pair_compares = 1684,
                                    .sweep_candidates = 1182,
                                    .exact_tests = 1182,
                                    .dedup_tests = 0,
                                    .dedup_dropped = 0,
                                    .class_a_items = 480,
                                    .class_b_items = 511,
                                    .class_c_items = 517,
                                    .class_d_items = 545,
                                    .replicated_entry_bytes = 56628}));
}

TEST(ExpandingCircleTest, ZeroAreaUniverseFallsBackToScan) {
  // A zero-height universe has Area() == 0, and so does an empty one: the
  // start radius sqrt(0) = 0 stays 0 however often the area doubles, so
  // the search must go straight to the full scan instead of spinning. A
  // NaN area gives a NaN radius and must scan as well.
  ExecContext ctx = NullCtx();
  TupleVec targets;
  int64_t id = 0;
  for (const auto& [x0, x1] : {std::pair{0.0, 20.0}, std::pair{30.0, 40.0},
                               std::pair{60.0, 90.0}}) {
    targets.push_back(
        Tuple({Value(id++), Value(Polyline({{x0, 0}, {x1, 0}}))}));
  }
  auto tree = BuildRTreeOnColumn(targets, 1, ctx);
  for (double area : {Box(0, 0, 100, 0).Area(), Box::Empty().Area(),
                      std::numeric_limits<double>::quiet_NaN()}) {
    for (const Point& p : {Point{5, 10}, Point{35, -3}, Point{100, 0}}) {
      auto match = ExpandingCircleClosest(p, targets, 1, *tree, area, ctx);
      ASSERT_TRUE(match.ok());
      ASSERT_TRUE(match->found);
      EXPECT_EQ(match->probes, 0) << "no circle to probe with";
      double best = 1e300;
      size_t best_row = 0;
      for (size_t i = 0; i < targets.size(); ++i) {
        double d = targets[i].at(1).AsPolyline()->DistanceTo(p);
        if (d < best) {
          best = d;
          best_row = i;
        }
      }
      EXPECT_EQ(match->row, best_row);
      EXPECT_EQ(match->distance, best);
    }
  }
}

TEST(ExpandingCircleTest, ProbeCountGrowsWithDistance) {
  Rng rng(4);
  ExecContext ctx = NullCtx();
  TupleVec targets;
  // One cluster of lines near the origin.
  for (int i = 0; i < 50; ++i) {
    double x = rng.NextDouble(-1, 1), y = rng.NextDouble(-1, 1);
    targets.push_back(Tuple({Value(int64_t{i}),
                             Value(Polyline({{x, y}, {x + 0.1, y + 0.1}}))}));
  }
  auto tree = BuildRTreeOnColumn(targets, 1, ctx);
  auto near = ExpandingCircleClosest(Point{0, 0}, targets, 1, *tree, 1e6, ctx);
  auto far = ExpandingCircleClosest(Point{400, 400}, targets, 1, *tree, 1e6,
                                    ctx);
  ASSERT_TRUE(near.ok() && far.ok());
  EXPECT_LT(near->probes, far->probes);
}

}  // namespace
}  // namespace paradise::exec
