// The optimizer's tile packer (opt::PackTileGroups, the two-layer join's
// load-aware task grouping) and the PBSM partition-shape counters:
// PbsmJoinStats population and the coordinator's aggregation of per-node
// sinks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/cluster.h"
#include "core/coordinator.h"
#include "core/parallel_ops.h"
#include "datagen/datagen.h"
#include "exec/spatial_join.h"
#include "geom/box.h"
#include "opt/partition_tuner.h"

namespace paradise {
namespace {

using core::Cluster;
using core::ParallelSpatialJoin;
using core::ParallelSpatialJoinOptions;
using core::PerNode;
using core::QueryCoordinator;
using exec::ExecContext;
using exec::PbsmJoinStats;
using exec::Tuple;
using exec::TupleVec;
using exec::Value;
using geom::Box;
using opt::PackTileGroups;

#define ASSERT_OK(expr)                    \
  do {                                     \
    Status _s = (expr);                    \
    ASSERT_TRUE(_s.ok()) << _s.ToString(); \
  } while (0)

Cluster::Options SmallClusterOptions() {
  Cluster::Options o;
  o.buffer_pool_frames = 512;
  return o;
}

/// Urban point clusters and coastline-road corridor boxes. Corridors are
/// road MBRs so the exact box-contains-point predicate has real hits.
struct ClusteredJoinInput {
  TupleVec points;     // PlacesSchema; shape at col kPlaceLocation
  TupleVec corridors;  // (id, type, box); shape at col 2
  Box universe = Box::Empty();
};

ClusteredJoinInput MakeClusteredInput(uint64_t seed, int64_t count) {
  datagen::ClusteredDataOptions copt;
  copt.seed = seed;
  copt.count = count;
  copt.num_clusters = 4;
  copt.skew = 0.95;
  ClusteredJoinInput in;
  in.points = datagen::GenerateUrbanPoints(copt);
  for (const Tuple& t : datagen::GenerateCoastlineRoads(copt)) {
    in.corridors.push_back(
        Tuple({t.at(datagen::col::kLineId), t.at(datagen::col::kLineType),
               Value(t.at(datagen::col::kLineShape).Mbr())}));
  }
  for (const Tuple& t : in.points) {
    in.universe =
        in.universe.Union(t.at(datagen::col::kPlaceLocation).Mbr());
  }
  for (const Tuple& t : in.corridors) {
    in.universe = in.universe.Union(t.at(2).Mbr());
  }
  return in;
}

/// Summed load per group of a packing.
std::vector<int64_t> GroupLoads(const std::vector<int64_t>& loads,
                                const std::vector<uint32_t>& group,
                                size_t num_groups) {
  std::vector<int64_t> out(num_groups, 0);
  for (size_t t = 0; t < loads.size(); ++t) out[group[t]] += loads[t];
  return out;
}

// ---------- Tile packer ----------

TEST(PackTileGroupsTest, IdsInRangeAndDeterministic) {
  Rng rng(7);
  for (size_t num_groups : {2u, 3u, 8u, 32u}) {
    std::vector<int64_t> loads(50);
    for (int64_t& l : loads) l = rng.NextInt(0, 40);  // many ties
    const std::vector<uint32_t> group = PackTileGroups(loads, num_groups);
    ASSERT_EQ(group.size(), loads.size());
    for (uint32_t g : group) EXPECT_LT(g, num_groups);
    EXPECT_EQ(PackTileGroups(loads, num_groups), group)
        << "same input, same packing";
  }
}

TEST(PackTileGroupsTest, HeaviestFirstTiesToLowerTileThenLowestGroup) {
  // Order: tile 1 (7), tile 4 (7), tile 0 (5), tile 2 (5), tile 3 (2).
  // Tile 1 takes group 0; tile 4 the lowest empty group, 1; tile 0 group
  // 2; tile 2 the least-loaded group, 2 (5 < 7); tile 3 ties groups 0 and
  // 1 at 7 and takes the lower, 0.
  EXPECT_EQ(PackTileGroups({5, 7, 5, 2, 7}, 3),
            std::vector<uint32_t>({2, 0, 2, 0, 1}));
}

TEST(PackTileGroupsTest, SingleGroupOrEmptyLoadsUseGroupZero) {
  const std::vector<int64_t> loads = {4, 9, 1};
  EXPECT_EQ(PackTileGroups(loads, 0), std::vector<uint32_t>(3, 0));
  EXPECT_EQ(PackTileGroups(loads, 1), std::vector<uint32_t>(3, 0));
  EXPECT_TRUE(PackTileGroups({}, 4).empty());
}

TEST(PackTileGroupsTest, MoreGroupsThanTilesGivesEachLoadedTileItsOwnGroup) {
  const std::vector<int64_t> loads = {3, 8, 1, 5};
  const std::vector<uint32_t> group = PackTileGroups(loads, 6);
  EXPECT_EQ(group, std::vector<uint32_t>({2, 0, 3, 1}));
  EXPECT_EQ(std::set<uint32_t>(group.begin(), group.end()).size(),
            loads.size());
}

TEST(PackTileGroupsTest, MaxGroupLoadWithinMeanPlusLargestTile) {
  // The longest-processing-time bound: the fullest group was the least
  // loaded when it took its last tile, so it ends at most one tile above
  // the mean. Checked in integers as max * G <= total + G * largest.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    Rng rng(seed);
    const size_t num_tiles = static_cast<size_t>(rng.NextInt(1, 300));
    const size_t num_groups = static_cast<size_t>(rng.NextInt(2, 40));
    std::vector<int64_t> loads(num_tiles);
    for (int64_t& l : loads) {
      // Mostly light tiles with an occasional hotspot.
      l = rng.NextBool(0.05) ? rng.NextInt(500, 5000) : rng.NextInt(0, 100);
    }
    const std::vector<int64_t> group_loads =
        GroupLoads(loads, PackTileGroups(loads, num_groups), num_groups);
    int64_t total = 0, largest = 0;
    for (int64_t l : loads) {
      total += l;
      largest = std::max(largest, l);
    }
    const int64_t max_group =
        *std::max_element(group_loads.begin(), group_loads.end());
    const int64_t G = static_cast<int64_t>(num_groups);
    EXPECT_LE(max_group * G, total + G * largest)
        << "seed " << seed << ": " << num_tiles << " tiles, " << num_groups
        << " groups";
  }
}

// ---------- PbsmJoinStats population regressions ----------

TEST(PbsmStatsRegressionTest, EmptyInputClearsAReusedSink) {
  ClusteredJoinInput in = MakeClusteredInput(3, 500);
  ExecContext ctx;
  PbsmJoinStats stats;
  ctx.pbsm_stats = &stats;
  auto r1 = exec::PbsmSpatialJoin(in.points, datagen::col::kPlaceLocation,
                                  in.corridors, 2, ctx, {});
  ASSERT_TRUE(r1.ok());
  ASSERT_GT(stats.left_items, 0);
  ASSERT_GT(stats.mean_partition_items, 0.0);

  // The next query's empty input must not leak the previous join's
  // partition/replication/sweep counters into its report.
  auto r2 = exec::PbsmSpatialJoin(TupleVec{}, 0, in.corridors, 2, ctx, {});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->empty());
  EXPECT_EQ(stats, PbsmJoinStats{});
}

TEST(PbsmStatsRegressionTest, SinglePartitionJoinPopulatesLoadStats) {
  ClusteredJoinInput in = MakeClusteredInput(3, 500);
  ExecContext ctx;
  PbsmJoinStats stats;
  ctx.pbsm_stats = &stats;
  exec::PbsmOptions popts;
  popts.num_partitions = 1;
  popts.cells_per_axis = 1;
  auto r = exec::PbsmSpatialJoin(in.points, datagen::col::kPlaceLocation,
                                 in.corridors, 2, ctx, popts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.partitions, 1u);
  EXPECT_EQ(stats.nonempty_partitions, 1);
  EXPECT_EQ(stats.left_items, static_cast<int64_t>(in.points.size()));
  EXPECT_EQ(stats.right_items, static_cast<int64_t>(in.corridors.size()));
  EXPECT_EQ(stats.max_partition_items, stats.left_items + stats.right_items);
  EXPECT_DOUBLE_EQ(stats.mean_partition_items,
                   static_cast<double>(stats.max_partition_items));
}

// ---------- Coordinator PbsmJoinStats aggregation ----------

TEST(PbsmStatsAggregationTest, CoordinatorAggregatesAllNodeSinks) {
  constexpr int kNodes = 3;
  ClusteredJoinInput in = MakeClusteredInput(5, 2000);
  Cluster cluster(kNodes, SmallClusterOptions());
  cluster.SetNumThreads(1);
  PerNode lper(kNodes), rper(kNodes);
  for (size_t i = 0; i < in.points.size(); ++i) {
    lper[i % kNodes].push_back(in.points[i]);
  }
  for (size_t i = 0; i < in.corridors.size(); ++i) {
    rper[i % kNodes].push_back(in.corridors[i]);
  }
  QueryCoordinator coord(&cluster);
  ASSERT_OK(coord.BeginQuery());
  ParallelSpatialJoinOptions opts;
  auto r = ParallelSpatialJoin(&coord, lper, datagen::col::kPlaceLocation,
                               rper, 2, in.universe, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Regression for the aggregation defect: the report must fold every
  // node's sink — sums over nodes for cardinalities, max for the
  // partition peak, and the mean recomputed over non-empty partitions
  // (not copied from one node, not divided by total P).
  PbsmJoinStats agg = coord.pbsm_stats();
  int64_t left_items = 0, right_items = 0, nonempty = 0, max_items = 0;
  int nodes_with_work = 0;
  for (int n = 0; n < kNodes; ++n) {
    const PbsmJoinStats& s = *coord.node_pbsm_stats(n);
    if (s.partitions > 0) ++nodes_with_work;
    left_items += s.left_items;
    right_items += s.right_items;
    nonempty += s.nonempty_partitions;
    max_items = std::max(max_items, s.max_partition_items);
  }
  EXPECT_GT(nodes_with_work, 1) << "join should have run on several nodes";
  EXPECT_EQ(agg.left_items, left_items);
  EXPECT_EQ(agg.right_items, right_items);
  EXPECT_EQ(agg.nonempty_partitions, nonempty);
  EXPECT_EQ(agg.max_partition_items, max_items);
  ASSERT_GT(nonempty, 0);
  EXPECT_DOUBLE_EQ(agg.mean_partition_items,
                   static_cast<double>(left_items + right_items) /
                       static_cast<double>(nonempty));
}

}  // namespace
}  // namespace paradise
