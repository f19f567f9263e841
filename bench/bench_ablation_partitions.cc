// Ablation for Section 2.7.1: how the number of spatial partitions (grid
// tiles) trades declustering skew against replication. Few tiles -> bad
// skew (hot nodes); many tiles -> smooth load but more spanning features
// replicated. The paper: "one needs thousands of partitions to smooth out
// the skew to any significant extent".

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/coordinator.h"
#include "core/parallel_ops.h"
#include "core/table.h"
#include "exec/spatial_join.h"

namespace {

using paradise::bench::BenchConfig;
using paradise::catalog::PartitioningKind;
using paradise::catalog::TableDef;
using paradise::core::Cluster;
using paradise::core::ParallelTable;
using paradise::exec::PbsmJoinStats;
using paradise::exec::TupleVec;

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  constexpr int kNodes = 16;
  paradise::datagen::GlobalDataSet ds =
      paradise::datagen::GenerateGlobalDataSet(cfg.MakeOptions(1));

  std::printf(
      "== Ablation: spatial partition count vs skew and replication ==\n"
      "   roads table, %d nodes, %zu tuples (skewed around population "
      "centers)\n\n",
      kNodes, ds.roads.size());
  std::printf("%12s %12s %14s %12s %12s\n", "tiles", "tiles/node",
              "replication", "max/mean", "max node");

  for (uint32_t tiles_per_axis : {2u, 4u, 8u, 16u, 32u, 64u, 100u, 200u}) {
    Cluster cluster(kNodes);
    TableDef def;
    def.name = "roads";
    def.schema = paradise::datagen::RoadsSchema();
    def.partitioning = PartitioningKind::kSpatial;
    def.partition_column = paradise::datagen::col::kLineShape;
    def.universe = ds.universe;
    auto table = ParallelTable::Load(&cluster, def, ds.roads, tiles_per_axis);
    if (!table.ok()) {
      std::fprintf(stderr, "load failed\n");
      return 1;
    }
    int64_t total = (*table)->num_stored();
    int64_t logical = (*table)->num_rows();
    int64_t max_frag = 0;
    for (int n = 0; n < kNodes; ++n) {
      max_frag = std::max(max_frag, (*table)->fragment(n).num_rows());
    }
    double mean_frag = static_cast<double>(total) / kNodes;
    std::printf("%12u %12.1f %13.3fx %12.2f %12lld\n",
                tiles_per_axis * tiles_per_axis,
                static_cast<double>(tiles_per_axis) * tiles_per_axis / kNodes,
                static_cast<double>(total) / static_cast<double>(logical),
                static_cast<double>(max_frag) / mean_frag,
                static_cast<long long>(max_frag));
  }
  std::printf(
      "\nexpected shape: max/mean skew falls toward 1.0 as tiles grow; the "
      "replication factor rises.\n");

  // -- Two-layer declustering vs replicate-and-dedup ------------------------
  // Same clustered datagen, now through the parallel join: the legacy mode
  // replicates per-node PBSM entries across its internal cells and pays a
  // reference-point test per joined tuple; the two-layer class plan
  // assigns each (entry, tile) copy a begin class and runs the nine
  // feasible class pairs per owned tile, so no dedup branch ever runs.
  {
    paradise::datagen::ClusteredDataOptions copt;
    copt.seed = 29;
    copt.count = 30'000;
    copt.num_clusters = 4;
    copt.skew = 0.95;
    TupleVec roads = paradise::datagen::GenerateCoastlineRoads(copt);
    TupleVec points = paradise::datagen::GenerateUrbanPoints(copt);
    const size_t road_col = paradise::datagen::col::kLineShape;
    const size_t point_col = paradise::datagen::col::kPlaceLocation;
    TupleVec corridors;
    corridors.reserve(roads.size());
    for (const auto& t : roads) {
      corridors.push_back(paradise::exec::Tuple(
          {t.at(paradise::datagen::col::kLineId),
           t.at(paradise::datagen::col::kLineType),
           paradise::exec::Value(t.at(road_col).Mbr())}));
    }
    paradise::geom::Box universe = paradise::geom::Box::Empty();
    for (const auto& t : corridors) {
      universe = universe.Union(t.at(road_col).Mbr());
    }
    for (const auto& t : points) {
      universe = universe.Union(t.at(point_col).Mbr());
    }

    std::printf(
        "\n== Two-layer declustering vs replicate-and-dedup (clustered "
        "datagen, %zu points x %zu corridors, %d nodes, 32x32 tiles) ==\n\n",
        points.size(), corridors.size(), kNodes);
    std::printf("%12s %12s %12s %14s %12s %12s %12s %10s\n", "mode",
                "dedup tests", "dedup drops", "repl bytes", "sweep pairs",
                "modeled (s)", "wall8 (s)", "rows");

    uint64_t fp_expected = 0;
    size_t rows_expected = 0;
    double legacy_wall = 0.0, two_wall = 0.0;
    int64_t legacy_repl = 0, two_repl = 0;
    PbsmJoinStats two_stats;
    for (bool two_layer : {false, true}) {
      double modeled = 0.0, wall = 1e300;
      size_t rows = 0;
      uint64_t fp = 0;
      PbsmJoinStats stats;
      for (int rep = 0; rep < 3; ++rep) {
        Cluster cluster(kNodes);
        cluster.SetNumThreads(8);
        paradise::core::QueryCoordinator coord(&cluster);
        if (!coord.BeginQuery().ok()) {
          std::fprintf(stderr, "begin query failed\n");
          return 1;
        }
        paradise::core::PerNode lper(kNodes), rper(kNodes);
        for (size_t i = 0; i < points.size(); ++i) {
          lper[i % kNodes].push_back(points[i]);
        }
        for (size_t i = 0; i < corridors.size(); ++i) {
          rper[i % kNodes].push_back(corridors[i]);
        }
        paradise::core::ParallelSpatialJoinOptions jopts;
        jopts.tiles_per_axis = 32;
        jopts.two_layer = two_layer;
        auto t0 = std::chrono::steady_clock::now();
        auto joined = paradise::core::ParallelSpatialJoin(
            &coord, lper, point_col, rper, road_col, universe, jopts);
        auto t1 = std::chrono::steady_clock::now();
        if (!joined.ok()) {
          std::fprintf(stderr, "two-layer ablation join failed\n");
          return 1;
        }
        wall = std::min(wall, std::chrono::duration<double>(t1 - t0).count());
        coord.EndQuery();
        modeled = coord.query_seconds();
        stats = coord.pbsm_stats();
        // Order-independent fingerprint of the (left id, right id) pairs.
        const size_t left_width = points.empty() ? 0 : points[0].size();
        rows = 0;
        fp = 0;
        for (const auto& v : *joined) {
          rows += v.size();
          for (const auto& t : v) {
            uint64_t h = 1469598103934665603ull;
            auto mix = [&h](const std::string& s) {
              for (char c : s) {
                h ^= static_cast<uint8_t>(c);
                h *= 1099511628211ull;
              }
              h ^= '|';
              h *= 1099511628211ull;
            };
            mix(t.at(paradise::datagen::col::kPlaceId).ToString());
            mix(t.at(left_width + paradise::datagen::col::kLineId).ToString());
            fp += h;  // commutative fold: placement-order independent
          }
        }
      }
      if (!two_layer) {
        fp_expected = fp;
        rows_expected = rows;
        legacy_wall = wall;
        legacy_repl = stats.replicated_entry_bytes;
      } else {
        two_wall = wall;
        two_repl = stats.replicated_entry_bytes;
        two_stats = stats;
        if (fp != fp_expected || rows != rows_expected) {
          std::fprintf(stderr, "two-layer changed the join result!\n");
          return 1;
        }
      }
      std::printf("%12s %12lld %12lld %14lld %12lld %12.4f %12.4f %10zu\n",
                  two_layer ? "two-layer" : "legacy",
                  static_cast<long long>(stats.dedup_tests),
                  static_cast<long long>(stats.dedup_dropped),
                  static_cast<long long>(stats.replicated_entry_bytes),
                  static_cast<long long>(stats.sweep_pair_compares), modeled,
                  wall, rows);
    }
    std::printf(
        "\nclass census (two-layer copies): A=%lld B=%lld C=%lld D=%lld\n",
        static_cast<long long>(two_stats.class_a_items),
        static_cast<long long>(two_stats.class_b_items),
        static_cast<long long>(two_stats.class_c_items),
        static_cast<long long>(two_stats.class_d_items));
    std::printf(
        "expected shape: identical rows and fingerprints; two-layer's dedup "
        "tests/drops are exactly 0 and its replication bytes undercut "
        "legacy's (%.2fx) with wall clock no worse (legacy %.4fs vs "
        "two-layer %.4fs). Legacy drops are 0 on this shape because a "
        "zero-extent point lands in exactly one cell/tile/node and never "
        "replicates — legacy still pays one reference-point test per "
        "candidate; extended-x-extended joins would drop as well.\n",
        two_repl == 0 ? 0.0
                      : static_cast<double>(legacy_repl) /
                            static_cast<double>(two_repl),
        legacy_wall, two_wall);

    // Probe shipping for the index nested-loops variant: a broadcast sends
    // every outer tuple to all nodes; a two-layer inner lets the planner
    // multicast each probe to just the nodes its MBR overlaps.
    paradise::core::SpatialGrid grid(universe, 32, kNodes);
    Cluster cluster(kNodes);
    paradise::core::QueryCoordinator coord(&cluster);
    if (!coord.BeginQuery().ok()) return 1;
    paradise::core::PerNode outer(kNodes);
    for (size_t i = 0; i < points.size() && i < 2000; ++i) {
      outer[i % kNodes].push_back(points[i]);
    }
    auto net_charge = [&]() {
      int64_t bytes = 0;
      for (int n = 0; n < kNodes; ++n) {
        bytes += cluster.node(n).clock()->total_usage().net_bytes;
      }
      return bytes;
    };
    const int64_t before_bcast = net_charge();
    if (!paradise::core::Broadcast(&coord, outer).ok()) return 1;
    const int64_t bcast_bytes = net_charge() - before_bcast;
    const int64_t before_mcast = net_charge();
    auto mcast = paradise::core::Redistribute(
        &coord, outer,
        [&](const paradise::exec::Tuple& t, std::vector<uint32_t>* dest) {
          *dest = grid.NodesOfBox(t.at(point_col).Mbr());
        });
    if (!mcast.ok()) return 1;
    const int64_t mcast_bytes = net_charge() - before_mcast;
    coord.EndQuery();
    std::printf(
        "\nprobe shipping, %d-node INL outer: broadcast %lld net bytes vs "
        "targeted multicast %lld (%.1fx less network charge).\n",
        kNodes, static_cast<long long>(bcast_bytes),
        static_cast<long long>(mcast_bytes),
        mcast_bytes == 0 ? 0.0
                         : static_cast<double>(bcast_bytes) /
                               static_cast<double>(mcast_bytes));
  }
  return 0;
}
