#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/database.h"
#include "benchmark/queries.h"
#include "common/thread_pool.h"
#include "core/cluster.h"
#include "core/coordinator.h"
#include "core/parallel_ops.h"
#include "core/table.h"
#include "core/topology.h"
#include "datagen/datagen.h"
#include "index/b_plus_tree.h"
#include "sim/cost_model.h"
#include "storage/page.h"

namespace paradise {
namespace {

using catalog::PartitioningKind;
using catalog::TableDef;
using core::Cluster;
using core::ParallelTable;
using core::PerNode;
using core::QueryCoordinator;
using exec::Tuple;
using exec::TupleVec;
using exec::Value;
using exec::ValueType;
using geom::Box;
using geom::Point;
using geom::Polygon;

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  common::ThreadPool pool(4);
  std::vector<int> hits(100, 0);  // distinct slots: no two tasks share one
  pool.ParallelFor(100, [&](int i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, SingleThreadRunsInlineInIndexOrder) {
  common::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> order;
  pool.ParallelFor(10, [&](int i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  common::ThreadPool pool(3);
  std::vector<int> hits(7, 0);
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(7, [&](int i) { ++hits[i]; });
  }
  for (int h : hits) EXPECT_EQ(h, 50);
}

TEST(ThreadPoolTest, MoreThreadsThanWork) {
  common::ThreadPool pool(8);
  std::vector<int> hits(2, 0);
  pool.ParallelFor(2, [&](int i) { ++hits[i]; });
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 1);
}

TEST(ThreadPoolTest, EmptyBatchIsANoOp) {
  common::ThreadPool pool(2);
  pool.ParallelFor(0, [&](int) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, WorkerExceptionRethrownAtBarrier) {
  common::ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(16,
                                [&](int i) {
                                  if (i == 7) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives a throwing batch and runs later batches normally.
  std::vector<int> hits(8, 0);
  pool.ParallelFor(8, [&](int i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, InlineExceptionRethrownWithSingleThread) {
  common::ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(4,
                                [&](int i) {
                                  if (i == 2) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  std::vector<int> hits(4, 0);
  pool.ParallelFor(4, [&](int i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  // An outer task may itself ParallelFor on the same pool (a RunPhase
  // closure running a partition-parallel join). The caller of the inner
  // batch drives it to completion itself, so this must not deadlock even
  // when every worker is busy with outer tasks.
  common::ThreadPool pool(4);
  std::vector<std::vector<int>> hits(6, std::vector<int>(10, 0));
  pool.ParallelFor(6, [&](int outer) {
    pool.ParallelFor(10, [&](int inner) { ++hits[outer][inner]; });
  });
  for (const auto& row : hits) {
    for (int h : row) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, NestedExceptionStaysInItsBatch) {
  common::ThreadPool pool(3);
  std::atomic<int> outer_done{0};
  EXPECT_THROW(
      pool.ParallelFor(4,
                       [&](int outer) {
                         pool.ParallelFor(4, [&](int inner) {
                           if (outer == 2 && inner == 3) {
                             throw std::runtime_error("inner boom");
                           }
                         });
                         ++outer_done;
                       }),
      std::runtime_error);
  // Only the one outer task whose inner batch threw is cut short.
  EXPECT_EQ(outer_done.load(), 3);
  std::vector<int> hits(5, 0);
  pool.ParallelFor(5, [&](int i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, DefaultThreadCountRespectsEnv) {
  ::setenv("PARADISE_THREADS", "3", 1);
  EXPECT_EQ(common::ThreadPool::DefaultNumThreads(), 3);
  ::setenv("PARADISE_THREADS", "0", 1);  // invalid: fall back to hardware
  EXPECT_GE(common::ThreadPool::DefaultNumThreads(), 1);
  ::unsetenv("PARADISE_THREADS");
  EXPECT_GE(common::ThreadPool::DefaultNumThreads(), 1);
}

// ---------- Determinism of the phase-parallel executor ----------
//
// The per-node virtual clocks are the only time source, and the phase
// contract confines every closure to its own node's state, so the modeled
// query time and the delivered rows must be bit-identical no matter how
// many worker threads execute the phases.

benchmark::LoadOptions TinyLoadOptions() {
  benchmark::LoadOptions lopts;
  lopts.tiles_per_axis = 20;
  return lopts;
}

datagen::DataSetOptions TinyDataOptions() {
  datagen::DataSetOptions o;
  o.size_fraction = 1.0 / 1000;
  o.num_dates = 8;
  o.base_raster_size = 96;
  return o;
}

struct LoadedDb {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<benchmark::BenchmarkDatabase> db;
};

LoadedDb LoadTinyDb(int nodes, int num_threads,
                    bool two_layer_vectors = false) {
  LoadedDb out;
  Cluster::Options copts;
  copts.buffer_pool_frames = 2048;
  out.cluster = std::make_unique<Cluster>(nodes, copts);
  out.cluster->SetNumThreads(num_threads);
  datagen::GlobalDataSet ds = datagen::GenerateGlobalDataSet(TinyDataOptions());
  benchmark::LoadOptions lopts = TinyLoadOptions();
  lopts.two_layer_vectors = two_layer_vectors;
  auto db = benchmark::BenchmarkDatabase::Load(out.cluster.get(), ds, lopts);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  out.db = std::move(*db);
  return out;
}

/// Order-preserving exact rendering of a result set. Doubles print with 17
/// significant digits (round-trip exact); rasters by their dimensions.
std::vector<std::string> RenderRows(const TupleVec& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) {
    std::string s;
    for (const Value& v : t.values) {
      switch (v.type()) {
        case ValueType::kRaster: {
          char buf[64];
          std::snprintf(buf, sizeof(buf), "raster[%ux%u]",
                        v.AsRaster()->height(), v.AsRaster()->width());
          s += buf;
          break;
        }
        case ValueType::kDouble: {
          char buf[40];
          std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
          s += buf;
          break;
        }
        default:
          s += v.ToString();
      }
      s += "|";
    }
    out.push_back(std::move(s));
  }
  return out;
}

class ThreadCountDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCountDeterminismTest, ModeledTimeAndRowsBitIdentical) {
  const int query = GetParam();
  LoadedDb serial = LoadTinyDb(4, /*num_threads=*/1);
  LoadedDb threaded = LoadTinyDb(4, /*num_threads=*/8);
  auto r1 = benchmark::RunQueryByNumber(serial.db.get(), query);
  auto r8 = benchmark::RunQueryByNumber(threaded.db.get(), query);
  ASSERT_TRUE(r1.ok()) << "1-thread: " << r1.status().ToString();
  ASSERT_TRUE(r8.ok()) << "8-thread: " << r8.status().ToString();
  // Bit-identical modeled time, per phase and in total.
  EXPECT_EQ(r1->seconds, r8->seconds) << "query " << query;
  ASSERT_EQ(r1->phases.size(), r8->phases.size());
  for (size_t p = 0; p < r1->phases.size(); ++p) {
    EXPECT_EQ(r1->phases[p].name, r8->phases[p].name);
    EXPECT_EQ(r1->phases[p].seconds, r8->phases[p].seconds)
        << "query " << query << " phase " << r1->phases[p].name;
    EXPECT_EQ(r1->phases[p].max_node_seconds, r8->phases[p].max_node_seconds);
    EXPECT_EQ(r1->phases[p].total_node_seconds,
              r8->phases[p].total_node_seconds);
  }
  // Identical tuples in identical order.
  EXPECT_EQ(RenderRows(r1->rows), RenderRows(r8->rows)) << "query " << query;
  // Identical buffer-pool traffic per node: the thread count must not
  // change what the query reads, prefetches, evicts, or writes back.
  for (int n = 0; n < serial.cluster->num_nodes(); ++n) {
    storage::BufferPool::Stats s1 = serial.cluster->node(n).pool()->stats();
    storage::BufferPool::Stats s8 = threaded.cluster->node(n).pool()->stats();
    EXPECT_EQ(s1.hits, s8.hits) << "query " << query << " node " << n;
    EXPECT_EQ(s1.misses, s8.misses) << "query " << query << " node " << n;
    EXPECT_EQ(s1.evictions, s8.evictions) << "query " << query << " node " << n;
    EXPECT_EQ(s1.dirty_writebacks, s8.dirty_writebacks)
        << "query " << query << " node " << n;
    EXPECT_EQ(s1.readahead_batches, s8.readahead_batches)
        << "query " << query << " node " << n;
    EXPECT_EQ(s1.readahead_pages, s8.readahead_pages)
        << "query " << query << " node " << n;
    EXPECT_EQ(s1.writeback_runs, s8.writeback_runs)
        << "query " << query << " node " << n;
    EXPECT_EQ(s1.writeback_pages, s8.writeback_pages)
        << "query " << query << " node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Queries, ThreadCountDeterminismTest,
                         ::testing::Values(2, 5, 8, 11, 12, 13));

// Query 8 returns no rows on the tiny database, so the instance above
// compares empty results. This join probes landCover with a box around
// every place and does return rows, through the kSpatial broadcast and
// the kTwoLayer multicast alike.
struct IndexJoinRun {
  std::vector<std::string> rows;
  double seconds = 0.0;
};

IndexJoinRun JoinPlacesIntoLandCover(LoadedDb* loaded) {
  benchmark::BenchmarkDatabase* db = loaded->db.get();
  QueryCoordinator coord(loaded->cluster.get());
  EXPECT_TRUE(coord.BeginQuery().ok());
  auto places = core::ParallelScan(&coord, db->places(), nullptr, {});
  EXPECT_TRUE(places.ok()) << places.status().ToString();
  if (!places.ok()) return {};
  auto joined = core::ParallelIndexSpatialJoin(
      &coord, *places, db->land_cover(), datagen::col::kLcShape,
      [](const Tuple& place) {
        return Value(Box::MakeBox(
            place.at(datagen::col::kPlaceLocation).AsPoint(), 20.0));
      },
      [](const Tuple& place, const Tuple& lc) {
        return Tuple({place.at(datagen::col::kPlaceId),
                      lc.at(datagen::col::kLcId),
                      lc.at(datagen::col::kLcType)});
      });
  EXPECT_TRUE(joined.ok()) << joined.status().ToString();
  if (!joined.ok()) return {};
  auto rows = core::Gather(&coord, std::move(joined).value());
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (!rows.ok()) return {};
  IndexJoinRun run;
  run.rows = RenderRows(*rows);
  run.seconds = coord.query_seconds();
  coord.EndQuery();
  return run;
}

IndexJoinRun RunPlacesIntoLandCover(bool two_layer_vectors, int num_threads) {
  LoadedDb loaded = LoadTinyDb(4, num_threads, two_layer_vectors);
  return JoinPlacesIntoLandCover(&loaded);
}

TEST(IndexSpatialJoinDeterminismTest, NonEmptyJoinBitIdenticalAt1And8Threads) {
  std::vector<std::string> spatial_rows;
  for (bool two_layer : {false, true}) {
    SCOPED_TRACE(two_layer ? "two_layer_vectors" : "default load");
    const IndexJoinRun r1 = RunPlacesIntoLandCover(two_layer, 1);
    const IndexJoinRun r8 = RunPlacesIntoLandCover(two_layer, 8);
    EXPECT_GT(r1.rows.size(), 0u);
    EXPECT_EQ(r1.rows, r8.rows);  // same rows in the same order
    EXPECT_EQ(r1.seconds, r8.seconds);
    EXPECT_GT(r1.seconds, 0.0);
    // Both routings find the same pairs, kept at different nodes.
    std::vector<std::string> sorted = r1.rows;
    std::sort(sorted.begin(), sorted.end());
    if (two_layer) {
      EXPECT_EQ(sorted, spatial_rows);
    } else {
      spatial_rows = std::move(sorted);
    }
  }
}

// An index never forgets a row: migration GC tombstones a row in
// Fragment::live and leaves its R*-tree entries. A rolling restart drops a
// node's copies when its tiles leave and stores new copies when they come
// back, so the old entries match the probes again. The join must keep only
// live rows, on either load.
TEST(IndexSpatialJoinChurnTest, RollingRestartOfEveryNodeKeepsRows) {
  for (bool two_layer : {false, true}) {
    SCOPED_TRACE(two_layer ? "two_layer_vectors" : "default load");
    LoadedDb loaded = LoadTinyDb(4, /*num_threads=*/1, two_layer);
    core::TopologyManager* topo = loaded.cluster->topology();
    benchmark::BenchmarkDatabase* db = loaded.db.get();
    std::vector<std::string> before = JoinPlacesIntoLandCover(&loaded).rows;
    std::sort(before.begin(), before.end());
    ASSERT_EQ(before.size(), 4112u);
    for (int n = 0; n < 4; ++n) {
      SCOPED_TRACE("rolling restart of node " + std::to_string(n));
      topo->DrainNode(n);
      ASSERT_TRUE(topo->DrainMigration(0.0).ok());
      ASSERT_TRUE(topo->PumpMigration(0.0).ok());  // runs the deferred GC
      topo->RemoveNode(n);
      topo->ReinstateNode(n);
      ASSERT_TRUE(topo->DrainMigration(0.0).ok());
      std::vector<std::string> after = JoinPlacesIntoLandCover(&loaded).rows;
      std::sort(after.begin(), after.end());
      EXPECT_EQ(after, before);
      for (ParallelTable* t : {&db->places(), &db->roads(), &db->drainage(),
                               &db->land_cover(), &db->raster()}) {
        Status st = t->ValidateOwnership(loaded.cluster.get());
        EXPECT_TRUE(st.ok()) << t->def().name << ": " << st.ToString();
      }
    }
  }
}

// ---------- StoreResult round-robin placement ----------

TableDef PolyDef(const std::string& name) {
  TableDef def;
  def.name = name;
  def.schema = exec::Schema(
      {{"id", ValueType::kInt}, {"shape", ValueType::kPolygon}});
  def.partitioning = PartitioningKind::kRoundRobin;
  def.partition_column = 1;
  return def;
}

Tuple PolyTuple(int64_t id, double cx, double cy, double r) {
  std::vector<Point> ring = {Point{cx - r, cy - r}, Point{cx + r, cy - r},
                             Point{cx + r, cy + r}, Point{cx - r, cy + r}};
  return Tuple({Value(id), Value(Polygon(std::move(ring)))});
}

TEST(StoreResultTest, SkewedInputBalancesWithinOneAndChargesTransfer) {
  Cluster::Options copts;
  copts.buffer_pool_frames = 512;
  Cluster cluster(4, copts);
  QueryCoordinator coord(&cluster);
  EXPECT_TRUE(coord.BeginQuery().ok());
  // Heavily skewed input: 13 tuples on node 0, 5 on node 2, none elsewhere
  // (the shape a selective spatial predicate produces).
  PerNode input(4);
  int64_t id = 0;
  for (int i = 0; i < 13; ++i) input[0].push_back(PolyTuple(id++, i, 0, 0.4));
  for (int i = 0; i < 5; ++i) input[2].push_back(PolyTuple(id++, i, 5, 0.4));
  auto stored = core::StoreResult(&coord, input, PolyDef("balanced"));
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ((*stored)->num_rows(), 18);
  // Round-robin over the flattened result: fragment cardinalities within 1.
  int64_t min_rows = std::numeric_limits<int64_t>::max(), max_rows = 0;
  for (int n = 0; n < 4; ++n) {
    int64_t rows = (*stored)->fragment(n).num_rows();
    min_rows = std::min(min_rows, rows);
    max_rows = std::max(max_rows, rows);
  }
  EXPECT_LE(max_rows - min_rows, 1) << "min " << min_rows << " max "
                                    << max_rows;
  EXPECT_GE(min_rows, 4);
  // Tuples left their origin nodes, so transfers were charged.
  int64_t net_bytes = 0;
  for (int n = 0; n < 4; ++n) {
    net_bytes += cluster.node(n).clock()->total_usage().net_bytes;
  }
  EXPECT_GT(net_bytes, 0);
  // Nothing lost or duplicated.
  std::multiset<int64_t> seen;
  for (int n = 0; n < 4; ++n) {
    auto frag = (*stored)->ScanFragment(&cluster, n, true);
    ASSERT_TRUE(frag.ok());
    for (const Tuple& t : *frag) seen.insert(t.at(0).AsInt());
  }
  EXPECT_EQ(seen.size(), 18u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 17);
}

// ---------- Cost-charge regressions ----------

TEST(IndexRangeChargeTest, EmptyRangeChargesProbeOnly) {
  Cluster::Options copts;
  copts.buffer_pool_frames = 512;
  Cluster cluster(1, copts);
  TupleVec rows;
  for (int64_t i = 0; i < 200; ++i) rows.push_back(PolyTuple(i, i, 0, 0.4));
  TableDef def = PolyDef("indexed");
  def.indexes = {catalog::IndexDef{"id_idx", 0, /*spatial=*/false}};
  auto table = ParallelTable::Load(&cluster, def, rows);
  ASSERT_TRUE(table.ok());
  QueryCoordinator coord(&cluster);
  EXPECT_TRUE(coord.BeginQuery().ok());
  auto out = core::ParallelIndexSelectIntRange(&coord, **table, 0, 1000, 2000);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE((*out)[0].empty());
  // An empty range pays the B+-tree descent and not a single leaf or heap
  // page beyond it.
  auto it = (*table)->fragment(0).int_indexes.find(0);
  ASSERT_NE(it, (*table)->fragment(0).int_indexes.end());
  const int64_t height = static_cast<int64_t>(it->second.height());
  const sim::ResourceUsage usage = cluster.node(0).clock()->total_usage();
  EXPECT_EQ(usage.disk_bytes_read,
            height * static_cast<int64_t>(storage::kPageSize));
  EXPECT_EQ(usage.disk_seeks, height);
}

TEST(SpatialSelectReplicaTest, ReplicasAreNotFetched) {
  // Every polygon spans the whole universe, so on a 2-node spatial table
  // each tuple is stored twice (one primary + one replica). The select
  // must test the primary flag *before* fetching, so the total fetch CPU
  // equals the single-node (replica-free) run — not double it.
  const Box universe(0, 0, 100, 100);
  auto build = [&](int nodes) {
    Cluster::Options copts;
    copts.buffer_pool_frames = 512;
    auto cluster = std::make_unique<Cluster>(nodes, copts);
    TupleVec rows;
    for (int64_t i = 0; i < 50; ++i) {
      rows.push_back(PolyTuple(i, 50, 50, 49.0));  // spans every tile
    }
    TableDef def = PolyDef("spatial");
    def.partitioning = PartitioningKind::kSpatial;
    def.universe = universe;
    def.indexes = {catalog::IndexDef{"shape_idx", 1, /*spatial=*/true}};
    auto table =
        ParallelTable::Load(cluster.get(), def, rows, /*tiles_per_axis=*/4);
    EXPECT_TRUE(table.ok());
    return std::make_pair(std::move(cluster), std::move(*table));
  };
  auto [cluster1, table1] = build(1);
  auto [cluster2, table2] = build(2);
  ASSERT_EQ(table1->num_stored(), 50);
  ASSERT_EQ(table2->num_stored(), 100);  // fully replicated
  ASSERT_EQ(table2->num_rows(), 50);

  auto run = [&](Cluster* cluster, const ParallelTable& table) {
    QueryCoordinator coord(cluster);
    EXPECT_TRUE(coord.BeginQuery().ok());
    auto out = core::ParallelSpatialIndexSelect(&coord, table, universe,
                                                nullptr);
    EXPECT_TRUE(out.ok());
    size_t total_rows = 0;
    double cpu = 0;
    for (const TupleVec& v : *out) total_rows += v.size();
    for (int n = 0; n < cluster->num_nodes(); ++n) {
      cpu += cluster->node(n).clock()->total_usage().cpu_ops;
    }
    EXPECT_EQ(total_rows, 50u);  // primaries only, each exactly once
    return cpu;
  };
  const double cpu1 = run(cluster1.get(), *table1);
  const double cpu2 = run(cluster2.get(), *table2);
  // The only CPU in this phase is per-fetched-row decode cost, and the
  // encoded records are identical on both clusters — so fetching primaries
  // only makes the totals equal. Fetching replicas would double cpu2.
  EXPECT_DOUBLE_EQ(cpu1, cpu2);
}

}  // namespace
}  // namespace paradise
