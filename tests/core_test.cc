#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "benchmark/database.h"
#include "benchmark/queries.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "core/coordinator.h"
#include "core/parallel_ops.h"
#include "core/pull.h"
#include "core/spatial_grid.h"
#include "core/table.h"
#include "core/topology.h"
#include "datagen/datagen.h"
#include "exec/spatial_join.h"
#include "sim/cost_model.h"

namespace paradise::core {
namespace {

using catalog::PartitioningKind;
using catalog::TableDef;
using exec::CompareOp;
using exec::Tuple;
using exec::TupleVec;
using exec::Value;
using exec::ValueType;
using geom::Box;
using geom::Point;
using geom::Polygon;
using geom::Polyline;

// ---------- SpatialGrid ----------

TEST(SpatialGridTest, TileNumberingRowMajorFromUpperLeft) {
  SpatialGrid grid(Box(0, 0, 100, 100), 10, 4);
  // Upper-left corner -> tile 0.
  EXPECT_EQ(grid.TileOfPoint(Point{0.5, 99.5}), 0u);
  EXPECT_EQ(grid.TileOfPoint(Point{99.5, 99.5}), 9u);
  EXPECT_EQ(grid.TileOfPoint(Point{0.5, 0.5}), 90u);
  EXPECT_EQ(grid.TileOfPoint(Point{99.5, 0.5}), 99u);
}

TEST(SpatialGridTest, TileBoxRoundTrips) {
  SpatialGrid grid(Box(-50, -20, 70, 40), 16, 4);
  for (uint32_t t = 0; t < grid.num_tiles(); ++t) {
    Box b = grid.TileBox(t);
    EXPECT_EQ(grid.TileOfPoint(b.Center()), t);
  }
}

TEST(SpatialGridTest, TilesOfBoxCoversAndOnlyOverlaps) {
  SpatialGrid grid(Box(0, 0, 100, 100), 10, 4);
  Box q(15, 25, 38, 47);
  std::vector<uint32_t> tiles = grid.TilesOfBox(q);
  std::set<uint32_t> got(tiles.begin(), tiles.end());
  for (uint32_t t = 0; t < grid.num_tiles(); ++t) {
    bool overlaps = grid.TileBox(t).Intersects(q);
    EXPECT_EQ(got.contains(t), overlaps) << "tile " << t;
  }
}

TEST(SpatialGridTest, NodeMappingCoversAllNodes) {
  SpatialGrid grid(Box(0, 0, 1, 1), 100, 16);
  std::set<uint32_t> nodes;
  for (uint32_t t = 0; t < grid.num_tiles(); ++t) nodes.insert(grid.NodeOfTile(t));
  EXPECT_EQ(nodes.size(), 16u);
}

TEST(SpatialGridTest, PrimaryNodeIsAmongDestinations) {
  Rng rng(8);
  SpatialGrid grid(Box(-100, -100, 100, 100), 50, 8);
  for (int i = 0; i < 200; ++i) {
    double x = rng.NextDouble(-120, 120);  // may poke outside the universe
    double y = rng.NextDouble(-120, 120);
    Box b(x, y, x + rng.NextDouble(0, 30), y + rng.NextDouble(0, 30));
    std::vector<uint32_t> nodes = grid.NodesOfBox(b);
    ASSERT_FALSE(nodes.empty());
    uint32_t primary = grid.PrimaryNode(b);
    EXPECT_NE(std::find(nodes.begin(), nodes.end(), primary), nodes.end());
  }
}

// ---------- Cluster / table loading ----------

Cluster::Options SmallClusterOptions() {
  Cluster::Options o;
  o.buffer_pool_frames = 512;
  return o;
}

TableDef PolyTableDef(const std::string& name, PartitioningKind part,
                      const Box& universe) {
  TableDef def;
  def.name = name;
  def.schema = exec::Schema(
      {{"id", ValueType::kInt}, {"shape", ValueType::kPolygon}});
  def.partitioning = part;
  def.partition_column = 1;
  def.universe = universe;
  return def;
}

TupleVec RandomPolyTuples(Rng* rng, int n, double extent, double radius) {
  TupleVec out;
  for (int i = 0; i < n; ++i) {
    double cx = rng->NextDouble(-extent, extent);
    double cy = rng->NextDouble(-extent, extent);
    std::vector<Point> ring;
    for (int k = 0; k < 6; ++k) {
      double angle = 2 * M_PI * k / 6;
      double r = radius * (0.5 + 0.5 * rng->NextDouble());
      ring.push_back(Point{cx + r * std::cos(angle), cy + r * std::sin(angle)});
    }
    out.push_back(Tuple({Value(int64_t{i}), Value(Polygon(std::move(ring)))}));
  }
  return out;
}

std::multiset<int64_t> Ids(const TupleVec& rows, size_t col = 0) {
  std::multiset<int64_t> out;
  for (const Tuple& t : rows) out.insert(t.at(col).AsInt());
  return out;
}

// Owners of two grids after node losses, pinned as literals from the
// lazily applied dead-node rehash the recorded tile table replaced: the
// table must reproduce every one.

TEST(SpatialGridTest, TableGridOwnersAfterTwoLossesArePinned) {
  Cluster cluster(5, SmallClusterOptions());
  Rng rng(41);
  Box universe(-50, -50, 50, 50);
  auto t = ParallelTable::Load(
      &cluster, PolyTableDef("p", PartitioningKind::kSpatial, universe),
      RandomPolyTuples(&rng, 200, 45, 5), /*tiles_per_axis=*/10);
  ASSERT_TRUE(t.ok());
  cluster.topology()->RegisterTable(t->get());
  // Node 1's tiles rehash over {0, 2, 3, 4}; then node 3's, its base tiles
  // and those it took from node 1, over {0, 2, 4}.
  cluster.MarkNodeDead(1);
  ASSERT_TRUE(cluster.topology()->MigrateAllForLoss(1).ok());
  cluster.MarkNodeDead(3);
  ASSERT_TRUE(cluster.topology()->MigrateAllForLoss(3).ok());
  const std::vector<uint32_t> expected = {
      0, 4, 2, 2, 0, 4, 2, 2, 0, 0, 4, 2, 0, 0, 4, 4, 2, 0, 4, 4,
      2, 2, 0, 4, 4, 2, 0, 0, 4, 4, 0, 0, 4, 0, 2, 2, 4, 4, 2, 2,
      0, 4, 0, 2, 0, 0, 0, 2, 0, 0, 4, 0, 2, 4, 4, 4, 2, 4, 0, 4,
      2, 2, 0, 0, 0, 2, 0, 0, 0, 2, 2, 4, 4, 2, 2, 4, 0, 4, 2, 2,
      0, 4, 2, 2, 0, 0, 4, 2, 2, 0, 4, 2, 2, 0, 4, 4, 2, 2, 0, 4};
  const SpatialGrid& grid = (*t)->grid();
  ASSERT_EQ(grid.num_tiles(), expected.size());
  for (uint32_t tile = 0; tile < grid.num_tiles(); ++tile) {
    EXPECT_EQ(grid.NodeOfTile(tile), expected[tile]) << "tile " << tile;
  }
  Status audit = (*t)->ValidateOwnership(&cluster);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  cluster.topology()->UnregisterTable(t->get());
}

TEST(SpatialGridTest, RoutingGridOwnersWithTwoDeadNodesArePinned) {
  SpatialGrid grid(Box(0, 0, 100, 100), 10, 6);
  grid.RehashOntoLive({0, 1, 3, 5});  // nodes 2 and 4 dead
  const std::vector<uint32_t> expected = {
      0, 3, 1, 0, 5, 5, 1, 5, 5, 5, 3, 5, 1, 1, 3, 0, 1, 1, 0, 0,
      3, 1, 0, 0, 3, 3, 0, 0, 5, 3, 0, 1, 5, 5, 1, 3, 1, 5, 1, 3,
      1, 1, 3, 5, 3, 1, 0, 0, 3, 3, 0, 0, 5, 3, 5, 0, 5, 5, 5, 0,
      1, 5, 0, 1, 1, 1, 0, 1, 3, 1, 0, 3, 3, 3, 0, 0, 3, 3, 3, 0,
      5, 5, 3, 5, 5, 5, 5, 0, 1, 1, 5, 0, 1, 1, 0, 1, 3, 1, 0, 0};
  for (uint32_t tile = 0; tile < grid.num_tiles(); ++tile) {
    EXPECT_EQ(grid.NodeOfTile(tile), expected[tile]) << "tile " << tile;
  }
}

TEST(ParallelTableTest, RoundRobinLoadAndScan) {
  Cluster cluster(4, SmallClusterOptions());
  Rng rng(1);
  TupleVec rows = RandomPolyTuples(&rng, 100, 50, 3);
  TableDef def = PolyTableDef("t", PartitioningKind::kRoundRobin, Box());
  auto table = ParallelTable::Load(&cluster, def, rows);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 100);
  EXPECT_EQ((*table)->num_stored(), 100);  // no replication
  // Fragments are balanced.
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ((*table)->fragment(n).num_rows(), 25);
  }
  // Scanning all fragments returns every tuple exactly once.
  std::multiset<int64_t> seen;
  for (int n = 0; n < 4; ++n) {
    auto frag = (*table)->ScanFragment(&cluster, n, true);
    ASSERT_TRUE(frag.ok());
    for (const Tuple& t : *frag) seen.insert(t.at(0).AsInt());
  }
  EXPECT_EQ(seen, Ids(rows));
}

TEST(ParallelTableTest, FragmentsLiveOnDataVolumes) {
  // Six nodes: nodes 4 and 5 wrap around to their first data volumes
  // instead of landing on their LOB and temp volumes.
  Cluster cluster(6, SmallClusterOptions());
  Rng rng(7);
  TupleVec rows = RandomPolyTuples(&rng, 120, 50, 3);
  TableDef def = PolyTableDef("t", PartitioningKind::kRoundRobin, Box());
  auto table = ParallelTable::Load(&cluster, def, rows);
  ASSERT_TRUE(table.ok());
  for (int n = 0; n < 6; ++n) {
    ASSERT_EQ((*table)->fragment(n).num_rows(), 20);
    for (int v = 0; v < Node::kDataVolumes; ++v) {
      // Exactly one data volume per node holds the fragment's pages.
      EXPECT_EQ(cluster.node(n).data_volume(v)->num_pages() > 0,
                v == n % Node::kDataVolumes)
          << "node " << n << " volume " << v;
    }
  }
}

TEST(ParallelTableTest, SpatialLoadReplicatesSpanningTuples) {
  Cluster cluster(4, SmallClusterOptions());
  Rng rng(2);
  Box universe(-60, -60, 60, 60);
  TupleVec rows = RandomPolyTuples(&rng, 200, 50, 8);  // big: spans tiles
  TableDef def = PolyTableDef("t", PartitioningKind::kSpatial, universe);
  auto table = ParallelTable::Load(&cluster, def, rows, /*tiles_per_axis=*/20);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 200);       // primaries
  EXPECT_GT((*table)->num_stored(), 200);     // replicas exist
  // Primary-only scan sees each tuple exactly once.
  std::multiset<int64_t> seen;
  for (int n = 0; n < 4; ++n) {
    auto frag = (*table)->ScanFragment(&cluster, n, true);
    ASSERT_TRUE(frag.ok());
    for (const Tuple& t : *frag) seen.insert(t.at(0).AsInt());
  }
  EXPECT_EQ(seen, Ids(rows));
}

TEST(ParallelTableTest, ScanChargesDiskOnce) {
  Cluster cluster(2, SmallClusterOptions());
  Rng rng(3);
  TupleVec rows = RandomPolyTuples(&rng, 500, 50, 2);
  TableDef def = PolyTableDef("t", PartitioningKind::kRoundRobin, Box());
  auto table = ParallelTable::Load(&cluster, def, rows);
  ASSERT_TRUE(table.ok());
  cluster.ResetForQuery();
  auto frag = (*table)->ScanFragment(&cluster, 0, true);
  ASSERT_TRUE(frag.ok());
  sim::ResourceUsage u = cluster.node(0).clock()->EndPhase();
  EXPECT_GT(u.disk_bytes_read, 0);
  EXPECT_GT(u.cpu_ops, 0);
}

// ---------- Fragment scans: the modeled charge is per stored record ----------

struct ChargedScan {
  sim::ResourceUsage usage;
  TupleVec rows;
};

/// One fragment scan from a cold pool: what it charged and what it returned.
ChargedScan ColdScan(Cluster* cluster, const ParallelTable& table, int node,
                     bool primaries_only) {
  cluster->ResetForQuery();
  auto rows = table.ScanFragment(cluster, node, primaries_only);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  ChargedScan scan;
  scan.usage = cluster->node(node).clock()->EndPhase();
  if (rows.ok()) scan.rows = std::move(rows).value();
  return scan;
}

/// Ids of the fragment's primary copies, read off each stored record's
/// flag byte (which must agree with the fragment's in-memory mirror).
std::multiset<int64_t> StoredPrimaryIds(const ParallelTable::Fragment& frag) {
  std::multiset<int64_t> ids;
  for (size_t r = 0; r < frag.oids.size(); ++r) {
    auto rec = frag.file->Get(frag.oids[r]);
    EXPECT_TRUE(rec.ok());
    if (!rec.ok()) continue;
    ByteReader reader(*rec);
    const bool primary = (reader.GetU8() & 1) != 0;
    EXPECT_EQ(primary, frag.primary[r] != 0) << "row " << r;
    if (primary) ids.insert(Tuple::Deserialize(&reader).at(0).AsInt());
  }
  return ids;
}

/// Both scan modes read every stored record and are charged for each, so
/// they must charge bit-identical usage; the primaries-only scan returns
/// exactly the fragment's primary copies.
void ExpectPrimariesOnlyScanChargesEveryRecord(Cluster* cluster,
                                               const ParallelTable& table) {
  int64_t replicas = 0;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    // A first pass leaves the disk head where each measured scan leaves it.
    ColdScan(cluster, table, n, /*primaries_only=*/false);
    ChargedScan all = ColdScan(cluster, table, n, /*primaries_only=*/false);
    ChargedScan prim = ColdScan(cluster, table, n, /*primaries_only=*/true);
    EXPECT_EQ(prim.usage.disk_seeks, all.usage.disk_seeks) << "node " << n;
    EXPECT_EQ(prim.usage.disk_bytes_read, all.usage.disk_bytes_read);
    EXPECT_EQ(prim.usage.disk_bytes_written, all.usage.disk_bytes_written);
    EXPECT_EQ(prim.usage.net_messages, all.usage.net_messages);
    EXPECT_EQ(prim.usage.net_bytes, all.usage.net_bytes);
    EXPECT_EQ(prim.usage.cpu_ops, all.usage.cpu_ops) << "node " << n;
    EXPECT_EQ(prim.usage.idle_seconds, all.usage.idle_seconds);
    EXPECT_GT(prim.usage.disk_bytes_read, 0);

    EXPECT_EQ(static_cast<int64_t>(all.rows.size()),
              table.fragment(n).num_live());
    EXPECT_EQ(Ids(prim.rows), StoredPrimaryIds(table.fragment(n)))
        << "node " << n;
    replicas += static_cast<int64_t>(all.rows.size() - prim.rows.size());
  }
  EXPECT_GT(replicas, 0);  // the replica skip ran
}

TEST(ParallelTableTest, PrimariesOnlyScanChargesEveryStoredRecordSpatial) {
  Cluster cluster(4, SmallClusterOptions());
  Rng rng(31);
  TupleVec rows = RandomPolyTuples(&rng, 600, 50, 8);  // big: spans tiles
  TableDef def = PolyTableDef("t", PartitioningKind::kSpatial,
                              Box(-60, -60, 60, 60));
  auto table = ParallelTable::Load(&cluster, def, rows, /*tiles_per_axis=*/20);
  ASSERT_TRUE(table.ok());
  ASSERT_GT((*table)->num_stored(), (*table)->num_rows());
  ExpectPrimariesOnlyScanChargesEveryRecord(&cluster, **table);
}

TEST(ParallelTableTest, PrimariesOnlyScanChargesEveryStoredRecordTwoLayer) {
  Cluster cluster(4, SmallClusterOptions());
  Rng rng(32);
  TupleVec rows = RandomPolyTuples(&rng, 600, 50, 8);
  TableDef def = PolyTableDef("t2l", PartitioningKind::kTwoLayer,
                              Box(-60, -60, 60, 60));
  auto table = ParallelTable::Load(&cluster, def, rows, /*tiles_per_axis=*/20);
  ASSERT_TRUE(table.ok());
  ExpectPrimariesOnlyScanChargesEveryRecord(&cluster, **table);
}

// ---------- Filtered fragment scans: the filter step ----------

/// What one node's filtered scan returned, bit for bit and in order, what
/// it charged, and what its pool counted.
struct NodeScan {
  std::vector<ByteBuffer> rows;
  sim::ResourceUsage usage;
  std::vector<int64_t> pool;
};

std::vector<ByteBuffer> RowBytes(const TupleVec& rows) {
  std::vector<ByteBuffer> out;
  for (const Tuple& t : rows) {
    ByteBuffer b;
    b.reserve(256);
    ByteWriter w(&b);
    t.Serialize(&w);
    out.push_back(std::move(b));
  }
  return out;
}

std::vector<int64_t> PoolCounters(Cluster* cluster, int node) {
  const storage::BufferPool::Stats s = cluster->node(node).pool()->stats();
  return {s.hits,           s.misses,         s.evictions,
          s.readahead_batches, s.readahead_pages, s.promotions,
          s.writeback_runs,    s.writeback_pages};
}

std::vector<int64_t> Minus(std::vector<int64_t> a,
                           const std::vector<int64_t>& b) {
  for (size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
  return a;
}

/// The path filtered scans took before the filter step, kept as the
/// oracle: decode the whole fragment, then exec::Filter.
std::vector<NodeScan> ReferenceFilteredScan(Cluster* cluster,
                                            const ParallelTable& table,
                                            bool primaries_only,
                                            const exec::ExprPtr& pred) {
  cluster->ResetForQuery();
  std::vector<NodeScan> out(cluster->num_nodes());
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    const std::vector<int64_t> before = PoolCounters(cluster, n);
    NodeExecContext nc = MakeNodeContext(cluster, n);
    auto rows = table.ScanFragment(cluster, n, primaries_only);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (!rows.ok()) continue;
    auto kept = exec::Filter(*rows, pred, nc.ctx);
    EXPECT_TRUE(kept.ok()) << kept.status().ToString();
    if (kept.ok()) out[n].rows = RowBytes(*kept);
    out[n].usage = cluster->node(n).clock()->EndPhase();
    out[n].pool = Minus(PoolCounters(cluster, n), before);
  }
  return out;
}

/// The same scan through ParallelScan (primaries only) or ParallelScanAll
/// on `threads` worker threads.
std::vector<NodeScan> FilteredScan(Cluster* cluster, const ParallelTable& table,
                                   bool primaries_only,
                                   const exec::ExprPtr& pred, int threads) {
  cluster->SetNumThreads(threads);
  std::vector<std::vector<int64_t>> before;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    before.push_back(PoolCounters(cluster, n));
  }
  QueryCoordinator coord(cluster);
  EXPECT_TRUE(coord.BeginQuery().ok());
  auto per = primaries_only ? ParallelScan(&coord, table, pred, {})
                            : ParallelScanAll(&coord, table, pred);
  EXPECT_TRUE(per.ok()) << per.status().ToString();
  std::vector<NodeScan> out(cluster->num_nodes());
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    if (per.ok()) out[n].rows = RowBytes((*per)[n]);
    out[n].usage = cluster->node(n).clock()->total_usage();
    out[n].pool = Minus(PoolCounters(cluster, n), before[n]);
  }
  return out;
}

void ExpectSameScan(const std::vector<NodeScan>& got,
                    const std::vector<NodeScan>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t n = 0; n < got.size(); ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    EXPECT_EQ(got[n].rows, want[n].rows);
    const sim::ResourceUsage& g = got[n].usage;
    const sim::ResourceUsage& w = want[n].usage;
    EXPECT_EQ(g.disk_seeks, w.disk_seeks);
    EXPECT_EQ(g.disk_bytes_read, w.disk_bytes_read);
    EXPECT_EQ(g.disk_bytes_written, w.disk_bytes_written);
    EXPECT_EQ(g.net_messages, w.net_messages);
    EXPECT_EQ(g.net_bytes, w.net_bytes);
    EXPECT_EQ(std::bit_cast<uint64_t>(g.cpu_ops),
              std::bit_cast<uint64_t>(w.cpu_ops))
        << g.cpu_ops << " vs " << w.cpu_ops;
    EXPECT_EQ(std::bit_cast<uint64_t>(g.idle_seconds),
              std::bit_cast<uint64_t>(w.idle_seconds));
    EXPECT_EQ(got[n].pool, want[n].pool);
  }
}

/// Rows (id, shape, tag), the shape a polyline or a polygon on an integer
/// lattice, so many MBR edges meet the predicates' box edges exactly.
/// Chains have 1-6 points (0-6 when `allow_empty`: an empty chain has no
/// tile to decluster to); the tag's length varies the record size, so the
/// walk's per-byte charges are not integers and a change in charge order
/// changes cpu_ops.
TupleVec LatticeRows(ValueType type, bool allow_empty, int n, uint64_t seed) {
  Rng rng(seed);
  TupleVec out;
  for (int i = 0; i < n; ++i) {
    Point p{static_cast<double>(rng.NextInt(-45, 45)),
            static_cast<double>(rng.NextInt(-45, 45))};
    std::vector<Point> pts(
        static_cast<size_t>(rng.NextInt(allow_empty ? 0 : 1, 6)));
    for (Point& q : pts) {
      q = p;
      p.x += static_cast<double>(rng.NextInt(-4, 4));
      p.y += static_cast<double>(rng.NextInt(-4, 4));
    }
    const Value shape = type == ValueType::kPolyline
                            ? Value(Polyline(std::move(pts)))
                            : Value(Polygon(std::move(pts)));
    out.push_back(Tuple({Value(int64_t{i}), shape,
                         Value(std::string(rng.NextUint(24), 'a' + i % 26))}));
  }
  return out;
}

/// Predicates on column 1 that a scan's filter step does and does not
/// apply to (it reads only Overlaps with the column first), with literals
/// that touch stored MBRs exactly.
std::vector<exec::ExprPtr> ScanPredicates(const TupleVec& rows) {
  using exec::Col;
  using exec::Lit;
  using exec::Overlaps;
  const Box m = rows[7].at(1).Mbr();
  const std::vector<Value> literals = {
      Value(Box(-10, -10, 15, 12)),
      Value(Box(m.xmax, m.ymin, m.xmax + 3, m.ymax)),      // touches an edge
      Value(Box(m.xmax, m.ymax, m.xmax + 1, m.ymax + 1)),  // touches a corner
      Value(Box(m.xmin, m.ymin, m.xmin, m.ymin)),          // zero extent
      Value(Box(3, -20, 3, 20)),                           // zero width
      Value(Box()),                                        // empty
      Value(Box(5, 5, -5, -5)),                            // inverted
      Value(Polygon({{-20, -20}, {20, -15}, {0, 25}})),
      Value(geom::Circle(Point{5, 5}, 12)),
  };
  std::vector<exec::ExprPtr> preds;
  for (const Value& v : literals) {
    preds.push_back(Overlaps(Col(1), Lit(v)));
    preds.push_back(Overlaps(Lit(v), Col(1)));
  }
  const exec::ExprPtr box = Overlaps(Col(1), Lit(literals[0]));
  const exec::ExprPtr low_id =
      exec::Cmp(CompareOp::kLt, Col(0), Lit(Value(int64_t{150})));
  preds.push_back(exec::And(box, low_id));
  preds.push_back(exec::And(low_id, box));
  preds.push_back(exec::Or(box, low_id));
  preds.push_back(exec::Not(box));
  preds.push_back(exec::Cmp(CompareOp::kGe, Col(0), Lit(Value(int64_t{100}))));
  return preds;
}

TEST(FilteredScanTest, MatchesScanThenFilterBitForBit) {
  struct Case {
    PartitioningKind part;
    ValueType shape;
    bool allow_empty;
  };
  const Case cases[] = {
      {PartitioningKind::kSpatial, ValueType::kPolyline, false},
      {PartitioningKind::kTwoLayer, ValueType::kPolyline, false},
      {PartitioningKind::kRoundRobin, ValueType::kPolyline, true},
      // The filter step reads only polylines: every polygon row takes the
      // full decode.
      {PartitioningKind::kSpatial, ValueType::kPolygon, false},
  };
  uint64_t seed = 70;
  for (const Case& c : cases) {
    SCOPED_TRACE("partitioning " + std::to_string(static_cast<int>(c.part)) +
                 " shape " + ValueTypeName(c.shape));
    Cluster cluster(4, SmallClusterOptions());
    const TupleVec rows = LatticeRows(c.shape, c.allow_empty, 300, seed++);
    TableDef def;
    def.name = "t";
    def.schema = exec::Schema({{"id", ValueType::kInt},
                               {"shape", c.shape},
                               {"tag", ValueType::kString}});
    def.partitioning = c.part;
    def.partition_column = 1;
    def.universe = Box(-50, -50, 50, 50);
    auto table = ParallelTable::Load(&cluster, def, rows, /*tiles_per_axis=*/8);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    // A first pass leaves each disk head where every measured scan leaves
    // it.
    ReferenceFilteredScan(&cluster, **table, false,
                          exec::Cmp(CompareOp::kGe, exec::Col(0),
                                    exec::Lit(Value(int64_t{0}))));
    for (const exec::ExprPtr& pred : ScanPredicates(rows)) {
      for (bool primaries_only : {true, false}) {
        const std::vector<NodeScan> want =
            ReferenceFilteredScan(&cluster, **table, primaries_only, pred);
        for (int threads : {1, 8}) {
          SCOPED_TRACE("threads " + std::to_string(threads) +
                       (primaries_only ? " primaries only" : " all copies"));
          ExpectSameScan(
              FilteredScan(&cluster, **table, primaries_only, pred, threads),
              want);
        }
      }
    }
  }
}

// ---------- Parallel operators: the result-preserving invariant ----------

/// Runs the same logical operation on a 1-node and an N-node cluster; the
/// results must be identical. This is the core correctness claim of
/// declustering + replication + duplicate elimination.
class ParallelEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalenceTest, SpatialSelectMatchesSerial) {
  int N = GetParam();
  Rng rng(42);
  Box universe(-60, -60, 60, 60);
  TupleVec rows = RandomPolyTuples(&rng, 300, 50, 6);
  Polygon query({Point{-20, -20}, Point{25, -20}, Point{25, 25},
                 Point{-20, 25}});
  exec::ExprPtr exact =
      exec::Overlaps(exec::Col(1), exec::Lit(Value(query)));

  auto run = [&](int nodes) -> std::multiset<int64_t> {
    Cluster cluster(nodes, SmallClusterOptions());
    TableDef def = PolyTableDef("t", PartitioningKind::kSpatial, universe);
    def.indexes = {catalog::IndexDef{"shape_idx", 1, true}};
    auto table = ParallelTable::Load(&cluster, def, rows, 20);
    EXPECT_TRUE(table.ok());
    QueryCoordinator coord(&cluster);
    EXPECT_TRUE(coord.BeginQuery().ok());
    auto per = ParallelSpatialIndexSelect(&coord, **table, query.Mbr(), exact);
    EXPECT_TRUE(per.ok());
    auto gathered = Gather(&coord, *per);
    EXPECT_TRUE(gathered.ok());
    EXPECT_GT(coord.query_seconds(), 0.0);
    return Ids(*gathered);
  };
  EXPECT_EQ(run(1), run(N));
}

TEST_P(ParallelEquivalenceTest, SpatialJoinMatchesSerialNestedLoops) {
  int N = GetParam();
  Rng rng(7);
  Box universe(-40, -40, 40, 40);
  TupleVec left = RandomPolyTuples(&rng, 120, 35, 4);
  TupleVec right = RandomPolyTuples(&rng, 100, 35, 4);

  // Serial reference.
  exec::ExecContext null_ctx;
  auto nl = exec::NestedLoopsJoin(left, right,
                                  exec::Overlaps(exec::Col(1), exec::Col(3)),
                                  null_ctx);
  ASSERT_TRUE(nl.ok());
  std::set<std::pair<int64_t, int64_t>> expected;
  for (const Tuple& t : *nl) {
    expected.emplace(t.at(0).AsInt(), t.at(2).AsInt());
  }

  Cluster cluster(N, SmallClusterOptions());
  QueryCoordinator coord(&cluster);
  EXPECT_TRUE(coord.BeginQuery().ok());
  // Inputs start round-robin placed (arbitrary initial placement).
  PerNode lper(N), rper(N);
  for (size_t i = 0; i < left.size(); ++i) lper[i % N].push_back(left[i]);
  for (size_t i = 0; i < right.size(); ++i) rper[i % N].push_back(right[i]);
  ParallelSpatialJoinOptions opts;
  opts.tiles_per_axis = 25;
  auto joined = ParallelSpatialJoin(&coord, lper, 1, rper, 1, universe, opts);
  ASSERT_TRUE(joined.ok());
  std::set<std::pair<int64_t, int64_t>> got;
  for (const TupleVec& v : *joined) {
    for (const Tuple& t : v) {
      auto ins = got.emplace(t.at(0).AsInt(), t.at(2).AsInt());
      EXPECT_TRUE(ins.second) << "cross-node duplicate";
    }
  }
  EXPECT_EQ(got, expected);
}

TEST_P(ParallelEquivalenceTest, IndexSpatialJoinMatchesNestedLoops) {
  int N = GetParam();
  Rng rng(29);
  Box universe(-40, -40, 40, 40);
  TupleVec outer = RandomPolyTuples(&rng, 60, 35, 4);
  TupleVec inner = RandomPolyTuples(&rng, 150, 35, 4);

  exec::ExecContext null_ctx;
  auto nl = exec::NestedLoopsJoin(outer, inner,
                                  exec::Overlaps(exec::Col(1), exec::Col(3)),
                                  null_ctx);
  ASSERT_TRUE(nl.ok());
  std::set<std::pair<int64_t, int64_t>> expected;
  for (const Tuple& t : *nl) {
    expected.emplace(t.at(0).AsInt(), t.at(2).AsInt());
  }
  ASSERT_FALSE(expected.empty());

  // Broadcast to a kSpatial inner (primary-copy keep rule) and multicast
  // to a kTwoLayer inner (reference-point keep rule).
  for (PartitioningKind part :
       {PartitioningKind::kSpatial, PartitioningKind::kTwoLayer}) {
    Cluster cluster(N, SmallClusterOptions());
    TableDef def = PolyTableDef("inner", part, universe);
    def.indexes = {catalog::IndexDef{"shape_idx", 1, true}};
    auto table = ParallelTable::Load(&cluster, def, inner, 10);
    ASSERT_TRUE(table.ok());
    QueryCoordinator coord(&cluster);
    ASSERT_TRUE(coord.BeginQuery().ok());
    PerNode oper(N);
    for (size_t i = 0; i < outer.size(); ++i) oper[i % N].push_back(outer[i]);
    auto joined = ParallelIndexSpatialJoin(
        &coord, oper, **table, 1, [](const Tuple& o) { return o.at(1); },
        [](const Tuple& o, const Tuple& i) {
          return Tuple({o.at(0), o.at(1), i.at(0), i.at(1)});
        });
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    std::set<std::pair<int64_t, int64_t>> got;
    for (const TupleVec& v : *joined) {
      for (const Tuple& t : v) {
        EXPECT_TRUE(got.emplace(t.at(0).AsInt(), t.at(2).AsInt()).second)
            << "cross-node duplicate";
      }
    }
    EXPECT_EQ(got, expected) << "partitioning " << static_cast<int>(part);
  }
}

TEST_P(ParallelEquivalenceTest, AggregateMatchesSerial) {
  int N = GetParam();
  Rng rng(11);
  TupleVec rows;
  for (int i = 0; i < 500; ++i) {
    rows.push_back(Tuple({Value(rng.NextInt(0, 9)),
                          Value(rng.NextDouble(0, 1000))}));
  }
  auto run = [&](int nodes) {
    Cluster cluster(nodes, SmallClusterOptions());
    QueryCoordinator coord(&cluster);
    EXPECT_TRUE(coord.BeginQuery().ok());
    PerNode per(nodes);
    for (size_t i = 0; i < rows.size(); ++i) {
      per[i % static_cast<size_t>(nodes)].push_back(rows[i]);
    }
    std::vector<exec::AggregatePtr> aggs = {exec::MakeCount(),
                                            exec::MakeAvg(exec::Col(1))};
    auto result = ParallelAggregate(&coord, per, {0}, aggs);
    EXPECT_TRUE(result.ok());
    return *result;
  };
  TupleVec serial = run(1);
  TupleVec parallel = run(N);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].at(0).AsInt(), parallel[i].at(0).AsInt());
    EXPECT_EQ(serial[i].at(1).AsInt(), parallel[i].at(1).AsInt());
    EXPECT_NEAR(serial[i].at(2).AsDouble(), parallel[i].at(2).AsDouble(),
                1e-9);
  }
}

TEST_P(ParallelEquivalenceTest, ClosestJoinMatchesBruteForce) {
  int N = GetParam();
  Rng rng(13);
  Box universe(-50, -50, 50, 50);
  // Points and polyline features.
  TupleVec points;
  for (int i = 0; i < 40; ++i) {
    points.push_back(Tuple({Value(int64_t{i}),
                            Value(Point{rng.NextDouble(-48, 48),
                                        rng.NextDouble(-48, 48)})}));
  }
  TupleVec features;
  for (int i = 0; i < 150; ++i) {
    double x = rng.NextDouble(-48, 48), y = rng.NextDouble(-48, 48);
    features.push_back(
        Tuple({Value(int64_t{i}),
               Value(Polyline({{x, y},
                               {x + rng.NextDouble(-3, 3),
                                y + rng.NextDouble(-3, 3)}}))}));
  }

  Cluster cluster(N, SmallClusterOptions());
  QueryCoordinator coord(&cluster);
  EXPECT_TRUE(coord.BeginQuery().ok());
  PerNode pper(N), fper(N);
  for (size_t i = 0; i < points.size(); ++i) pper[i % N].push_back(points[i]);
  for (size_t i = 0; i < features.size(); ++i) {
    fper[i % N].push_back(features[i]);
  }
  ClosestJoinStats stats;
  auto result = SpatialJoinWithClosest(&coord, pper, 1, fper, 1, universe,
                                       /*tiles_per_axis=*/10, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), points.size());
  EXPECT_EQ(stats.local_points + stats.replicated_points,
            static_cast<int64_t>(points.size()));

  // Brute-force reference: min distance per point.
  std::map<std::pair<double, double>, double> expected;
  for (const Tuple& pt : points) {
    const Point& p = pt.at(1).AsPoint();
    double best = 1e300;
    for (const Tuple& ft : features) {
      best = std::min(best, ft.at(1).AsPolyline()->DistanceTo(p));
    }
    expected[{p.x, p.y}] = best;
  }
  for (const Tuple& t : *result) {
    const Point& p = t.at(0).AsPoint();
    auto it = expected.find({p.x, p.y});
    ASSERT_TRUE(it != expected.end());
    EXPECT_NEAR(t.at(2).AsDouble(), it->second, 1e-9);
  }
}

TEST(ClosestJoinTest, ZeroHeightUniverseMatchesBruteForce) {
  // Points and features all on y = 0: the universe has zero height, so
  // its area is 0 and the expanding-circle search has no circle to grow.
  // Every point must still get its closest feature, by scanning.
  constexpr int N = 2;
  const Box universe(0, 0, 100, 0);
  TupleVec points;
  for (double x : {10.0, 30.0, 50.0, 70.0}) {
    points.push_back(
        Tuple({Value(static_cast<int64_t>(x)), Value(Point{x, 0})}));
  }
  TupleVec features;
  int64_t id = 0;
  for (const auto& [x0, x1] : {std::pair{20.0, 25.0}, std::pair{45.0, 48.0},
                               std::pair{80.0, 90.0}}) {
    features.push_back(
        Tuple({Value(id++), Value(Polyline({{x0, 0}, {x1, 0}}))}));
  }

  Cluster cluster(N, SmallClusterOptions());
  QueryCoordinator coord(&cluster);
  ASSERT_TRUE(coord.BeginQuery().ok());
  PerNode pper(N), fper(N);
  for (size_t i = 0; i < points.size(); ++i) pper[i % N].push_back(points[i]);
  for (size_t i = 0; i < features.size(); ++i) {
    fper[i % N].push_back(features[i]);
  }
  auto result = SpatialJoinWithClosest(&coord, pper, 1, fper, 1, universe,
                                       /*tiles_per_axis=*/10);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), points.size());
  std::set<double> seen;
  for (const Tuple& t : *result) {
    const Point& p = t.at(0).AsPoint();
    double best = 1e300;
    for (const Tuple& ft : features) {
      best = std::min(best, ft.at(1).AsPolyline()->DistanceTo(p));
    }
    EXPECT_NEAR(t.at(2).AsDouble(), best, 1e-9) << "point x = " << p.x;
    EXPECT_TRUE(seen.insert(p.x).second) << "point x = " << p.x;
  }
}

TEST_P(ParallelEquivalenceTest, TwoLayerJoinMatchesLegacyWithZeroDedup) {
  int N = GetParam();
  Rng rng(19);
  Box universe(-40, -40, 40, 40);
  TupleVec left = RandomPolyTuples(&rng, 120, 35, 4);
  TupleVec right = RandomPolyTuples(&rng, 100, 35, 4);

  auto run = [&](bool two_layer, exec::PbsmJoinStats* stats) {
    Cluster cluster(N, SmallClusterOptions());
    QueryCoordinator coord(&cluster);
    EXPECT_TRUE(coord.BeginQuery().ok());
    PerNode lper(N), rper(N);
    for (size_t i = 0; i < left.size(); ++i) lper[i % N].push_back(left[i]);
    for (size_t i = 0; i < right.size(); ++i) rper[i % N].push_back(right[i]);
    ParallelSpatialJoinOptions opts;
    opts.tiles_per_axis = 16;
    opts.two_layer = two_layer;
    auto joined = ParallelSpatialJoin(&coord, lper, 1, rper, 1, universe, opts);
    EXPECT_TRUE(joined.ok());
    std::set<std::pair<int64_t, int64_t>> got;
    for (const TupleVec& v : *joined) {
      for (const Tuple& t : v) {
        auto ins = got.emplace(t.at(0).AsInt(), t.at(2).AsInt());
        EXPECT_TRUE(ins.second) << "cross-node duplicate";
      }
    }
    *stats = coord.pbsm_stats();
    return got;
  };

  exec::PbsmJoinStats legacy_stats, two_stats;
  auto legacy = run(false, &legacy_stats);
  auto twol = run(true, &two_stats);
  EXPECT_EQ(twol, legacy);
  EXPECT_FALSE(twol.empty());
  // The legacy path tests every joined tuple against the reference point;
  // the class plan never runs that branch.
  EXPECT_GT(legacy_stats.dedup_tests, 0);
  EXPECT_EQ(two_stats.dedup_tests, 0);
  EXPECT_EQ(two_stats.dedup_dropped, 0);
  EXPECT_GT(two_stats.class_a_items, 0);
}

TEST(TwoLayerTableTest, LoadReplicatesRowsAndValidates) {
  Cluster cluster(4, SmallClusterOptions());
  Rng rng(23);
  Box universe(-60, -60, 60, 60);
  TupleVec rows = RandomPolyTuples(&rng, 200, 50, 8);  // big: spans tiles
  TableDef def = PolyTableDef("t2l", PartitioningKind::kTwoLayer, universe);
  auto table = ParallelTable::Load(&cluster, def, rows, /*tiles_per_axis=*/20);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 200);
  EXPECT_GT((*table)->num_stored(), 200);  // spill copies exist

  // The flag audit checks primary-vs-grid sync and replica completeness.
  Status audit = (*table)->ValidateOwnership(&cluster);
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  // Primary-only scan still sees each row exactly once.
  std::multiset<int64_t> seen;
  for (int n = 0; n < 4; ++n) {
    auto frag = (*table)->ScanFragment(&cluster, n, true);
    ASSERT_TRUE(frag.ok());
    for (const Tuple& t : *frag) seen.insert(t.at(0).AsInt());
  }
  EXPECT_EQ(seen, Ids(rows));
}

/// Every (oid, stored record) of a fragment's heap file, in file order.
std::vector<std::pair<storage::Oid, ByteBuffer>> StoredRecords(
    const ParallelTable::Fragment& frag) {
  std::vector<std::pair<storage::Oid, ByteBuffer>> out;
  auto it = frag.file->NewIterator();
  storage::Oid oid;
  std::span<const uint8_t> record;
  while (it.Next(&oid, &record)) {
    out.emplace_back(oid, ByteBuffer(record.begin(), record.end()));
  }
  EXPECT_TRUE(it.status().ok()) << it.status().ToString();
  return out;
}

void ExpectSameStoredRecords(const ParallelTable& a, const ParallelTable& b,
                             const std::string& when) {
  ASSERT_EQ(a.num_fragments(), b.num_fragments());
  for (int n = 0; n < a.num_fragments(); ++n) {
    const auto ra = StoredRecords(a.fragment(n));
    const auto rb = StoredRecords(b.fragment(n));
    ASSERT_EQ(ra.size(), rb.size()) << when << ", node " << n;
    for (size_t i = 0; i < ra.size(); ++i) {
      ASSERT_TRUE(ra[i].first == rb[i].first)
          << when << ", node " << n << ", record " << i << ": oids differ";
      ASSERT_TRUE(ra[i].second == rb[i].second)
          << when << ", node " << n << ", record " << i << ": bytes differ";
    }
  }
}

void ExpectSameUsage(const sim::ResourceUsage& a, const sim::ResourceUsage& b,
                     const std::string& what) {
  EXPECT_EQ(a.disk_seeks, b.disk_seeks) << what;
  EXPECT_EQ(a.disk_bytes_read, b.disk_bytes_read) << what;
  EXPECT_EQ(a.disk_bytes_written, b.disk_bytes_written) << what;
  EXPECT_EQ(a.net_messages, b.net_messages) << what;
  EXPECT_EQ(a.net_bytes, b.net_bytes) << what;
  EXPECT_EQ(a.cpu_ops, b.cpu_ops) << what;
  EXPECT_EQ(a.idle_seconds, b.idle_seconds) << what;
}

// kTwoLayer only chooses the join plans: the same rows loaded as kSpatial
// and as kTwoLayer store the same bytes at the same oids, and draining a
// node migrates them with the same charges on every node.
TEST(TwoLayerTableTest, StoresAndMigratesLikeSpatial) {
  Rng rng(37);
  const TupleVec rows = RandomPolyTuples(&rng, 400, 50, 8);
  const Box universe(-60, -60, 60, 60);
  Cluster spatial_cluster(4, SmallClusterOptions());
  Cluster two_layer_cluster(4, SmallClusterOptions());
  auto spatial = ParallelTable::Load(
      &spatial_cluster, PolyTableDef("t", PartitioningKind::kSpatial, universe),
      rows, /*tiles_per_axis=*/20);
  auto two_layer = ParallelTable::Load(
      &two_layer_cluster,
      PolyTableDef("t", PartitioningKind::kTwoLayer, universe), rows,
      /*tiles_per_axis=*/20);
  ASSERT_TRUE(spatial.ok() && two_layer.ok());
  ASSERT_GT((*spatial)->num_stored(), (*spatial)->num_rows());  // replicas
  ExpectSameStoredRecords(**spatial, **two_layer, "after load");
  for (int n = 0; n < 4; ++n) {
    ExpectSameUsage(spatial_cluster.node(n).clock()->EndPhase(),
                    two_layer_cluster.node(n).clock()->EndPhase(),
                    "load, node " + std::to_string(n));
  }

  auto drain_node_1 = [](Cluster* cluster, ParallelTable* table) {
    cluster->topology()->RegisterTable(table);
    cluster->topology()->DrainNode(1);
    return cluster->topology()->DrainMigration(0.0);
  };
  Status drained = drain_node_1(&spatial_cluster, spatial->get());
  ASSERT_TRUE(drained.ok()) << drained.ToString();
  drained = drain_node_1(&two_layer_cluster, two_layer->get());
  ASSERT_TRUE(drained.ok()) << drained.ToString();
  const auto& moved = spatial_cluster.topology()->stats();
  EXPECT_GT(moved.tiles_moved, 0);
  EXPECT_GT(moved.rows_shipped, 0);
  EXPECT_GT(moved.rows_deduped, 0);  // replicas claimed at the targets
  EXPECT_EQ(moved.tiles_moved,
            two_layer_cluster.topology()->stats().tiles_moved);
  for (int n = 0; n < 4; ++n) {
    ExpectSameUsage(spatial_cluster.node(n).clock()->EndPhase(),
                    two_layer_cluster.node(n).clock()->EndPhase(),
                    "drain, node " + std::to_string(n));
  }
  ExpectSameStoredRecords(**spatial, **two_layer, "after drain");

  Status audit = (*spatial)->ValidateOwnership(&spatial_cluster);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  audit = (*two_layer)->ValidateOwnership(&two_layer_cluster);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  spatial_cluster.topology()->UnregisterTable(spatial->get());
  two_layer_cluster.topology()->UnregisterTable(two_layer->get());
}

/// One run of the predeclustered two-layer self-join: sorted result keys,
/// modeled seconds, and the aggregated join stats.
struct TwoLayerRunDigest {
  std::set<std::pair<int64_t, int64_t>> keys;
  double seconds = 0.0;
  exec::PbsmJoinStats stats;
};

TwoLayerRunDigest RunTwoLayerTableJoin(int num_threads, bool faulted) {
  Cluster cluster(4, SmallClusterOptions());
  cluster.SetNumThreads(num_threads);
  Rng rng(29);
  Box universe(-50, -50, 50, 50);
  TupleVec lrows = RandomPolyTuples(&rng, 150, 45, 6);
  TupleVec rrows = RandomPolyTuples(&rng, 130, 45, 6);
  TableDef ldef = PolyTableDef("L", PartitioningKind::kTwoLayer, universe);
  TableDef rdef = PolyTableDef("R", PartitioningKind::kTwoLayer, universe);
  auto lt = ParallelTable::Load(&cluster, ldef, lrows, /*tiles_per_axis=*/10);
  auto rt = ParallelTable::Load(&cluster, rdef, rrows, /*tiles_per_axis=*/10);
  EXPECT_TRUE(lt.ok() && rt.ok());
  if (faulted) {
    cluster.MarkNodeDead(2);
    EXPECT_TRUE(cluster.topology()->MigrateForLoss(lt->get(), 2).ok());
    EXPECT_TRUE(cluster.topology()->MigrateForLoss(rt->get(), 2).ok());
    EXPECT_TRUE((*lt)->ValidateOwnership(&cluster).ok());
    EXPECT_TRUE((*rt)->ValidateOwnership(&cluster).ok());
  }
  QueryCoordinator coord(&cluster);
  EXPECT_TRUE(coord.BeginQuery().ok());
  auto lper = ParallelScanAll(&coord, **lt, nullptr);
  auto rper = ParallelScanAll(&coord, **rt, nullptr);
  EXPECT_TRUE(lper.ok() && rper.ok());
  ParallelSpatialJoinOptions opts;
  opts.two_layer = true;
  opts.left_predeclustered = true;
  opts.right_predeclustered = true;
  opts.routing_grid = &(*lt)->grid();
  opts.tiles_per_axis = (*lt)->grid().tiles_per_axis();
  auto joined =
      ParallelSpatialJoin(&coord, *lper, 1, *rper, 1, universe, opts);
  EXPECT_TRUE(joined.ok()) << joined.status().ToString();
  TwoLayerRunDigest d;
  for (const TupleVec& v : *joined) {
    for (const Tuple& t : v) {
      auto ins = d.keys.emplace(t.at(0).AsInt(), t.at(2).AsInt());
      EXPECT_TRUE(ins.second) << "duplicate pair across nodes";
    }
  }
  coord.EndQuery();
  d.seconds = coord.query_seconds();
  d.stats = coord.pbsm_stats();
  return d;
}

TEST(TwoLayerTableTest, PredeclusteredJoinBitIdenticalCleanAndFaulted) {
  // parallel_tasks is `pooled ? ran : 0` — the one stats field that is
  // allowed to differ between a 1-thread (inline) and an 8-thread run.
  auto normalized = [](const TwoLayerRunDigest& d) {
    exec::PbsmJoinStats s = d.stats;
    s.parallel_tasks = 0;
    return s;
  };
  const TwoLayerRunDigest clean1 = RunTwoLayerTableJoin(1, false);
  const TwoLayerRunDigest clean8 = RunTwoLayerTableJoin(8, false);
  EXPECT_EQ(clean1.keys, clean8.keys);
  EXPECT_EQ(clean1.seconds, clean8.seconds);  // bit-identical modeled time
  EXPECT_EQ(normalized(clean1), normalized(clean8));
  EXPECT_EQ(clean1.stats.dedup_tests, 0);
  EXPECT_EQ(clean1.stats.dedup_dropped, 0);
  EXPECT_FALSE(clean1.keys.empty());

  const TwoLayerRunDigest fault1 = RunTwoLayerTableJoin(1, true);
  const TwoLayerRunDigest fault8 = RunTwoLayerTableJoin(8, true);
  // Same answer as the clean run on the degraded layout, still
  // deterministic, still no dedup branch.
  EXPECT_EQ(fault1.keys, clean1.keys);
  EXPECT_EQ(fault1.keys, fault8.keys);
  EXPECT_EQ(fault1.seconds, fault8.seconds);
  EXPECT_EQ(normalized(fault1), normalized(fault8));
  EXPECT_EQ(fault1.stats.dedup_tests, 0);
  EXPECT_EQ(fault1.stats.dedup_dropped, 0);
}

TEST(TwoLayerTableTest, ZeroExtentUniverseMatchesLegacy) {
  // Points on one vertical (then horizontal) line: the decluster grid's
  // universe has zero width (height). Its tile arithmetic maps that axis
  // to cell 0; a two-layer join that re-derived its tiles from an
  // inflated copy of the universe swept tiles the placement never used
  // and dropped pairs. 200 x 150 points over 50 shared spots = 600 pairs.
  constexpr int N = 4;
  for (bool vertical : {true, false}) {
    SCOPED_TRACE(vertical ? "x = 5" : "y = 7");
    const Box universe = vertical ? Box(5, 0, 5, 49) : Box(0, 7, 49, 7);
    const SpatialGrid grid(universe, /*tiles_per_axis=*/10, N);
    auto place = [&](int n, int64_t id_base) {
      PerNode per(N);
      for (int i = 0; i < n; ++i) {
        const double t = i % 50;
        const Point p = vertical ? Point{5, t} : Point{t, 7};
        for (uint32_t node : grid.NodesOfBox(Box(p.x, p.y, p.x, p.y))) {
          per[node].push_back(Tuple({Value(id_base + i), Value(p)}));
        }
      }
      return per;
    };
    const PerNode lper = place(200, 0);
    const PerNode rper = place(150, 100000);
    auto run = [&](bool two_layer) {
      Cluster cluster(N, SmallClusterOptions());
      QueryCoordinator coord(&cluster);
      EXPECT_TRUE(coord.BeginQuery().ok());
      ParallelSpatialJoinOptions opts;
      opts.two_layer = two_layer;
      opts.left_predeclustered = true;
      opts.right_predeclustered = true;
      opts.routing_grid = &grid;
      opts.tiles_per_axis = grid.tiles_per_axis();
      auto joined =
          ParallelSpatialJoin(&coord, lper, 1, rper, 1, universe, opts);
      EXPECT_TRUE(joined.ok()) << joined.status().ToString();
      std::set<std::pair<int64_t, int64_t>> keys;
      for (const TupleVec& v : *joined) {
        for (const Tuple& t : v) {
          EXPECT_TRUE(keys.emplace(t.at(0).AsInt(), t.at(2).AsInt()).second)
              << "duplicate pair across nodes";
        }
      }
      return keys;
    };
    const auto legacy = run(false);
    EXPECT_EQ(legacy.size(), 600u);
    EXPECT_EQ(run(true), legacy);
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, ParallelEquivalenceTest,
                         ::testing::Values(2, 3, 4, 8));

// ---------- Redistribution & pull ----------

TEST(ParallelSpatialJoinTest, PredeclusteredSideNeedsARoutingGrid) {
  // A side read where it lies can only be routed and deduplicated on the
  // grid that placed it; without one the join refuses to guess.
  Cluster cluster(4, SmallClusterOptions());
  QueryCoordinator coord(&cluster);
  ASSERT_TRUE(coord.BeginQuery().ok());
  const PerNode empty(4);
  for (bool left : {true, false}) {
    ParallelSpatialJoinOptions opts;
    opts.left_predeclustered = left;
    opts.right_predeclustered = !left;
    auto joined = ParallelSpatialJoin(&coord, empty, 1, empty, 1,
                                      Box(0, 0, 10, 10), opts);
    EXPECT_EQ(joined.status().code(), StatusCode::kInvalidArgument);
  }
  coord.EndQuery();
}

TEST(RedistributeTest, RoutesAndChargesNetwork) {
  Cluster cluster(4, SmallClusterOptions());
  QueryCoordinator coord(&cluster);
  EXPECT_TRUE(coord.BeginQuery().ok());
  PerNode input(4);
  for (int64_t i = 0; i < 100; ++i) {
    input[static_cast<size_t>(i % 4)].push_back(Tuple({Value(i)}));
  }
  auto out = Redistribute(&coord, input,
                          [](const Tuple& t, std::vector<uint32_t>* dests) {
                            dests->push_back(
                                static_cast<uint32_t>(t.at(0).AsInt() % 2));
                          });
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].size(), 50u);
  EXPECT_EQ((*out)[1].size(), 50u);
  EXPECT_TRUE((*out)[2].empty());
  EXPECT_TRUE((*out)[3].empty());
  // Network time was charged (most tuples moved across nodes).
  ASSERT_EQ(coord.phases().size(), 1u);
  EXPECT_GT(coord.phases()[0].seconds, 0.0);
}

TEST(PullTest, RemoteTileReadChargesBothEnds) {
  Cluster cluster(2, SmallClusterOptions());
  // Store a large array on node 1.
  Rng rng(5);
  std::vector<uint8_t> data(200 * 200 * 2);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  auto handle = array::StoreArray(data.data(), {200, 200}, 2,
                                  cluster.node(1).lob_store(),
                                  cluster.node(1).clock(), true, 8192,
                                  /*owner_node=*/1);
  ASSERT_TRUE(handle.ok());
  cluster.ResetForQuery();
  // Node 0 pulls the whole thing.
  PullTileSource pull(&cluster, 0);
  auto full = array::ReadFull(*handle, &pull);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, ByteBuffer(data.begin(), data.end()));
  EXPECT_GT(pull.tiles_pulled(), 0);
  sim::ResourceUsage consumer = cluster.node(0).clock()->EndPhase();
  sim::ResourceUsage owner = cluster.node(1).clock()->EndPhase();
  EXPECT_GT(consumer.net_bytes, 0);
  EXPECT_GT(owner.net_bytes, 0);
  EXPECT_GT(owner.disk_bytes_read, 0);   // owner did the disk work
  EXPECT_EQ(consumer.disk_bytes_read, 0);  // consumer read nothing locally
}

TEST(PullTest, LocalReadIsFree) {
  Cluster cluster(2, SmallClusterOptions());
  std::vector<uint8_t> data(100 * 100 * 2, 3);
  auto handle = array::StoreArray(data.data(), {100, 100}, 2,
                                  cluster.node(0).lob_store(),
                                  cluster.node(0).clock(), false, 8192, 0);
  ASSERT_TRUE(handle.ok());
  cluster.ResetForQuery();
  PullTileSource pull(&cluster, 0);
  auto full = array::ReadFull(*handle, &pull);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(pull.tiles_pulled(), 0);  // local fast path
  EXPECT_EQ(cluster.node(0).clock()->EndPhase().net_bytes, 0);
}

// ---------- Coordinator phase accounting ----------

TEST(CoordinatorTest, PhaseTimeIsMaxOverNodes) {
  Cluster cluster(4, SmallClusterOptions());
  QueryCoordinator coord(&cluster);
  EXPECT_TRUE(coord.BeginQuery().ok());
  ASSERT_TRUE(coord.RunPhase("skewed", [&](int n) -> Status {
                     // Node 3 does 4x the work of the others.
                     double ops = (n == 3) ? 4e6 : 1e6;
                     cluster.node(n).clock()->ChargeCpu(ops);
                     return Status::OK();
                   })
                  .ok());
  const auto& phase = coord.phases()[0];
  double expected_max = 4e6 / cluster.cost_model().cpu_ops_per_second;
  EXPECT_NEAR(phase.seconds, expected_max, 1e-12);
  EXPECT_NEAR(phase.total_node_seconds,
              7e6 / cluster.cost_model().cpu_ops_per_second, 1e-12);
}

TEST(CoordinatorTest, SequentialAddsFully) {
  Cluster cluster(4, SmallClusterOptions());
  QueryCoordinator coord(&cluster);
  EXPECT_TRUE(coord.BeginQuery().ok());
  ASSERT_TRUE(coord.RunSequential("seq", [&]() -> Status {
                     cluster.coordinator_clock()->ChargeCpu(9e6);
                     return Status::OK();
                   })
                  .ok());
  EXPECT_NEAR(coord.query_seconds(),
              9e6 / cluster.cost_model().cpu_ops_per_second, 1e-12);
}

TEST(CoordinatorTest, PhaseWallSecondsLeaveModeledFieldsThreadIndependent) {
  // Query 13 (drainage x roads) on a tiny database at 1 and 8 threads:
  // every modeled field of every phase is bit-identical, and the host wall
  // clock each phase records is the only field allowed to differ.
  auto run = [](int num_threads) {
    Cluster::Options copts;
    copts.buffer_pool_frames = 2048;
    Cluster cluster(4, copts);
    cluster.SetNumThreads(num_threads);
    datagen::DataSetOptions data;
    data.size_fraction = 1.0 / 1000;
    data.num_dates = 8;
    data.base_raster_size = 96;
    benchmark::LoadOptions lopts;
    lopts.tiles_per_axis = 20;
    auto db = benchmark::BenchmarkDatabase::Load(
        &cluster, datagen::GenerateGlobalDataSet(data), lopts);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    auto r = benchmark::RunQuery13(db->get());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->rows.empty());
    return r->phases;
  };
  const auto one = run(1);
  const auto eight = run(8);
  ASSERT_EQ(one.size(), eight.size());
  ASSERT_FALSE(one.empty());
  for (size_t i = 0; i < one.size(); ++i) {
    SCOPED_TRACE(one[i].name);
    EXPECT_EQ(one[i].name, eight[i].name);
    EXPECT_EQ(one[i].sequential, eight[i].sequential);
    EXPECT_EQ(one[i].seconds, eight[i].seconds);
    EXPECT_EQ(one[i].max_node_seconds, eight[i].max_node_seconds);
    EXPECT_EQ(one[i].total_node_seconds, eight[i].total_node_seconds);
    EXPECT_EQ(one[i].contention, eight[i].contention);
    EXPECT_EQ(one[i].scan_shared_windows, eight[i].scan_shared_windows);
    EXPECT_GE(one[i].wall_seconds, 0.0);
    EXPECT_GE(eight[i].wall_seconds, 0.0);
  }
}

// ---------- Gather ----------

struct GatherRun {
  std::vector<std::string> rows;
  double seconds = 0.0;
  sim::ResourceUsage coordinator;
};

GatherRun RunGather(
    Cluster* cluster,
    const std::function<StatusOr<TupleVec>(QueryCoordinator*)>& gather) {
  QueryCoordinator coord(cluster);
  EXPECT_TRUE(coord.BeginQuery().ok());
  auto rows = gather(&coord);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  GatherRun run;
  for (const Tuple& t : *rows) run.rows.push_back(t.ToString());
  run.seconds = coord.query_seconds();
  run.coordinator = cluster->coordinator_clock()->total_usage();
  return run;
}

std::vector<std::vector<std::string>> RowStrings(const PerNode& per) {
  std::vector<std::vector<std::string>> out;
  for (const TupleVec& v : per) {
    out.emplace_back();
    for (const Tuple& t : v) out.back().push_back(t.ToString());
  }
  return out;
}

TEST(GatherTest, MovedInputGathersLikeACopy) {
  Cluster cluster(4, SmallClusterOptions());
  Rng rng(11);
  const TupleVec rows = RandomPolyTuples(&rng, 60, 30, 5);
  PerNode input(4);
  for (size_t i = 0; i < rows.size(); ++i) {
    input[(i * 7) % 4].push_back(rows[i]);
  }
  const auto before = RowStrings(input);

  const GatherRun copied = RunGather(&cluster, [&](QueryCoordinator* c) {
    return Gather(c, input);
  });
  EXPECT_EQ(RowStrings(input), before);  // the lvalue input is untouched
  const GatherRun moved = RunGather(&cluster, [&](QueryCoordinator* c) {
    return Gather(c, std::move(input));
  });

  ASSERT_EQ(copied.rows.size(), rows.size());
  EXPECT_EQ(copied.rows, moved.rows);  // same rows, same node order
  EXPECT_EQ(copied.seconds, moved.seconds);
  EXPECT_GT(copied.seconds, 0.0);
  const sim::ResourceUsage& a = copied.coordinator;
  const sim::ResourceUsage& b = moved.coordinator;
  EXPECT_EQ(a.disk_seeks, b.disk_seeks);
  EXPECT_EQ(a.disk_bytes_read, b.disk_bytes_read);
  EXPECT_EQ(a.disk_bytes_written, b.disk_bytes_written);
  EXPECT_EQ(a.net_messages, b.net_messages);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.cpu_ops, b.cpu_ops);
  EXPECT_EQ(a.idle_seconds, b.idle_seconds);
  EXPECT_GT(a.net_bytes, 0);
}

// ---------- StoreResult (copy-on-insert) ----------

TEST(StoreResultTest, CopiesTuplesIntoNewTable) {
  Cluster cluster(3, SmallClusterOptions());
  QueryCoordinator coord(&cluster);
  EXPECT_TRUE(coord.BeginQuery().ok());
  PerNode input(3);
  Rng rng(19);
  TupleVec rows = RandomPolyTuples(&rng, 30, 20, 2);
  for (size_t i = 0; i < rows.size(); ++i) input[i % 3].push_back(rows[i]);
  TableDef def = PolyTableDef("result", PartitioningKind::kRoundRobin, Box());
  auto stored = StoreResult(&coord, input, def);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ((*stored)->num_rows(), 30);
  std::multiset<int64_t> seen;
  for (int n = 0; n < 3; ++n) {
    auto frag = (*stored)->ScanFragment(&cluster, n, true);
    ASSERT_TRUE(frag.ok());
    for (const Tuple& t : *frag) seen.insert(t.at(0).AsInt());
  }
  EXPECT_EQ(seen, Ids(rows));
}

TEST(StoreResultTest, DeepCopiesRasterToDestination) {
  Cluster cluster(2, SmallClusterOptions());
  // A raster owned by node 1.
  std::vector<uint16_t> px(128 * 128, 1234);
  auto raster = array::MakeRaster(px, 128, 128, Box(0, 0, 1, 1),
                                  cluster.node(1).lob_store(),
                                  cluster.node(1).clock(), 8192, 1);
  ASSERT_TRUE(raster.ok());
  QueryCoordinator coord(&cluster);
  EXPECT_TRUE(coord.BeginQuery().ok());
  PerNode input(2);
  input[0].push_back(Tuple({Value(*raster)}));
  TableDef def;
  def.name = "r";
  def.schema = exec::Schema({{"data", ValueType::kRaster}});
  auto stored = StoreResult(&coord, input, def);
  ASSERT_TRUE(stored.ok());
  // The stored raster's handle must be owned by its destination node and
  // readable there.
  auto frag0 = (*stored)->ScanFragment(&cluster, 0, true);
  ASSERT_TRUE(frag0.ok());
  ASSERT_EQ(frag0->size(), 1u);
  const array::Raster& copy = *(*frag0)[0].at(0).AsRaster();
  EXPECT_EQ(copy.handle.owner_node, 0u);
  PullTileSource pull(&cluster, 0);
  auto bytes = array::ReadFull(copy.handle, &pull);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(pull.tiles_pulled(), 0);  // all tiles local after the copy
}

}  // namespace
}  // namespace paradise::core
