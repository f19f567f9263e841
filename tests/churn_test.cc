// Elastic cluster membership: planned join/drain/remove/reinstate, the
// throttled online tile-migration protocol, epoch pinning, and the
// fault-composed crash paths.
//
// The acceptance contract under churn: every query keeps returning the
// same rows as the churn-free run, every tile stays exactly-once owned
// (ValidateOwnership audits flags against the grid and the logical
// cardinality against the load), cached results over a migrated table are
// invalidated, and the whole protocol is bit-identical at any
// PARADISE_THREADS.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/database.h"
#include "benchmark/queries.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/cluster.h"
#include "core/parallel_ops.h"
#include "core/coordinator.h"
#include "core/query_builder.h"
#include "core/spatial_grid.h"
#include "core/table.h"
#include "core/topology.h"
#include "datagen/datagen.h"
#include "sim/fault_injector.h"

namespace paradise {
namespace {

using core::Cluster;
using core::NodeTopologyState;
using core::ParallelTable;
using core::QueryCoordinator;
using core::SpatialGrid;
using core::TopologyManager;
using core::WorkloadSession;
using exec::Tuple;
using exec::TupleVec;
using exec::Value;
using exec::ValueType;
using sim::FaultInjector;

#define ASSERT_OK(expr)                            \
  do {                                             \
    Status _s = (expr);                            \
    ASSERT_TRUE(_s.ok()) << _s.ToString();         \
  } while (0)

#define EXPECT_OK(expr)                            \
  do {                                             \
    Status _s = (expr);                            \
    EXPECT_TRUE(_s.ok()) << _s.ToString();         \
  } while (0)

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

LoadedDb LoadTinyDb(int nodes, int num_threads) {
  LoadedDb out;
  Cluster::Options copts;
  copts.buffer_pool_frames = 2048;
  out.cluster = std::make_unique<Cluster>(nodes, copts);
  out.cluster->SetNumThreads(num_threads);
  datagen::GlobalDataSet ds = datagen::GenerateGlobalDataSet(TinyDataOptions());
  auto db = benchmark::BenchmarkDatabase::Load(out.cluster.get(), ds,
                                               TinyLoadOptions());
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  out.db = std::move(*db);
  return out;
}

std::vector<std::string> RenderRowsSorted(const TupleVec& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) {
    std::string s;
    for (const Value& v : t.values) {
      if (v.type() == ValueType::kRaster) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "raster[%ux%u]",
                      v.AsRaster()->height(), v.AsRaster()->width());
        s += buf;
      } else {
        s += v.ToString();
      }
      s += "|";
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct QueryRun {
  double seconds = 0.0;
  std::vector<std::string> rows;
};

QueryRun RunQ(LoadedDb* loaded, int query) {
  auto r = benchmark::RunQueryByNumber(loaded->db.get(), query);
  EXPECT_TRUE(r.ok()) << "query " << query << ": " << r.status().ToString();
  QueryRun out;
  if (r.ok()) {
    out.seconds = r->seconds;
    out.rows = RenderRowsSorted(r->rows);
  }
  return out;
}

/// Exactly-once audit over every benchmark table.
void ValidateAll(LoadedDb* loaded) {
  ParallelTable* tables[] = {&loaded->db->places(), &loaded->db->roads(),
                             &loaded->db->drainage(),
                             &loaded->db->land_cover(), &loaded->db->raster()};
  for (ParallelTable* t : tables) {
    Status s = t->ValidateOwnership(loaded->cluster.get());
    EXPECT_TRUE(s.ok()) << t->def().name << ": " << s.ToString();
  }
}

int TilesOwnedBy(const SpatialGrid& grid, uint32_t node) {
  int owned = 0;
  for (uint32_t t = 0; t < grid.num_tiles(); ++t) {
    if (grid.NodeOfTile(t) == node) ++owned;
  }
  return owned;
}

/// Tiles whose recorded owner is not their base-hash owner.
int TilesOffBase(const SpatialGrid& grid) {
  int off = 0;
  for (uint32_t t = 0; t < grid.num_tiles(); ++t) {
    if (grid.NodeOfTile(t) != grid.BaseNodeOfTile(t)) ++off;
  }
  return off;
}

// ---------- Planned membership changes ----------

TEST(ChurnTopologyTest, AddNodeRebalancesAndPreservesAnswers) {
  LoadedDb loaded = LoadTinyDb(4, 1);
  TopologyManager* topo = loaded.cluster->topology();
  const QueryRun base = RunQ(&loaded, 13);
  const uint64_t epoch0 = topo->epoch();

  const int id = topo->AddNode();
  EXPECT_EQ(id, 4);
  EXPECT_EQ(loaded.cluster->num_nodes(), 5);
  EXPECT_GT(topo->epoch(), epoch0);
  // Fair share of the 20x20 grid over 5 active nodes.
  EXPECT_EQ(topo->pending_moves(), 80);
  ASSERT_OK(topo->DrainMigration(0.0));
  EXPECT_TRUE(topo->migration_idle());

  const SpatialGrid& grid = loaded.db->places().grid();
  EXPECT_EQ(TilesOwnedBy(grid, 4), 80);
  EXPECT_EQ(topo->stats().tiles_moved, 80);
  EXPECT_GT(topo->stats().migration_bytes, 0);

  ValidateAll(&loaded);
  const QueryRun after = RunQ(&loaded, 13);
  EXPECT_EQ(after.rows, base.rows);
}

TEST(ChurnTopologyTest, IndexNestedLoopsJoinsSurviveAddNode) {
  // Query 8 and core::Query's index-NL join probe every node's landCover
  // R*-tree, the added node's too: its fragment has neither rows nor an
  // index until migration lands rows, and must simply answer nothing.
  LoadedDb loaded = LoadTinyDb(4, 1);
  TopologyManager* topo = loaded.cluster->topology();
  // Query 8's boxes miss every landCover polygon of this tiny DB, so it
  // only has to keep answering. The planner's join has rows: places of
  // type 0 (45 rows) in landCover polygons, 3 pairs; the optimizer's range
  // estimate keeps that outer small enough for index NL.
  auto planner_join = [&loaded]() {
    auto query = [&loaded]() {
      return core::Query::On(&loaded.db->places())
          .WhereIntBetween(datagen::col::kPlaceType, 0, 0)
          .SpatialJoinWith(&loaded.db->land_cover(),
                           datagen::col::kPlaceLocation,
                           datagen::col::kLcShape);
    };
    EXPECT_NE(query().Explain().find("indexed nested loops"),
              std::string::npos);
    QueryCoordinator coord(loaded.cluster.get());
    auto rows = query().Run(&coord);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? RenderRowsSorted(*rows) : std::vector<std::string>{};
  };
  const QueryRun q8 = RunQ(&loaded, 8);
  const std::vector<std::string> join = planner_join();
  ASSERT_EQ(join.size(), 3u);

  topo->AddNode();
  EXPECT_EQ(RunQ(&loaded, 8).rows, q8.rows);
  EXPECT_EQ(planner_join(), join);

  ASSERT_OK(topo->DrainMigration(0.0));
  ASSERT_NE(loaded.db->land_cover().fragment(4).rtree, nullptr);
  EXPECT_EQ(RunQ(&loaded, 8).rows, q8.rows);
  EXPECT_EQ(planner_join(), join);
}

TEST(ChurnTopologyTest, DrainRemoveReinstateRoundTrip) {
  LoadedDb loaded = LoadTinyDb(4, 1);
  TopologyManager* topo = loaded.cluster->topology();
  const QueryRun base = RunQ(&loaded, 13);
  const SpatialGrid& grid = loaded.db->places().grid();
  const int owned0 = TilesOwnedBy(grid, 1);
  ASSERT_GT(owned0, 0);

  topo->DrainNode(1);
  EXPECT_EQ(topo->node_state(1), NodeTopologyState::kDraining);
  // Non-spatial tables (raster) stripe off the draining node.
  EXPECT_GT(topo->stats().stripe_moves, 0);
  ASSERT_OK(topo->DrainMigration(0.0));
  EXPECT_EQ(TilesOwnedBy(grid, 1), 0);

  topo->RemoveNode(1);
  EXPECT_EQ(topo->node_state(1), NodeTopologyState::kRemoved);
  EXPECT_FALSE(loaded.cluster->alive(1));
  EXPECT_EQ(loaded.cluster->num_alive(), 3);
  ValidateAll(&loaded);
  const QueryRun degraded = RunQ(&loaded, 13);
  EXPECT_EQ(degraded.rows, base.rows);

  topo->ReinstateNode(1);
  EXPECT_EQ(topo->node_state(1), NodeTopologyState::kActive);
  EXPECT_TRUE(loaded.cluster->alive(1));
  EXPECT_GT(topo->pending_moves(), 0);
  ASSERT_OK(topo->DrainMigration(1.0));

  // Every tile whose base owner node 1 is has moved home, so every tile is
  // back with its base owner (a full rolling-restart round trip restores
  // the layout).
  EXPECT_EQ(TilesOwnedBy(grid, 1), owned0);
  EXPECT_EQ(TilesOffBase(grid), 0);
  ValidateAll(&loaded);
  const QueryRun restored = RunQ(&loaded, 13);
  EXPECT_EQ(restored.rows, base.rows);
}

TEST(ChurnTopologyTest, ShedHotTilesRelievesSourceAndPreservesAnswers) {
  LoadedDb loaded = LoadTinyDb(4, 1);
  TopologyManager* topo = loaded.cluster->topology();
  const QueryRun base = RunQ(&loaded, 13);
  const SpatialGrid& grid = loaded.db->places().grid();
  const int owned0 = TilesOwnedBy(grid, 0);

  const int planned = topo->ShedHotTiles(/*source=*/0, /*k=*/4);
  EXPECT_GT(planned, 0);
  EXPECT_LE(planned, 4);
  EXPECT_EQ(topo->pending_moves(), planned);
  ASSERT_OK(topo->DrainMigration(0.0));

  EXPECT_EQ(TilesOwnedBy(grid, 0), owned0 - planned);
  ValidateAll(&loaded);
  const QueryRun after = RunQ(&loaded, 13);
  EXPECT_EQ(after.rows, base.rows);
}

/// Per tile `node` owns, the rows of the R*-tree-indexed spatial tables
/// on `node` whose indexed shape meets the tile's box: live rows only
/// (decoded from the fragment, not read off the tree), or every tree hit,
/// which also counts the entries of rows migration GC dropped.
std::map<uint32_t, int64_t> TileWeights(LoadedDb* loaded, int node,
                                        bool live_only) {
  const SpatialGrid& grid = loaded->db->places().grid();
  std::map<uint32_t, int64_t> weights;
  ParallelTable* tables[] = {&loaded->db->roads(), &loaded->db->drainage(),
                             &loaded->db->land_cover()};
  for (uint32_t tile = 0; tile < grid.num_tiles(); ++tile) {
    if (grid.NodeOfTile(tile) != static_cast<uint32_t>(node)) continue;
    int64_t& w = weights[tile];
    for (ParallelTable* t : tables) {
      const ParallelTable::Fragment& frag = t->fragment(node);
      const size_t col = t->def().indexes.at(0).column;
      EXPECT_TRUE(t->def().indexes.at(0).spatial);
      if (!live_only) {
        frag.rtree->SearchOverlap(grid.TileBox(tile),
                                  [&](const geom::Box&, uint64_t) {
                                    ++w;
                                    return true;
                                  });
        continue;
      }
      for (uint64_t r = 0; r < frag.oids.size(); ++r) {
        if (!frag.row_live(r)) continue;
        auto row = t->FetchRow(loaded->cluster.get(), node, r);
        EXPECT_TRUE(row.ok());
        if (row.ok() && row->at(col).Mbr().Intersects(grid.TileBox(tile))) ++w;
      }
    }
  }
  return weights;
}

/// The tile ShedHotTiles(source, 1) should pick from `weights`: the
/// heaviest, ties to the lowest tile id.
uint32_t Heaviest(const std::map<uint32_t, int64_t>& weights) {
  uint32_t best = 0;
  int64_t best_w = -1;
  for (const auto& [tile, w] : weights) {
    if (w > best_w) {
      best = tile;
      best_w = w;
    }
  }
  return best;
}

TEST(ChurnTopologyTest, ShedHotTilesWeighsOnlyLiveRows) {
  LoadedDb loaded = LoadTinyDb(4, 1);
  TopologyManager* topo = loaded.cluster->topology();
  const SpatialGrid& grid = loaded.db->places().grid();

  // Rolling restart of node 2: its rows are dropped on the way out and
  // copied back on the way in, so its R*-trees keep a dead entry beside
  // each live one.
  topo->DrainNode(2);
  ASSERT_OK(topo->DrainMigration(0.0));
  topo->RemoveNode(2);
  topo->ReinstateNode(2);
  ASSERT_OK(topo->DrainMigration(1.0));
  // Node 2, the least loaded, then takes over node 0's hottest tile,
  // whose entries on node 2 are all live.
  ASSERT_EQ(topo->ShedHotTiles(/*source=*/0, /*k=*/1), 1);
  ASSERT_OK(topo->DrainMigration(2.0));

  const std::map<uint32_t, int64_t> live = TileWeights(&loaded, 2, true);
  const uint32_t hottest = Heaviest(live);
  // The dead entries change the ranking: weighed by every tree hit, node
  // 2 would shed one of its own tiles instead.
  ASSERT_NE(Heaviest(TileWeights(&loaded, 2, false)), hottest);

  ASSERT_EQ(topo->ShedHotTiles(/*source=*/2, /*k=*/1), 1);
  ASSERT_OK(topo->DrainMigration(3.0));
  std::vector<uint32_t> shed;
  for (const auto& [tile, w] : live) {
    if (grid.NodeOfTile(tile) != 2) shed.push_back(tile);
  }
  EXPECT_EQ(shed, std::vector<uint32_t>{hottest});
  ValidateAll(&loaded);
}

// ---------- Epoch pinning ----------

TEST(ChurnEpochTest, PinnedReaderDefersPhysicalGarbageCollection) {
  LoadedDb loaded = LoadTinyDb(4, 1);
  TopologyManager* topo = loaded.cluster->topology();

  // An admitted query pins the epoch it started under.
  QueryCoordinator coord(loaded.cluster.get());
  ASSERT_TRUE(coord.BeginQuery().ok());
  ASSERT_GT(loaded.db->roads().fragment(1).num_live(), 0);

  topo->DrainNode(1);
  ASSERT_OK(topo->DrainMigration(0.0));
  EXPECT_TRUE(topo->migration_idle());
  // Cutover happened (ownership flipped) but the orphaned source rows
  // survive physically: the pinned reader may still resolve them.
  EXPECT_EQ(topo->stats().gc_rows, 0);
  EXPECT_GT(loaded.db->roads().fragment(1).num_live(), 0);

  coord.EndQuery();  // releases the pin
  ASSERT_OK(topo->PumpMigration(1.0));
  EXPECT_GT(topo->stats().gc_rows, 0);
  EXPECT_EQ(loaded.db->roads().fragment(1).num_live(), 0);
  ValidateAll(&loaded);
}

// ---------- Crash-composed migration (exactly-once ownership) ----------

TEST(ChurnCrashTest, SourceCrashMidMigrationLeavesTilesExactlyOnceOwned) {
  LoadedDb loaded = LoadTinyDb(4, 1);
  TopologyManager* topo = loaded.cluster->topology();
  const QueryRun base = RunQ(&loaded, 13);

  FaultInjector inj(/*seed=*/5);
  // The first executed move's source dies permanently after the staged
  // runs land at the target but before cutover.
  inj.ScheduleMigrationCrash(/*ordinal=*/0, /*target_side=*/false,
                             /*permanent=*/true);
  loaded.cluster->ResetForQuery();  // loaded data durable before any crash
  loaded.cluster->SetFaultInjector(&inj);

  topo->AddNode();
  ASSERT_OK(topo->DrainMigration(0.0));
  EXPECT_EQ(inj.stats().migration_crashes, 1);
  EXPECT_GE(topo->stats().rollbacks, 1);
  EXPECT_EQ(loaded.cluster->num_alive(), 4);  // 5 nodes, one lost

  int dead = -1;
  for (int n = 0; n < loaded.cluster->num_nodes(); ++n) {
    if (!loaded.cluster->alive(n)) dead = n;
  }
  ASSERT_GE(dead, 0);
  EXPECT_EQ(topo->node_state(dead), NodeTopologyState::kDead);

  ValidateAll(&loaded);
  const QueryRun after = RunQ(&loaded, 13);
  EXPECT_EQ(after.rows, base.rows);
  loaded.cluster->SetFaultInjector(nullptr);
}

TEST(ChurnCrashTest, TargetCrashMidMigrationLeavesTilesExactlyOnceOwned) {
  LoadedDb loaded = LoadTinyDb(4, 1);
  TopologyManager* topo = loaded.cluster->topology();
  const QueryRun base = RunQ(&loaded, 13);

  FaultInjector inj(/*seed=*/6);
  inj.ScheduleMigrationCrash(/*ordinal=*/0, /*target_side=*/true,
                             /*permanent=*/true);
  loaded.cluster->ResetForQuery();
  loaded.cluster->SetFaultInjector(&inj);

  topo->AddNode();  // the crash victim is the joining node itself
  ASSERT_OK(topo->DrainMigration(0.0));
  EXPECT_EQ(inj.stats().migration_crashes, 1);
  EXPECT_FALSE(loaded.cluster->alive(4));
  EXPECT_EQ(topo->node_state(4), NodeTopologyState::kDead);

  ValidateAll(&loaded);
  const QueryRun after = RunQ(&loaded, 13);
  EXPECT_EQ(after.rows, base.rows);
  loaded.cluster->SetFaultInjector(nullptr);
}

TEST(ChurnCrashTest, TransientTargetCrashRollsBackAndResumes) {
  LoadedDb loaded = LoadTinyDb(4, 1);
  TopologyManager* topo = loaded.cluster->topology();
  const QueryRun base = RunQ(&loaded, 13);

  FaultInjector inj(/*seed=*/7);
  inj.ScheduleMigrationCrash(/*ordinal=*/0, /*target_side=*/true,
                             /*permanent=*/false);
  loaded.cluster->ResetForQuery();
  loaded.cluster->SetFaultInjector(&inj);

  topo->AddNode();
  ASSERT_OK(topo->DrainMigration(0.0));
  EXPECT_EQ(inj.stats().migration_crashes, 1);
  EXPECT_GE(topo->stats().rollbacks, 1);
  EXPECT_GE(topo->stats().resumed_moves, 1);
  // The node recovered and the requeued move completed: full fair share.
  EXPECT_EQ(loaded.cluster->num_alive(), 5);
  EXPECT_EQ(topo->stats().tiles_moved, 80);
  EXPECT_EQ(TilesOwnedBy(loaded.db->places().grid(), 4), 80);

  ValidateAll(&loaded);
  const QueryRun after = RunQ(&loaded, 13);
  EXPECT_EQ(after.rows, base.rows);
  loaded.cluster->SetFaultInjector(nullptr);
}

// ---------- Result-cache correctness under churn ----------

/// Single-stream workload driver: admit, run, publish, finish — the
/// stream_main protocol of benchmark::RunWorkload, hand-rolled so the
/// test can interleave migration pumps at quiescent points.
struct CacheDriver {
  LoadedDb* loaded;
  WorkloadSession session;
  double now = 0.0;

  explicit CacheDriver(LoadedDb* l)
      : loaded(l), session(l->cluster.get(), MakeOptions()) {
    loaded->cluster->set_workload_session(&session);
    session.BindStream(0);
  }
  ~CacheDriver() {
    session.EndStream();
    loaded->cluster->set_workload_session(nullptr);
  }

  static WorkloadSession::Options MakeOptions() {
    WorkloadSession::Options o;
    o.num_streams = 1;
    return o;
  }

  std::vector<std::string> RunAndPublish(int query, const std::string& key,
                                         std::vector<std::string> deps) {
    WorkloadSession::Ticket* t = session.AwaitAdmission(now);
    auto r = benchmark::RunQueryByNumber(loaded->db.get(), query);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    now = t->admit_seconds + (r.ok() ? r->seconds : 0.0);
    if (r.ok()) {
      TupleVec copy = r->rows;
      session.PublishResult(key, std::move(deps), std::move(copy), now);
    }
    session.FinishQuery(r.ok() ? r->seconds : 0.0);
    return r.ok() ? RenderRowsSorted(r->rows) : std::vector<std::string>{};
  }

  bool Lookup(const std::string& key) {
    session.AwaitAdmission(now);
    TupleVec rows;
    double serve = 0.0;
    const bool hit = session.LookupCachedResult(key, &rows, &serve);
    session.FinishQuery(serve);
    now += serve;
    return hit;
  }
};

TEST(ChurnCacheTest, TileMigrationInvalidatesCachedResults) {
  LoadedDb loaded = LoadTinyDb(4, 1);
  TopologyManager* topo = loaded.cluster->topology();
  CacheDriver driver(&loaded);

  const std::vector<std::string> q5_rows =
      driver.RunAndPublish(5, "q5:phoenix", {"populatedPlaces"});
  driver.RunAndPublish(7, "q7:circle-area", {"landCover"});
  EXPECT_TRUE(driver.Lookup("q5:phoenix"));
  EXPECT_TRUE(driver.Lookup("q7:circle-area"));

  // Migrate every tile off node 1 between queries (the session is
  // quiescent). Tiles of both input tables move, so both entries die.
  topo->DrainNode(1);
  ASSERT_OK(topo->DrainMigration(driver.now));
  EXPECT_GT(topo->stats().cache_invalidations, 0);
  EXPECT_FALSE(driver.Lookup("q5:phoenix"));
  EXPECT_FALSE(driver.Lookup("q7:circle-area"));

  // Re-running against the migrated layout still gives the same answer.
  const std::vector<std::string> q5_again =
      driver.RunAndPublish(5, "q5:phoenix", {"populatedPlaces"});
  EXPECT_EQ(q5_again, q5_rows);
}

TEST(ChurnCacheTest, CrashDuringMigrationInvalidatesCachedResults) {
  LoadedDb loaded = LoadTinyDb(4, 1);
  TopologyManager* topo = loaded.cluster->topology();
  FaultInjector inj(/*seed=*/11);
  {
    CacheDriver driver(&loaded);
    const std::vector<std::string> q5_rows =
        driver.RunAndPublish(5, "q5:phoenix", {"populatedPlaces"});
    driver.RunAndPublish(7, "q7:circle-area", {"landCover"});
    EXPECT_TRUE(driver.Lookup("q5:phoenix"));
    EXPECT_TRUE(driver.Lookup("q7:circle-area"));

    // The draining node dies permanently mid-transfer; the resulting loss
    // migration reshapes every table, killing both entries.
    inj.ScheduleMigrationCrash(/*ordinal=*/0, /*target_side=*/false,
                               /*permanent=*/true);
    loaded.cluster->ResetForQuery();
    loaded.cluster->SetFaultInjector(&inj);
    topo->DrainNode(1);
    ASSERT_OK(topo->DrainMigration(driver.now));
    EXPECT_EQ(inj.stats().migration_crashes, 1);
    EXPECT_FALSE(loaded.cluster->alive(1));

    EXPECT_FALSE(driver.Lookup("q5:phoenix"));
    EXPECT_FALSE(driver.Lookup("q7:circle-area"));
    // Degraded (N-1) but still correct.
    const std::vector<std::string> q5_again =
        driver.RunAndPublish(5, "q5:phoenix", {"populatedPlaces"});
    EXPECT_EQ(q5_again, q5_rows);
  }
  ValidateAll(&loaded);
  loaded.cluster->SetFaultInjector(nullptr);
}

// ---------- Routing follows the recorded owners ----------

TEST(ChurnCrashTest, LossWhileAnotherNodeIsRemovedKeepsEveryRow) {
  // Node 1 leaves by a planned drain and removal; node 2 is then lost for
  // good. Its tiles must rehash over the nodes that are alive (0 and 3),
  // never onto the removed node 1, which no reader asks any more.
  LoadedDb loaded = LoadTinyDb(4, 1);
  TopologyManager* topo = loaded.cluster->topology();
  const QueryRun base = RunQ(&loaded, 13);
  ASSERT_EQ(base.rows.size(), 359u);
  const SpatialGrid& grid = loaded.db->places().grid();

  topo->DrainNode(1);
  ASSERT_OK(topo->DrainMigration(0.0));
  topo->RemoveNode(1);
  // What a permanent barrier crash of node 2 runs.
  loaded.cluster->MarkNodeDead(2);
  ASSERT_OK(topo->MigrateAllForLoss(2));
  EXPECT_EQ(TilesOwnedBy(grid, 1), 0);
  EXPECT_EQ(TilesOwnedBy(grid, 2), 0);
  ValidateAll(&loaded);
  EXPECT_EQ(RunQ(&loaded, 13).rows, base.rows);

  // Node 1 rejoins and takes its base tiles back from nodes 0 and 3.
  topo->ReinstateNode(1);
  ASSERT_OK(topo->DrainMigration(1.0));
  EXPECT_GT(TilesOwnedBy(grid, 1), 0);
  EXPECT_EQ(TilesOwnedBy(grid, 2), 0);
  ValidateAll(&loaded);
  EXPECT_EQ(RunQ(&loaded, 13).rows, base.rows);
}

TEST(ChurnRoutingTest, PlannerPbsmJoinAfterAddNodeKeepsItsRows) {
  // The planner joins roads with drainage by PBSM: drainage is read where
  // it lies, so roads must be routed, and duplicates eliminated, on
  // drainage's grid, whose tiles partly moved to the added node.
  LoadedDb loaded = LoadTinyDb(4, 1);
  TopologyManager* topo = loaded.cluster->topology();
  auto planner_join = [&loaded]() {
    auto query = [&loaded]() {
      return core::Query::On(&loaded.db->roads())
          .SpatialJoinWith(&loaded.db->drainage(), datagen::col::kLineShape,
                           datagen::col::kLineShape);
    };
    EXPECT_NE(query().Explain().find("spatial redecluster + PBSM"),
              std::string::npos);
    QueryCoordinator coord(loaded.cluster.get());
    auto rows = query().Run(&coord);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? RenderRowsSorted(*rows) : std::vector<std::string>{};
  };
  const std::vector<std::string> before = planner_join();
  ASSERT_EQ(before.size(), 359u);

  topo->AddNode();
  ASSERT_OK(topo->DrainMigration(0.0));
  ASSERT_GT(TilesOwnedBy(loaded.db->drainage().grid(), 4), 0);
  EXPECT_EQ(planner_join(), before);
}

TEST(ChurnRoutingTest, RedistributedJoinRoutesOnTheBaseHash) {
  // A join that redistributes both sides places its work by the base hash
  // over the cluster's nodes, whatever the table grids recorded: node 2
  // owns no table tile after its drain but still joins its base tiles, on
  // a grid of the tables' geometry as on any other.
  LoadedDb loaded = LoadTinyDb(4, 1);
  TopologyManager* topo = loaded.cluster->topology();
  topo->DrainNode(2);
  ASSERT_OK(topo->DrainMigration(0.0));
  ASSERT_EQ(TilesOwnedBy(loaded.db->roads().grid(), 2), 0);

  const size_t left_width = loaded.db->roads().def().schema.num_columns();
  for (uint32_t tiles_per_axis : {10u, 20u}) {
    SCOPED_TRACE("tiles per axis " + std::to_string(tiles_per_axis));
    QueryCoordinator coord(loaded.cluster.get());
    ASSERT_OK(coord.BeginQuery());
    auto roads = core::ParallelScan(&coord, loaded.db->roads(), nullptr, {});
    auto drainage =
        core::ParallelScan(&coord, loaded.db->drainage(), nullptr, {});
    ASSERT_TRUE(roads.ok() && drainage.ok());
    core::ParallelSpatialJoinOptions opts;
    opts.tiles_per_axis = tiles_per_axis;
    auto joined = core::ParallelSpatialJoin(
        &coord, *roads, datagen::col::kLineShape, *drainage,
        datagen::col::kLineShape, loaded.db->universe(), opts);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    coord.EndQuery();

    const SpatialGrid base(loaded.db->universe(), tiles_per_axis, 4);
    size_t rows = 0;
    for (uint32_t n = 0; n < 4; ++n) {
      for (const Tuple& t : (*joined)[n]) {
        const geom::Box lb = t.at(datagen::col::kLineShape).Mbr();
        const geom::Box rb =
            t.at(left_width + datagen::col::kLineShape).Mbr();
        const geom::Point rp = base.ClampToUniverse(geom::Point{
            std::max(lb.xmin, rb.xmin), std::max(lb.ymin, rb.ymin)});
        EXPECT_EQ(base.NodeOfPoint(rp), n);
      }
      rows += (*joined)[n].size();
    }
    EXPECT_EQ(rows, 359u);
    EXPECT_FALSE((*joined)[2].empty());
  }
}

// ---------- Two-layer tables under churn ----------

TEST(ChurnTwoLayerTest, MigratingTwoLayerTilesMidQueryPreservesJoin) {
  Cluster::Options copts;
  copts.buffer_pool_frames = 2048;
  Cluster cluster(4, copts);
  core::TopologyManager* topo = cluster.topology();

  Rng rng(31);
  const geom::Box universe(-50, -50, 50, 50);
  TupleVec rows;
  for (int i = 0; i < 160; ++i) {
    double cx = rng.NextDouble(-45, 45), cy = rng.NextDouble(-45, 45);
    double r = 2 + 6 * rng.NextDouble();
    rows.push_back(Tuple(
        {Value(int64_t{i}),
         Value(geom::Polygon({{cx - r, cy - r}, {cx + r, cy - r},
                              {cx + r, cy + r}, {cx - r, cy + r}}))}));
  }
  catalog::TableDef def;
  def.name = "t2l";
  def.schema = exec::Schema(
      {{"id", ValueType::kInt}, {"shape", ValueType::kPolygon}});
  def.partitioning = catalog::PartitioningKind::kTwoLayer;
  def.partition_column = 1;
  def.universe = universe;
  auto table = ParallelTable::Load(&cluster, def, rows, /*tiles_per_axis=*/10);
  ASSERT_TRUE(table.ok());
  topo->RegisterTable(table->get());

  // Self-join through a coordinator; keys must never change under churn.
  auto run_join = [&](QueryCoordinator* coord) {
    auto lper = core::ParallelScanAll(coord, **table, nullptr);
    auto rper = core::ParallelScanAll(coord, **table, nullptr);
    EXPECT_TRUE(lper.ok() && rper.ok());
    core::ParallelSpatialJoinOptions opts;
    opts.two_layer = true;
    opts.left_predeclustered = true;
    opts.right_predeclustered = true;
    opts.routing_grid = &(*table)->grid();
    opts.tiles_per_axis = (*table)->grid().tiles_per_axis();
    auto joined =
        core::ParallelSpatialJoin(coord, *lper, 1, *rper, 1, universe, opts);
    EXPECT_TRUE(joined.ok()) << joined.status().ToString();
    std::vector<std::pair<int64_t, int64_t>> keys;
    for (const TupleVec& v : *joined) {
      for (const Tuple& t : v) {
        keys.emplace_back(t.at(0).AsInt(), t.at(2).AsInt());
      }
    }
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
        << "duplicate pair";
    EXPECT_EQ(coord->pbsm_stats().dedup_tests, 0);
    EXPECT_EQ(coord->pbsm_stats().dedup_dropped, 0);
    return keys;
  };

  QueryCoordinator before(&cluster);
  ASSERT_TRUE(before.BeginQuery().ok());
  const auto base = run_join(&before);
  before.EndQuery();
  EXPECT_FALSE(base.empty());

  // A reader admitted *before* the migration pins its epoch; tiles of the
  // two-layer table then migrate off node 1 (stage + cutover) while the
  // query is open. The query must still see every pair exactly once with
  // the dedup branch never running: the join derives each copy's begin
  // class from its MBR and the routing grid, so the new owner's copies and
  // the orphaned source rows awaiting GC need no stored class.
  QueryCoordinator pinned(&cluster);
  ASSERT_TRUE(pinned.BeginQuery().ok());
  topo->DrainNode(1);
  ASSERT_OK(topo->DrainMigration(0.0));
  EXPECT_GT(topo->stats().tiles_moved, 0);
  EXPECT_EQ(run_join(&pinned), base);
  pinned.EndQuery();

  // After the pin releases, GC reclaims the orphans; the audit and the
  // join answer both hold.
  ASSERT_OK(topo->PumpMigration(1.0));
  EXPECT_OK((*table)->ValidateOwnership(&cluster));
  QueryCoordinator after(&cluster);
  ASSERT_TRUE(after.BeginQuery().ok());
  EXPECT_EQ(run_join(&after), base);
  after.EndQuery();
}

// ---------- Determinism ----------

struct ScenarioDigest {
  double q13_initial = 0.0;
  double q13_scaled = 0.0;
  double q13_final = 0.0;
  std::vector<std::string> rows_final;
  int64_t migration_bytes = 0;
  int64_t rows_shipped = 0;
  int64_t gc_rows = 0;
  int64_t tiles_moved = 0;

  bool operator==(const ScenarioDigest& o) const {
    return q13_initial == o.q13_initial && q13_scaled == o.q13_scaled &&
           q13_final == o.q13_final && rows_final == o.rows_final &&
           migration_bytes == o.migration_bytes &&
           rows_shipped == o.rows_shipped && gc_rows == o.gc_rows &&
           tiles_moved == o.tiles_moved;
  }
};

ScenarioDigest RunChurnScenario(int num_threads) {
  LoadedDb loaded = LoadTinyDb(4, num_threads);
  TopologyManager* topo = loaded.cluster->topology();
  FaultInjector inj(/*seed=*/77);
  // One transient target-side crash mid-scale-out, for coverage of the
  // rollback/resume path inside the deterministic digest.
  inj.ScheduleMigrationCrash(/*ordinal=*/2, /*target_side=*/true,
                             /*permanent=*/false);
  loaded.cluster->ResetForQuery();
  loaded.cluster->SetFaultInjector(&inj);

  ScenarioDigest d;
  d.q13_initial = RunQ(&loaded, 13).seconds;
  topo->AddNode();
  EXPECT_OK(topo->DrainMigration(0.0));
  d.q13_scaled = RunQ(&loaded, 13).seconds;
  topo->DrainNode(0);
  EXPECT_OK(topo->DrainMigration(1.0));
  topo->RemoveNode(0);
  topo->ReinstateNode(0);
  EXPECT_OK(topo->DrainMigration(2.0));
  const QueryRun final_run = RunQ(&loaded, 13);
  d.q13_final = final_run.seconds;
  d.rows_final = final_run.rows;
  d.migration_bytes = topo->stats().migration_bytes;
  d.rows_shipped = topo->stats().rows_shipped;
  d.gc_rows = topo->stats().gc_rows;
  d.tiles_moved = topo->stats().tiles_moved;
  ValidateAll(&loaded);
  loaded.cluster->SetFaultInjector(nullptr);
  return d;
}

TEST(ChurnDeterminismTest, ScenarioBitIdenticalAcrossThreadCounts) {
  const ScenarioDigest one = RunChurnScenario(1);
  const ScenarioDigest eight = RunChurnScenario(8);
  EXPECT_TRUE(one == eight)
      << "modeled churn scenario diverged between 1 and 8 threads: "
      << one.q13_initial << "/" << one.q13_scaled << "/" << one.q13_final
      << " vs " << eight.q13_initial << "/" << eight.q13_scaled << "/"
      << eight.q13_final;
  EXPECT_GT(one.migration_bytes, 0);
  EXPECT_GT(one.gc_rows, 0);
}

}  // namespace
}  // namespace paradise
