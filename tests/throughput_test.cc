// Concurrent multi-query workload: admission control, deterministic
// scheduling, contention charging, scan sharing, and the result cache —
// plus the cross-query state-leak regressions the workload exposed:
//
//  * PbsmSpatialJoin left its stats sink untouched on the empty-input
//    short-circuit, so a join-free (or empty-fragment) run reported the
//    previous query's join shape.
//  * A phase abandoned by a thrown closure never reached ClosePhase, so
//    its charges sat on the node clocks and were folded into whatever
//    phase ran next on them.
//
// The workload tests run every schedule twice — at 1 and at 8 pool
// threads — and require bit-identical modeled results (sample times, row
// counts, pool counters), clean and faulted.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/database.h"
#include "benchmark/queries.h"
#include "benchmark/workload.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/cluster.h"
#include "core/coordinator.h"
#include "datagen/datagen.h"
#include "exec/exec_context.h"
#include "exec/spatial_join.h"
#include "geom/point.h"
#include "geom/polyline.h"
#include "sim/cost_model.h"
#include "sim/fault_injector.h"
#include "storage/page.h"

namespace paradise {
namespace {

using benchmark::RunWorkload;
using benchmark::WorkloadOptions;
using benchmark::WorkloadReport;
using core::Cluster;
using core::ContentionModel;
using core::QueryCoordinator;
using core::WorkloadSession;
using exec::ExecContext;
using exec::PbsmJoinStats;
using exec::Tuple;
using exec::TupleVec;
using exec::Value;
using geom::Point;
using geom::Polyline;
using sim::FaultInjector;

// ---------- Fixtures ----------

TupleVec MakeLines(uint64_t seed, int n) {
  Rng rng(seed);
  TupleVec out;
  for (int i = 0; i < n; ++i) {
    double x = rng.NextDouble(-50, 50);
    double y = rng.NextDouble(-50, 50);
    std::vector<Point> pts;
    for (int k = 0; k < 5; ++k) {
      pts.push_back(Point{x + k * 0.4, y + ((k % 2) ? 0.5 : -0.3)});
    }
    out.push_back(Tuple({Value(static_cast<int64_t>(i)),
                         Value(Polyline(std::move(pts)))}));
  }
  return out;
}

struct LoadedDb {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<benchmark::BenchmarkDatabase> db;
};

/// Tiny benchmark database on a 4-node cluster with a configurable pool
/// size (which alone fixes the pool's shard count): the workload tests
/// shrink it until repeated scans really do I/O.
LoadedDb LoadTinyDb(int num_threads, size_t pool_frames = 2048,
                    uint32_t raster_size = 96) {
  LoadedDb out;
  Cluster::Options copts;
  copts.buffer_pool_frames = pool_frames;
  out.cluster = std::make_unique<Cluster>(4, copts);
  out.cluster->SetNumThreads(num_threads);
  datagen::DataSetOptions dopts;
  dopts.size_fraction = 1.0 / 1000;
  dopts.num_dates = 8;
  dopts.base_raster_size = raster_size;
  datagen::GlobalDataSet ds = datagen::GenerateGlobalDataSet(dopts);
  benchmark::LoadOptions lopts;
  lopts.tiles_per_axis = 20;
  auto db = benchmark::BenchmarkDatabase::Load(out.cluster.get(), ds, lopts);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  out.db = std::move(*db);
  return out;
}

// ---------- Contention model ----------

TEST(ContentionModelTest, ZeroCoRunnersIsBitIdenticalToPlainCost) {
  sim::CostModel model;
  sim::ResourceUsage u;
  u.disk_seeks = 37;
  u.disk_bytes_read = 5 * 1024 * 1024;
  u.disk_bytes_written = 128 * 1024;
  u.net_messages = 19;
  u.net_bytes = 3 * 1024 * 1024;
  u.cpu_ops = 1.5e7;
  u.idle_seconds = 0.125;
  ContentionModel c;
  // Exact equality on purpose: a lone query in workload mode must cost
  // bit-identically what it costs in single-query mode.
  EXPECT_EQ(c.SecondsUnder(model, u, 0), model.Seconds(u));
  EXPECT_GT(c.SecondsUnder(model, u, 1), model.Seconds(u));
  EXPECT_GT(c.SecondsUnder(model, u, 3), c.SecondsUnder(model, u, 1));
  // Only shared resources are surcharged: pure CPU + idle is flat.
  sim::ResourceUsage cpu_only;
  cpu_only.cpu_ops = 1e8;
  cpu_only.idle_seconds = 0.5;
  EXPECT_EQ(c.SecondsUnder(model, cpu_only, 7), model.Seconds(cpu_only));
}

// ---------- State-leak regressions ----------

// Regression: before the fix, PbsmSpatialJoin returned early on empty
// input WITHOUT touching ctx.pbsm_stats, so the sink kept the previous
// join's numbers and the caller attributed them to the wrong query.
TEST(PbsmStatsLeakTest, EmptyInputJoinClearsStaleStatsSink) {
  TupleVec left = MakeLines(11, 400);
  TupleVec right = MakeLines(12, 400);
  PbsmJoinStats stats;
  ExecContext ctx;
  ctx.pbsm_stats = &stats;
  exec::PbsmOptions opts;
  opts.num_partitions = 16;

  auto r1 = exec::PbsmSpatialJoin(left, 1, right, 1, ctx, opts);
  ASSERT_TRUE(r1.ok());
  ASSERT_GT(stats.partitions, 0u) << "non-empty join must fill the sink";
  ASSERT_GT(stats.left_tuples, 0);

  // Same context, next "query": an empty probe side.
  TupleVec empty;
  auto r2 = exec::PbsmSpatialJoin(empty, 1, right, 1, ctx, opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 0u);
  EXPECT_EQ(stats, PbsmJoinStats{})
      << "empty-input join must report an empty join, not the previous one";
}

TEST(PbsmStatsLeakTest, BackToBackQ13RunsReportIdenticalJoinStats) {
  LoadedDb loaded = LoadTinyDb(/*num_threads=*/4);
  auto r1 = benchmark::RunQuery13(loaded.db.get());
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = benchmark::RunQuery13(loaded.db.get());
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_GT(r1->pbsm.partitions, 0u) << "Q13 runs a PBSM join";
  EXPECT_EQ(r1->pbsm, r2->pbsm);
  EXPECT_EQ(r1->rows.size(), r2->rows.size());
}

TEST(PbsmStatsLeakTest, JoinFreeQueryAfterJoinQueryReportsNoJoin) {
  LoadedDb loaded = LoadTinyDb(/*num_threads=*/4);
  auto join = benchmark::RunQuery13(loaded.db.get());
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ASSERT_GT(join->pbsm.partitions, 0u);
  auto select = benchmark::RunQuery5(loaded.db.get());
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  EXPECT_EQ(select->pbsm, PbsmJoinStats{})
      << "a join-free query must not inherit the previous query's join";
}

TEST(PbsmStatsLeakTest, Q11WarmRunsAreIdentical) {
  LoadedDb loaded = LoadTinyDb(/*num_threads=*/4);
  // Run 1 warms the disk-arm positions (head continuity persists across
  // queries by design); runs 2 and 3 start from identical global state.
  auto r1 = benchmark::RunQuery11(loaded.db.get());
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = benchmark::RunQuery11(loaded.db.get());
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  auto r3 = benchmark::RunQuery11(loaded.db.get());
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(r2->seconds, r3->seconds);
  EXPECT_EQ(r2->rows.size(), r3->rows.size());
  EXPECT_EQ(r2->phases.size(), r3->phases.size());
  EXPECT_EQ(r1->pbsm, r2->pbsm);
  EXPECT_EQ(r2->pbsm, r3->pbsm);
}

// Regression: before the fix, a phase whose closure threw never reached
// ClosePhase; the charges made before the throw stayed in the node
// clocks' open phase and were folded into the NEXT phase closed on them.
TEST(PhaseAccountingTest, ThrownPhaseChargesStayWithTheFailingPhase) {
  Cluster cluster(2);
  cluster.SetNumThreads(2);
  QueryCoordinator coord(&cluster);
  ASSERT_TRUE(coord.BeginQuery().ok());

  EXPECT_THROW(
      {
        Status st = coord.RunPhase("explodes", [&](int node) -> Status {
          cluster.node(node).clock()->ChargeDiskRead(8 << 20, 4);
          if (node == 0) throw std::runtime_error("node 0 died mid-phase");
          return Status::OK();
        });
        (void)st;
      },
      std::runtime_error);

  // The aborted phase was still closed, with its own charges.
  ASSERT_EQ(coord.phases().size(), 1u);
  EXPECT_EQ(coord.phases()[0].name, "explodes");
  EXPECT_GT(coord.phases()[0].seconds, 0.0);

  // A clean follow-up phase must cost exactly nothing.
  ASSERT_TRUE(
      coord.RunPhase("clean", [](int) { return Status::OK(); }).ok());
  ASSERT_EQ(coord.phases().size(), 2u);
  EXPECT_EQ(coord.phases()[1].seconds, 0.0)
      << "charges of the thrown phase leaked into the next phase";
}

TEST(PhaseAccountingTest, ThrownSequentialPhaseIsClosedToo) {
  Cluster cluster(2);
  cluster.SetNumThreads(1);
  QueryCoordinator coord(&cluster);
  ASSERT_TRUE(coord.BeginQuery().ok());
  EXPECT_THROW(
      {
        Status st = coord.RunSequential("seq explodes", [&]() -> Status {
          cluster.coordinator_clock()->ChargeCpu(1e9);
          throw std::runtime_error("sequential operator died");
        });
        (void)st;
      },
      std::runtime_error);
  ASSERT_EQ(coord.phases().size(), 1u);
  EXPECT_GT(coord.phases()[0].seconds, 0.0);
  ASSERT_TRUE(
      coord.RunPhase("clean", [](int) { return Status::OK(); }).ok());
  EXPECT_EQ(coord.phases().back().seconds, 0.0);
}

// In workload mode there is no cold-start reset between queries, so an
// abandoned query's open-phase usage must be discarded explicitly — by
// ~QueryCoordinator (EndQuery) and again defensively by BeginQuery.
TEST(PhaseAccountingTest, FaultedThenCleanQueryBackToBackInWorkloadMode) {
  Cluster cluster(2);
  cluster.SetNumThreads(1);
  WorkloadSession::Options sopts;
  sopts.num_streams = 1;
  WorkloadSession session(&cluster, sopts);
  cluster.set_workload_session(&session);
  session.BindStream(0);

  session.AwaitAdmission(0.0);
  double faulted_seconds = 0.0;
  {
    QueryCoordinator faulted(&cluster);
    ASSERT_TRUE(faulted.BeginQuery().ok());
    EXPECT_THROW(
        {
          Status st = faulted.RunPhase("charges then dies", [&](int n) -> Status {
            cluster.node(n).clock()->ChargeDiskRead(16 << 20, 8);
            throw std::runtime_error("abandoned");
          });
          (void)st;
        },
        std::runtime_error);
    faulted_seconds = faulted.query_seconds();
    // Charge more AFTER the last closed phase — this is the open-phase
    // residue an abandoned query leaves behind.
    cluster.node(0).clock()->ChargeDiskRead(32 << 20, 16);
  }  // ~QueryCoordinator runs EndQuery -> DiscardOpenPhase
  EXPECT_GT(faulted_seconds, 0.0);
  session.FinishQuery(faulted_seconds);

  session.AwaitAdmission(1.0);
  QueryCoordinator clean(&cluster);
  ASSERT_TRUE(clean.BeginQuery().ok());
  ASSERT_TRUE(
      clean.RunPhase("clean", [](int) { return Status::OK(); }).ok());
  EXPECT_EQ(clean.query_seconds(), 0.0)
      << "the abandoned query's residue leaked into the next query";
  session.FinishQuery(clean.query_seconds());
  session.EndStream();
  cluster.set_workload_session(nullptr);
}

// ---------- Result cache ----------

TEST(ResultCacheTest, CausalityInvalidationAndCounters) {
  Cluster cluster(2);
  cluster.SetNumThreads(1);
  WorkloadSession::Options sopts;
  sopts.num_streams = 1;
  WorkloadSession session(&cluster, sopts);
  cluster.set_workload_session(&session);
  session.BindStream(0);

  WorkloadSession::Ticket* t1 = session.AwaitAdmission(0.0);
  TupleVec rows;
  rows.push_back(Tuple({Value(static_cast<int64_t>(42))}));

  // Published in this query's future: invisible (modeled causality).
  session.PublishResult("q", {"base"}, rows, t1->admit_seconds + 5.0);
  TupleVec out;
  double serve = 0.0;
  EXPECT_FALSE(session.LookupCachedResult("q", &out, &serve));
  session.FinishQuery(1.0);

  // Admitted after the publish instant: visible, and serving costs time.
  session.AwaitAdmission(10.0);
  EXPECT_TRUE(session.LookupCachedResult("q", &out, &serve));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].values[0].AsInt(), 42);
  EXPECT_GT(serve, 0.0);

  // Mutating a dependency (via the coordinator hook) invalidates.
  QueryCoordinator coord(&cluster);
  coord.NoteTableMutation("base");
  EXPECT_FALSE(session.LookupCachedResult("q", &out, &serve));

  session.FinishQuery(0.0);
  session.EndStream();
  cluster.set_workload_session(nullptr);

  EXPECT_EQ(session.cache_hits(), 1);
  EXPECT_EQ(session.cache_misses(), 2);
  EXPECT_EQ(session.cache_invalidations(), 1);
}

TEST(ResultCacheTest, RepeatedPointQueriesHitInWorkload) {
  LoadedDb loaded = LoadTinyDb(/*num_threads=*/4);
  WorkloadOptions wopts;
  wopts.num_streams = 2;
  wopts.queries_per_stream = 4;
  wopts.mix = {5};
  wopts.mean_think_seconds = 0.5;
  auto report = RunWorkload(loaded.db.get(), wopts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->samples.size(), 8u);
  EXPECT_GE(report->cache_hits, 1);
  EXPECT_GE(report->cache_misses, 1);
  // Hit or miss, Q5 always returns the same rows.
  for (const WorkloadReport::Sample& s : report->samples) {
    EXPECT_EQ(s.rows, report->samples[0].rows);
  }
  // With the cache off, every query runs.
  LoadedDb plain = LoadTinyDb(/*num_threads=*/4);
  wopts.session.result_cache = false;
  auto uncached = RunWorkload(plain.db.get(), wopts);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  EXPECT_EQ(uncached->cache_hits, 0);
  EXPECT_LE(report->makespan_seconds, uncached->makespan_seconds)
      << "serving from cache cannot be slower than recomputing";
}

// ---------- Admission control ----------

TEST(AdmissionTest, MaxConcurrentOneSerializesQueries) {
  LoadedDb loaded = LoadTinyDb(/*num_threads=*/4);
  WorkloadOptions wopts;
  wopts.num_streams = 3;
  wopts.queries_per_stream = 2;
  wopts.mix = {5};
  wopts.mean_think_seconds = 0.0;
  wopts.session.max_concurrent = 1;
  wopts.session.result_cache = false;  // every query really runs
  auto report = RunWorkload(loaded.db.get(), wopts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->samples.size(), 6u);

  std::vector<WorkloadReport::Sample> by_admit = report->samples;
  std::sort(by_admit.begin(), by_admit.end(),
            [](const auto& a, const auto& b) {
              return a.admit_seconds < b.admit_seconds;
            });
  for (size_t i = 1; i < by_admit.size(); ++i) {
    EXPECT_GE(by_admit[i].admit_seconds, by_admit[i - 1].end_seconds)
        << "window of 1 admitted two queries concurrently";
    EXPECT_GE(by_admit[i].admit_seconds, by_admit[i].submit_seconds);
  }
}

TEST(AdmissionTest, ContentionChargesOnlyUnderConcurrency) {
  // One stream: every phase sees K = 0, so the workload-mode cost equals
  // the plain single-query cost bit-for-bit (after the same warm-up).
  LoadedDb a = LoadTinyDb(/*num_threads=*/4);
  WorkloadOptions one;
  one.num_streams = 1;
  one.queries_per_stream = 2;
  one.mix = {5};
  // Zero think time keeps admit_seconds at exactly 0.0, so the sample's
  // end - admit subtraction reproduces the latency without rounding.
  one.mean_think_seconds = 0.0;
  one.session.result_cache = false;
  one.session.scan_sharing = false;
  auto lone = RunWorkload(a.db.get(), one);
  ASSERT_TRUE(lone.ok()) << lone.status().ToString();

  LoadedDb b = LoadTinyDb(/*num_threads=*/4);
  b.cluster->ResetForQuery();
  auto q1 = benchmark::RunQuery5(b.db.get());
  ASSERT_TRUE(q1.ok());
  // The workload's first sample ran on cold pools exactly like a plain
  // cold-protocol query; its latency is the same modeled seconds.
  EXPECT_EQ(lone->samples[0].end_seconds - lone->samples[0].admit_seconds,
            q1->seconds);
}

// ---------- Scan sharing ----------

struct SharingRun {
  WorkloadReport report;
};

/// The scan-sharing régime needs scans that are long (many clip tiles per
/// raster, many dates) relative to think time, against a pool too small to
/// retain them — otherwise a granted follower finds the leader's pages
/// still resident and has no I/O left to share.
LoadedDb LoadScanDb(int num_threads) {
  LoadedDb out;
  Cluster::Options copts;
  copts.buffer_pool_frames = 16;
  out.cluster = std::make_unique<Cluster>(4, copts);
  out.cluster->SetNumThreads(num_threads);
  datagen::DataSetOptions dopts;
  dopts.size_fraction = 1.0 / 512;
  dopts.num_dates = 16;
  dopts.base_raster_size = 128;
  datagen::GlobalDataSet ds = datagen::GenerateGlobalDataSet(dopts);
  benchmark::LoadOptions lopts;
  lopts.tile_bytes = 2048;
  auto db = benchmark::BenchmarkDatabase::Load(out.cluster.get(), ds, lopts);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  out.db = std::move(*db);
  return out;
}

WorkloadReport RunScanWorkload(bool sharing, int num_threads) {
  LoadedDb loaded = LoadScanDb(num_threads);
  WorkloadOptions wopts;
  wopts.num_streams = 4;
  wopts.queries_per_stream = 3;
  wopts.mix = {2};
  wopts.mean_think_seconds = 0.02;
  wopts.session.result_cache = false;
  wopts.session.scan_sharing = sharing;
  auto report = RunWorkload(loaded.db.get(), wopts);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? *report : WorkloadReport{};
}

TEST(ScanSharingTest, SharingReducesChargedReadaheadWindows) {
  WorkloadReport shared = RunScanWorkload(/*sharing=*/true, 4);
  WorkloadReport unshared = RunScanWorkload(/*sharing=*/false, 4);
  ASSERT_EQ(shared.samples.size(), unshared.samples.size());

  EXPECT_GT(shared.scan_shared_windows, 0)
      << "concurrent identical scans never attached";
  EXPECT_EQ(unshared.scan_shared_windows, 0);
  EXPECT_LT(shared.readahead_batches, unshared.readahead_batches)
      << "attached windows must replace charged readahead, not add to it";
  // Sharing changes the I/O charging, never the answers.
  for (size_t i = 0; i < shared.samples.size(); ++i) {
    EXPECT_EQ(shared.samples[i].rows, unshared.samples[i].rows);
    EXPECT_EQ(shared.samples[i].query, unshared.samples[i].query);
  }
  EXPECT_LE(shared.makespan_seconds, unshared.makespan_seconds)
      << "riding another scan's I/O cannot cost more than paying for it";
}

// ---------- Workload determinism ----------

WorkloadOptions MixedWorkloadOptions() {
  WorkloadOptions wopts;
  wopts.num_streams = 4;
  wopts.queries_per_stream = 4;
  wopts.mix = {2, 5, 7};
  wopts.mean_think_seconds = 0.05;
  return wopts;
}

WorkloadReport RunMixedWorkload(int num_threads, bool faulted) {
  // 128 frames: two shards of 64.
  LoadedDb loaded = LoadTinyDb(num_threads, /*pool_frames=*/128);
  FaultInjector inj(/*seed=*/0xfeed);
  if (faulted) {
    // The tiny database does only a few dozen cold reads before it is
    // fully pool-resident, so rates must be high for any fault to fire.
    inj.set_transient_read_rate(0.2);
    inj.set_torn_read_rate(0.2);
    loaded.cluster->SetFaultInjector(&inj);
  }
  auto report = RunWorkload(loaded.db.get(), MixedWorkloadOptions());
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (faulted) {
    EXPECT_GT(inj.stats().transient_read_faults + inj.stats().torn_read_faults,
              0)
        << "the faulted schedule never actually faulted";
  }
  loaded.cluster->SetFaultInjector(nullptr);
  return report.ok() ? *report : WorkloadReport{};
}

TEST(WorkloadDeterminismTest, InterleavedScheduleBitIdenticalAcrossThreads) {
  WorkloadReport t1 = RunMixedWorkload(/*num_threads=*/1, /*faulted=*/false);
  WorkloadReport t8 = RunMixedWorkload(/*num_threads=*/8, /*faulted=*/false);
  ASSERT_EQ(t1.samples.size(), t8.samples.size());
  for (size_t i = 0; i < t1.samples.size(); ++i) {
    EXPECT_EQ(t1.samples[i], t8.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(t1.makespan_seconds, t8.makespan_seconds);
  EXPECT_EQ(t1.readahead_batches, t8.readahead_batches);
  EXPECT_EQ(t1.readahead_pages, t8.readahead_pages);
  EXPECT_EQ(t1.scan_shared_windows, t8.scan_shared_windows);
  EXPECT_EQ(t1.scan_shared_pages, t8.scan_shared_pages);
  EXPECT_EQ(t1.pool_hits, t8.pool_hits);
  EXPECT_EQ(t1.pool_misses, t8.pool_misses);
  EXPECT_EQ(t1.cache_hits, t8.cache_hits);
  EXPECT_EQ(t1.scan_attaches, t8.scan_attaches);
  EXPECT_EQ(t1.Digest(), t8.Digest());
}

TEST(WorkloadDeterminismTest, FaultedScheduleBitIdenticalAcrossThreads) {
  WorkloadReport t1 = RunMixedWorkload(/*num_threads=*/1, /*faulted=*/true);
  WorkloadReport t8 = RunMixedWorkload(/*num_threads=*/8, /*faulted=*/true);
  ASSERT_EQ(t1.samples.size(), t8.samples.size());
  for (size_t i = 0; i < t1.samples.size(); ++i) {
    EXPECT_EQ(t1.samples[i], t8.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(t1.Digest(), t8.Digest());

  // Faults are charged honestly: retries and backoff make the faulted
  // schedule's total client-observed latency strictly larger. (Makespan
  // alone can hide a fault that lands off the critical path, so sum over
  // every query instead.)
  WorkloadReport clean = RunMixedWorkload(/*num_threads=*/1, /*faulted=*/false);
  auto total_latency = [](const WorkloadReport& r) {
    double t = 0.0;
    for (const auto& s : r.samples) t += s.latency_seconds();
    return t;
  };
  EXPECT_GT(total_latency(t1), total_latency(clean));
}

TEST(WorkloadDeterminismTest, RepeatRunsOnFreshDatabasesAreIdentical) {
  WorkloadReport a = RunMixedWorkload(/*num_threads=*/4, /*faulted=*/false);
  WorkloadReport b = RunMixedWorkload(/*num_threads=*/4, /*faulted=*/false);
  EXPECT_EQ(a.Digest(), b.Digest());
}

}  // namespace
}  // namespace paradise
