// Fault injection, failure recovery, and degraded-mode execution.
//
// Covers the failure semantics contract end to end: checksum detection of
// torn pages, bounded retry with modeled backoff, a node restart after a
// mid-query crash, honestly-charged transfer faults,
// and the acceptance schedule — a seeded run with disk errors, corrupt
// pages, and a node crash against Queries 2 and 5 that still delivers
// correct rows, bit-identical modeled time at 1 and 8 threads, and a
// degraded N−1 completion that costs more than the fault-free run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/database.h"
#include "benchmark/queries.h"
#include "common/status.h"
#include "core/cluster.h"
#include "core/coordinator.h"
#include "core/parallel_ops.h"
#include "core/table.h"
#include "core/topology.h"
#include "datagen/datagen.h"
#include "sim/cost_model.h"
#include "sim/fault_injector.h"
#include "sim/node_clock.h"
#include "storage/buffer_pool.h"
#include "storage/disk_volume.h"
#include "storage/page.h"
#include "storage/slotted_page.h"

namespace paradise {
namespace {

using catalog::PartitioningKind;
using catalog::TableDef;
using core::Cluster;
using core::ParallelTable;
using core::QueryCoordinator;
using exec::Tuple;
using exec::TupleVec;
using exec::Value;
using exec::ValueType;
using sim::DiskFaultKind;
using sim::FaultInjector;
using sim::RetryPolicy;
using storage::BufferPool;
using storage::DiskVolume;
using storage::Page;
using storage::PageId;
using storage::PageNo;

// ---------- Storage-level fault handling ----------

/// One volume + pool with a durable page whose payload is known; the pool
/// is then emptied so the next Pin must fetch from "disk".
struct VolumeFixture {
  sim::NodeClock clock;
  DiskVolume volume;
  BufferPool pool;
  PageNo page_no = storage::kInvalidPageNo;

  VolumeFixture() : volume(/*volume_id=*/7, &clock), pool(8) {
    pool.AttachVolume(&volume);
    page_no = volume.AllocatePage();
    auto guard = pool.Pin(PageId{7, page_no});
    EXPECT_TRUE(guard.ok());
    for (size_t i = 0; i < Page::kPayloadSize; ++i) {
      guard->page()->payload()[i] = static_cast<uint8_t>(i * 31 + 5);
    }
    guard->MarkDirty();
    guard->Release();
    EXPECT_TRUE(pool.FlushAll().ok());
    pool.DiscardAll();
    clock.Reset();
  }

  bool PayloadIntact() {
    auto guard = pool.Pin(PageId{7, page_no});
    if (!guard.ok()) return false;
    for (size_t i = 0; i < Page::kPayloadSize; ++i) {
      if (guard->page()->payload()[i] != static_cast<uint8_t>(i * 31 + 5)) {
        return false;
      }
    }
    return true;
  }
};

TEST(ChecksumTest, TornReadDetectedAndHealedByRetry) {
  VolumeFixture fx;
  FaultInjector inj(/*seed=*/1);
  // First read of the page returns torn bytes; the retry reads clean.
  inj.InjectDiskFault(/*node=*/3, /*volume=*/7, fx.page_no, /*ordinal=*/0,
                      DiskFaultKind::kTornRead);
  fx.volume.SetFaultInjector(&inj, /*node_id=*/3);

  EXPECT_TRUE(fx.PayloadIntact());
  const BufferPool::Stats stats = fx.pool.stats();
  EXPECT_EQ(stats.checksum_failures, 1);
  EXPECT_EQ(stats.read_retries, 1);
  EXPECT_EQ(inj.stats().torn_read_faults, 1);
  // The retry waited out one modeled backoff; nothing slept for real.
  EXPECT_EQ(fx.clock.phase_usage().idle_seconds,
            RetryPolicy::BackoffSeconds(0));
}

TEST(ChecksumTest, PersistentCorruptionSurfacesNotSilentWrongAnswer) {
  VolumeFixture fx;
  FaultInjector inj(/*seed=*/2);
  inj.set_torn_read_rate(1.0);  // every read of every page is torn
  fx.volume.SetFaultInjector(&inj, /*node_id=*/3);

  auto guard = fx.pool.Pin(PageId{7, fx.page_no});
  ASSERT_FALSE(guard.ok());
  EXPECT_EQ(guard.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(fx.pool.stats().checksum_failures, RetryPolicy::kMaxAttempts);
}

TEST(RetryTest, TransientErrorsRetriedWithExponentialBackoff) {
  VolumeFixture fx;
  FaultInjector inj(/*seed=*/3);
  // Three consecutive transient errors, then success on the 4th attempt
  // (the last allowed by the default policy).
  for (int64_t ordinal = 0; ordinal < 3; ++ordinal) {
    inj.InjectDiskFault(3, 7, fx.page_no, ordinal,
                        DiskFaultKind::kTransientError);
  }
  fx.volume.SetFaultInjector(&inj, /*node_id=*/3);

  EXPECT_TRUE(fx.PayloadIntact());
  EXPECT_EQ(fx.pool.stats().read_retries, 3);
  EXPECT_EQ(inj.stats().transient_read_faults, 3);
  // Backoff doubles per retry: 2ms + 4ms + 8ms of modeled idle time.
  const double want = RetryPolicy::BackoffSeconds(0) +
                      RetryPolicy::BackoffSeconds(1) +
                      RetryPolicy::BackoffSeconds(2);
  EXPECT_EQ(fx.clock.phase_usage().idle_seconds, want);
}

TEST(RetryTest, AttemptsAreBoundedThenUnavailableSurfaces) {
  VolumeFixture fx;
  FaultInjector inj(/*seed=*/4);
  inj.set_transient_read_rate(1.0);  // the disk never comes back
  fx.volume.SetFaultInjector(&inj, /*node_id=*/3);

  auto guard = fx.pool.Pin(PageId{7, fx.page_no});
  ASSERT_FALSE(guard.ok());
  EXPECT_EQ(guard.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(fx.pool.stats().read_retries, RetryPolicy::kMaxAttempts - 1);
}

// ---------- Transfer faults ----------

TEST(TransferFaultTest, DroppedBatchChargesTimeoutAndRetransmission) {
  Cluster::Options copts;
  copts.buffer_pool_frames = 64;
  Cluster clean(2, copts);
  Cluster faulty(2, copts);
  FaultInjector inj(/*seed=*/5);
  inj.set_transfer_drop_rate(1.0);
  faulty.SetFaultInjector(&inj);

  const int64_t bytes = 40000;
  clean.ChargeTransfer(0, 1, bytes);
  faulty.ChargeTransfer(0, 1, bytes);

  const sim::ResourceUsage clean_tx = clean.node(0).clock()->phase_usage();
  const sim::ResourceUsage faulty_tx = faulty.node(0).clock()->phase_usage();
  const sim::ResourceUsage clean_rx = clean.node(1).clock()->phase_usage();
  const sim::ResourceUsage faulty_rx = faulty.node(1).clock()->phase_usage();
  // The sender waited out the ack timeout, then both links carried the
  // batch a second time.
  EXPECT_EQ(faulty_tx.idle_seconds, inj.drop_timeout_seconds());
  EXPECT_EQ(faulty_tx.net_bytes, 2 * clean_tx.net_bytes);
  EXPECT_EQ(faulty_rx.net_bytes, 2 * clean_rx.net_bytes);
  EXPECT_EQ(inj.stats().dropped_batches, 1);
}

TEST(TransferFaultTest, DuplicatedBatchChargesReceiverOnly) {
  Cluster::Options copts;
  copts.buffer_pool_frames = 64;
  Cluster clean(2, copts);
  Cluster faulty(2, copts);
  FaultInjector inj(/*seed=*/6);
  inj.set_transfer_duplicate_rate(1.0);
  faulty.SetFaultInjector(&inj);

  const int64_t bytes = 40000;
  clean.ChargeTransfer(0, 1, bytes);
  faulty.ChargeTransfer(0, 1, bytes);

  // Sender unaffected; receiver pays to receive and discard the copy.
  EXPECT_EQ(clean.node(0).clock()->phase_usage().net_bytes,
            faulty.node(0).clock()->phase_usage().net_bytes);
  EXPECT_EQ(faulty.node(1).clock()->phase_usage().net_bytes,
            2 * clean.node(1).clock()->phase_usage().net_bytes);
  EXPECT_GT(faulty.node(1).clock()->phase_usage().cpu_ops,
            clean.node(1).clock()->phase_usage().cpu_ops);
  EXPECT_EQ(inj.stats().duplicated_batches, 1);
}

// ---------- Node restart after a mid-query crash ----------

Tuple IntStringTuple(int64_t id, const std::string& name) {
  return Tuple({Value(id), Value(name)});
}

TableDef IntStringDef(const std::string& name) {
  TableDef def;
  def.name = name;
  def.schema =
      exec::Schema({{"id", ValueType::kInt}, {"name", ValueType::kString}});
  def.partitioning = PartitioningKind::kRoundRobin;
  return def;
}

TEST(RecoveryTest, MidQueryCrashRestartsNodeAndKeepsItsRows) {
  Cluster::Options copts;
  copts.buffer_pool_frames = 256;
  Cluster cluster(1, copts);
  TupleVec rows;
  for (int64_t i = 0; i < 20; ++i) rows.push_back(IntStringTuple(i, "base"));
  auto table = ParallelTable::Load(&cluster, IntStringDef("t"), rows);
  ASSERT_TRUE(table.ok());

  FaultInjector inj(/*seed=*/7);
  // Recoverable crash at the barrier after the first phase.
  inj.ScheduleCrash(/*barrier=*/1, /*node=*/0, /*permanent=*/false);
  cluster.SetFaultInjector(&inj);

  QueryCoordinator coord(&cluster);
  ASSERT_TRUE(coord.BeginQuery().ok());
  Status st = coord.RunPhase("scan", [&](int node) -> Status {
    return (*table)->ScanFragment(&cluster, node, true).status();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();

  // The barrier fired the crash and the coordinator restarted the node.
  ASSERT_EQ(coord.phases().size(), 2u);
  EXPECT_EQ(coord.phases()[1].name, "recover node 0");
  EXPECT_TRUE(coord.phases()[1].sequential);
  EXPECT_GT(coord.phases()[1].seconds, 0.0);
  EXPECT_EQ(inj.stats().crashes, 1);
  // Detection cost: the coordinator waited out the failure timeout.
  EXPECT_GE(coord.query_seconds(), RetryPolicy::kDetectTimeoutSeconds);
  // The node is alive again and the fragment fully readable.
  EXPECT_TRUE(cluster.alive(0));
  auto scan = (*table)->ScanFragment(&cluster, 0, true);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 20u);
}

TEST(RecoveryTest, RestartChargeIsPinned) {
  // A crash loses the node's pool and nothing else: no write path logs and
  // no other state is volatile, so a restart reads nothing back. Its
  // "recover node" phase is the detection timeout on the coordinator's
  // clock, with no node I/O; the node's next scan misses on a cold pool.
  Cluster::Options copts;
  copts.buffer_pool_frames = 256;
  Cluster cluster(2, copts);
  TupleVec rows;
  for (int64_t i = 0; i < 200; ++i) {
    rows.push_back(IntStringTuple(i, std::string(200, 'a')));
  }
  auto table = ParallelTable::Load(&cluster, IntStringDef("t"), rows);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ((*table)->fragment(0).file->num_pages(), 3u);

  FaultInjector inj(/*seed=*/7);
  inj.ScheduleCrash(/*barrier=*/0, /*node=*/0, /*permanent=*/false);
  cluster.SetFaultInjector(&inj);
  QueryCoordinator coord(&cluster);
  // Flushes, empties the pools and zeroes the clocks, then barrier 0
  // fires the crash.
  ASSERT_TRUE(coord.BeginQuery().ok());
  ASSERT_EQ(coord.phases().size(), 1u);
  const QueryCoordinator::PhaseReport& recover = coord.phases()[0];
  EXPECT_EQ(recover.name, "recover node 0");
  EXPECT_TRUE(recover.sequential);
  EXPECT_EQ(recover.max_node_seconds, 0.0);
  EXPECT_EQ(recover.seconds, RetryPolicy::kDetectTimeoutSeconds);
  EXPECT_EQ(recover.total_node_seconds, RetryPolicy::kDetectTimeoutSeconds);
  for (int n = 0; n < 2; ++n) {
    const sim::ResourceUsage usage = cluster.node(n).clock()->total_usage();
    EXPECT_EQ(usage.disk_bytes_read, 0) << "node " << n;
    EXPECT_EQ(usage.disk_bytes_written, 0) << "node " << n;
  }

  Status st = coord.RunPhase("scan", [&](int node) -> Status {
    return (*table)->ScanFragment(&cluster, node, true).status();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  coord.EndQuery();
  EXPECT_EQ(cluster.node(0).clock()->total_usage().disk_bytes_read,
            3 * static_cast<int64_t>(storage::kPageSize));
  cluster.SetFaultInjector(nullptr);
}

// ---------- Persistent page corruption under a heap scan ----------

/// A round-robin table whose pages all reached disk and left the pools,
/// so every scan below must fetch (and verify) from the volumes. Null if
/// the load failed.
std::unique_ptr<ParallelTable> LoadFlushedTable(Cluster* cluster) {
  TupleVec rows;
  for (int64_t i = 0; i < 200; ++i) {
    rows.push_back(
        IntStringTuple(i, std::string(200, static_cast<char>('a' + i % 26))));
  }
  auto table = ParallelTable::Load(cluster, IntStringDef("t"), rows);
  if (!table.ok()) return nullptr;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    EXPECT_TRUE(cluster->node(n).pool()->FlushAll().ok());
    cluster->node(n).pool()->DiscardAll();
  }
  return std::move(table).value();
}

TEST(ChecksumTest, FragmentScanOfPersistentlyCorruptPagesReturnsCorruption) {
  Cluster::Options copts;
  copts.buffer_pool_frames = 64;
  Cluster cluster(2, copts);
  std::unique_ptr<ParallelTable> table = LoadFlushedTable(&cluster);
  ASSERT_NE(table, nullptr);
  ASSERT_GT(table->fragment(0).file->num_pages(), 1u);

  FaultInjector inj(/*seed=*/11);
  inj.set_torn_read_rate(1.0);  // every read of every page is torn
  cluster.SetFaultInjector(&inj);
  // The iterator's pin error is the scan's status, not a process abort.
  for (bool primaries_only : {true, false}) {
    auto scan = table->ScanFragment(&cluster, 0, primaries_only);
    ASSERT_FALSE(scan.ok());
    EXPECT_EQ(scan.status().code(), StatusCode::kCorruption)
        << scan.status().ToString();
  }
  EXPECT_GT(cluster.node(0).pool()->stats().checksum_failures, 0);

  // Once the medium reads clean again the same fragment scans in full.
  cluster.SetFaultInjector(nullptr);
  auto scan = table->ScanFragment(&cluster, 0, /*primaries_only=*/true);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->size(), 100u);
}

TEST(ChecksumTest, SalvageOfPersistentlyCorruptFragmentReturnsCorruption) {
  Cluster::Options copts;
  copts.buffer_pool_frames = 64;
  Cluster cluster(2, copts);
  std::unique_ptr<ParallelTable> table = LoadFlushedTable(&cluster);
  ASSERT_NE(table, nullptr);

  FaultInjector inj(/*seed=*/12);
  inj.set_torn_read_rate(1.0);
  cluster.SetFaultInjector(&inj);
  cluster.MarkNodeDead(1);
  Status st = cluster.topology()->MigrateForLoss(table.get(), 1);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

// ---------- Malformed records on a page that verifies ----------

TEST(MalformedRecordTest, FragmentScanReturnsCorruption) {
  // Rows (id, shape, name) on one node. Each case rewrites row 0's stored
  // record in place, then flushes, so the page is stamped anew and passes
  // its checksum: only the record bytes are wrong.
  Cluster::Options copts;
  copts.buffer_pool_frames = 64;
  Cluster cluster(1, copts);
  TupleVec rows;
  for (int64_t i = 0; i < 30; ++i) {
    const double x = static_cast<double>(i);
    rows.push_back(Tuple({Value(i),
                          Value(geom::Polyline({{x, 0}, {x + 1, 1}, {x, 2}})),
                          Value(std::string("name"))}));
  }
  TableDef def;
  def.name = "lines";
  def.schema = exec::Schema({{"id", ValueType::kInt},
                             {"shape", ValueType::kPolyline},
                             {"name", ValueType::kString}});
  def.partitioning = PartitioningKind::kRoundRobin;
  auto table = ParallelTable::Load(&cluster, def, rows);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const ParallelTable::Fragment& frag = (*table)->fragment(0);
  auto stored = frag.file->Get(frag.oids[0]);
  ASSERT_TRUE(stored.ok());
  const ByteBuffer good = *stored;
  // Stored layout: flag byte, column count, then per value a tag and its
  // payload: int tag @5, int @6, polyline tag @14, point count @15,
  // 3 points @19, string tag @67, length @68.
  ASSERT_EQ(good[14], static_cast<uint8_t>(ValueType::kPolyline));
  ASSERT_EQ(good[67], static_cast<uint8_t>(ValueType::kString));

  struct Case {
    const char* what;
    size_t at;
    uint32_t value;  // written little-endian over `width` bytes
    size_t width;
  };
  const Case cases[] = {
      {"point count past the end", 15, 1u << 20, 4},
      {"unknown value tag", 14, 0xee, 1},
      {"string length past the end", 68, 1u << 20, 4},
  };
  // Row 0's shape misses this box: a filter step that decided on the
  // shape alone would drop the row without reading the broken bytes.
  const exec::ExprPtr box = exec::Overlaps(
      exec::Col(1), exec::Lit(Value(geom::Box(100, 100, 101, 101))));
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    ByteBuffer bad = good;
    std::memcpy(bad.data() + c.at, &c.value, c.width);
    ASSERT_TRUE(frag.file->Update(frag.oids[0], bad).ok());
    ASSERT_TRUE(cluster.node(0).pool()->FlushAll().ok());
    cluster.node(0).pool()->DiscardAll();

    for (bool primaries_only : {true, false}) {
      auto plain = (*table)->ScanFragment(&cluster, 0, primaries_only);
      ASSERT_FALSE(plain.ok());
      EXPECT_EQ(plain.status().code(), StatusCode::kCorruption)
          << plain.status().ToString();
      core::NodeExecContext nc = core::MakeNodeContext(&cluster, 0);
      auto filtered =
          (*table)->ScanFragment(&cluster, 0, primaries_only, box, &nc.ctx);
      ASSERT_FALSE(filtered.ok());
      EXPECT_EQ(filtered.status().code(), StatusCode::kCorruption)
          << filtered.status().ToString();
    }
  }

  // Restored, the fragment scans in full again.
  ASSERT_TRUE(frag.file->Update(frag.oids[0], good).ok());
  auto scan = (*table)->ScanFragment(&cluster, 0, true);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->size(), 30u);
}

TEST(MalformedRecordTest, MalformedSlotDirectoryReturnsCorruption) {
  // Each case rewrites one u16 of row 0's page through the pool and
  // flushes it, so the page is stamped anew and passes its checksum: only
  // the slot directory points outside the payload (or into itself).
  Cluster::Options copts;
  copts.buffer_pool_frames = 64;
  Cluster cluster(1, copts);
  TupleVec rows;
  for (int64_t i = 0; i < 30; ++i) {
    rows.push_back(Tuple({Value(i), Value(std::string("name"))}));
  }
  TableDef def;
  def.name = "names";
  def.schema =
      exec::Schema({{"id", ValueType::kInt}, {"name", ValueType::kString}});
  def.partitioning = PartitioningKind::kRoundRobin;
  auto table = ParallelTable::Load(&cluster, def, rows);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const storage::Oid oid = (*table)->fragment(0).oids[0];
  // Node 0's fragment lives on its first data volume.
  const PageId page{cluster.node(0).data_volume(0)->volume_id(), oid.page};
  BufferPool* pool = cluster.node(0).pool();
  // Overwrites the u16 at payload offset `at`; returns what was there.
  auto rewrite = [&](size_t at, uint16_t value) {
    auto guard = pool->Pin(page);
    EXPECT_TRUE(guard.ok()) << guard.status().ToString();
    uint16_t old = 0;
    if (!guard.ok()) return old;
    std::memcpy(&old, guard->page()->payload() + at, 2);
    std::memcpy(guard->page()->payload() + at, &value, 2);
    guard->MarkDirty();
    return old;
  };
  auto flush = [&]() {
    ASSERT_TRUE(pool->FlushAll().ok());
    pool->DiscardAll();
  };

  const size_t entry = storage::SlottedPage::kSlotDirStart + 4 * oid.slot;
  struct Case {
    const char* what;
    size_t at;
    uint16_t value;
  };
  const Case cases[] = {
      {"record starts past the payload", entry, 0xfff0},
      {"record runs past the payload", entry + 2, 0xffff},
      {"record overlaps the directory", entry, 2},
      {"directory runs past the payload", 0, 0xffff},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const uint16_t good = rewrite(c.at, c.value);
    flush();
    for (bool primaries_only : {true, false}) {
      auto scan = (*table)->ScanFragment(&cluster, 0, primaries_only);
      ASSERT_FALSE(scan.ok());
      EXPECT_EQ(scan.status().code(), StatusCode::kCorruption)
          << scan.status().ToString();
    }
    auto row = (*table)->FetchRow(&cluster, 0, 0);
    ASSERT_FALSE(row.ok());
    EXPECT_EQ(row.status().code(), StatusCode::kCorruption)
        << row.status().ToString();
    rewrite(c.at, good);
    flush();
  }

  // Restored, the fragment scans and fetches in full again.
  auto scan = (*table)->ScanFragment(&cluster, 0, true);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->size(), 30u);
  EXPECT_TRUE((*table)->FetchRow(&cluster, 0, 0).ok());
}

// ---------- Coordinator error paths close the phase ----------

TEST(CoordinatorTest, FailedPhaseDoesNotLeakUsageIntoNextPhase) {
  Cluster::Options copts;
  copts.buffer_pool_frames = 64;
  Cluster cluster(2, copts);
  QueryCoordinator coord(&cluster);
  ASSERT_TRUE(coord.BeginQuery().ok());

  Status st = coord.RunPhase("failing", [&](int node) -> Status {
    cluster.node(node).clock()->ChargeCpu(1e9);
    return node == 1 ? Status::Internal("boom") : Status::OK();
  });
  EXPECT_FALSE(st.ok());
  ASSERT_EQ(coord.phases().size(), 1u);
  const double failed_phase_seconds = coord.phases()[0].seconds;
  EXPECT_GT(failed_phase_seconds, 0.0);

  // The failed phase was closed: a later phase accounts only its own work.
  ASSERT_TRUE(coord.RunPhase("clean", [&](int node) -> Status {
    cluster.node(node).clock()->ChargeCpu(1.0);
    return Status::OK();
  }).ok());
  ASSERT_EQ(coord.phases().size(), 2u);
  EXPECT_LT(coord.phases()[1].seconds, failed_phase_seconds / 1e6);
}

TEST(CoordinatorTest, FailedSequentialStepClosesPhase) {
  Cluster::Options copts;
  copts.buffer_pool_frames = 64;
  Cluster cluster(1, copts);
  QueryCoordinator coord(&cluster);
  ASSERT_TRUE(coord.BeginQuery().ok());
  Status st = coord.RunSequential("bad merge", [&]() -> Status {
    cluster.coordinator_clock()->ChargeCpu(1e6);
    return Status::InvalidArgument("bad");
  });
  EXPECT_FALSE(st.ok());
  ASSERT_EQ(coord.phases().size(), 1u);
  EXPECT_GT(coord.phases()[0].seconds, 0.0);
  EXPECT_EQ(coord.phases()[0].seconds, coord.query_seconds());
}

// ---------- Acceptance: the seeded schedule against Queries 2 and 5 ------

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

/// The acceptance fault schedule: transient disk errors, torn pages,
/// dropped and duplicated batches, and one node-crash event.
///  - A permanent crash draws the disk-read faults at random, 5% each.
///  - A recoverable crash's restart reads nothing back, so the query's own
///    reads must meet both kinds, however few pages it reads: the first
///    read of every data-volume page is a transient error and its retry a
///    torn read; the third attempt succeeds.
void ConfigureAcceptanceFaults(FaultInjector* inj, Cluster* cluster,
                               bool permanent_crash) {
  inj->set_transfer_drop_rate(0.02);
  inj->set_transfer_duplicate_rate(0.02);
  // Node 2 fails at the barrier after the first phase (recoverable) or
  // right at query start (permanent, so the whole query runs degraded).
  inj->ScheduleCrash(permanent_crash ? 0 : 1, /*node=*/2, permanent_crash);
  if (permanent_crash) {
    inj->set_transient_read_rate(0.05);
    inj->set_torn_read_rate(0.05);
    return;
  }
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    for (int v = 0; v < core::Node::kDataVolumes; ++v) {
      const DiskVolume* volume = cluster->node(n).data_volume(v);
      for (uint32_t page = 0; page < volume->num_pages(); ++page) {
        inj->InjectDiskFault(static_cast<uint32_t>(n), volume->volume_id(),
                             page, /*ordinal=*/0,
                             DiskFaultKind::kTransientError);
        inj->InjectDiskFault(static_cast<uint32_t>(n), volume->volume_id(),
                             page, /*ordinal=*/1, DiskFaultKind::kTornRead);
      }
    }
  }
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

struct FaultedRun {
  double seconds = 0.0;
  std::vector<std::string> rows;  // sorted render (gather order may vary)
  FaultInjector::Stats fault_stats;
};

FaultedRun RunFaulted(int query, int num_threads, bool permanent_crash,
                      uint64_t seed) {
  LoadedDb loaded = LoadTinyDb(4, num_threads);
  FaultInjector inj(seed);
  ConfigureAcceptanceFaults(&inj, loaded.cluster.get(), permanent_crash);
  // Wire after load so fault ordinals start from the same (empty) state
  // regardless of how the load was scheduled.
  loaded.cluster->SetFaultInjector(&inj);
  auto r = benchmark::RunQueryByNumber(loaded.db.get(), query);
  EXPECT_TRUE(r.ok()) << "query " << query << ": " << r.status().ToString();
  FaultedRun out;
  if (r.ok()) {
    out.seconds = r->seconds;
    out.rows = RenderRowsSorted(r->rows);
  }
  out.fault_stats = inj.stats();
  if (permanent_crash) {
    EXPECT_EQ(loaded.cluster->num_alive(), 3);
    EXPECT_FALSE(loaded.cluster->alive(2));
  }
  loaded.cluster->SetFaultInjector(nullptr);
  return out;
}

FaultedRun RunFaultFree(int query, int num_threads) {
  LoadedDb loaded = LoadTinyDb(4, num_threads);
  auto r = benchmark::RunQueryByNumber(loaded.db.get(), query);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  FaultedRun out;
  if (r.ok()) {
    out.seconds = r->seconds;
    out.rows = RenderRowsSorted(r->rows);
  }
  return out;
}

class FaultScheduleAcceptanceTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultScheduleAcceptanceTest, RecoverableScheduleCorrectAndDeterministic) {
  const int query = GetParam();
  FaultedRun clean = RunFaultFree(query, /*num_threads=*/8);
  FaultedRun f1 = RunFaulted(query, /*num_threads=*/1, /*permanent=*/false,
                             /*seed=*/0xfa01);
  FaultedRun f8 = RunFaulted(query, /*num_threads=*/8, /*permanent=*/false,
                             /*seed=*/0xfa01);

  // The schedule actually fired faults of each kind.
  EXPECT_GT(f8.fault_stats.transient_read_faults, 0);
  EXPECT_GT(f8.fault_stats.torn_read_faults, 0);
  EXPECT_EQ(f8.fault_stats.crashes, 1);
  // Correct rows despite the faults.
  EXPECT_EQ(f8.rows, clean.rows) << "query " << query;
  // Bit-identical modeled time and identical decisions at 1 vs 8 threads.
  EXPECT_EQ(f1.seconds, f8.seconds) << "query " << query;
  EXPECT_EQ(f1.rows, f8.rows);
  EXPECT_EQ(f1.fault_stats.transient_read_faults,
            f8.fault_stats.transient_read_faults);
  EXPECT_EQ(f1.fault_stats.torn_read_faults, f8.fault_stats.torn_read_faults);
  EXPECT_EQ(f1.fault_stats.dropped_batches, f8.fault_stats.dropped_batches);
  EXPECT_EQ(f1.fault_stats.duplicated_batches,
            f8.fault_stats.duplicated_batches);
  // Faults cost modeled time: backoff, detection, recovery, re-reads.
  EXPECT_GT(f8.seconds, clean.seconds) << "query " << query;
}

TEST_P(FaultScheduleAcceptanceTest, DegradedNMinusOneCompletesCorrectly) {
  const int query = GetParam();
  FaultedRun clean = RunFaultFree(query, /*num_threads=*/8);
  FaultedRun d1 = RunFaulted(query, /*num_threads=*/1, /*permanent=*/true,
                             /*seed=*/0xdead01);
  FaultedRun d8 = RunFaulted(query, /*num_threads=*/8, /*permanent=*/true,
                             /*seed=*/0xdead01);

  // N−1 completion with the full answer.
  EXPECT_EQ(d8.rows, clean.rows) << "query " << query;
  // Degraded time exceeds fault-free: detection + redeclustering the dead
  // node's fragments + the survivors absorbing its share of the work.
  EXPECT_GT(d8.seconds, clean.seconds) << "query " << query;
  // Deterministic across thread counts even with the node loss.
  EXPECT_EQ(d1.seconds, d8.seconds) << "query " << query;
  EXPECT_EQ(d1.rows, d8.rows);
}

INSTANTIATE_TEST_SUITE_P(Queries, FaultScheduleAcceptanceTest,
                         ::testing::Values(2, 5, 11, 13));

// ---------- Degraded-mode redeclustering invariants ----------

TEST(DegradedModeTest, RedeclusterPreservesEveryTableRow) {
  LoadedDb loaded = LoadTinyDb(4, /*num_threads=*/4);
  benchmark::BenchmarkDatabase* db = loaded.db.get();
  ParallelTable* tables[] = {&db->places(), &db->roads(), &db->drainage(),
                             &db->land_cover(), &db->raster()};
  std::vector<int64_t> rows_before;
  for (ParallelTable* t : tables) rows_before.push_back(t->num_rows());

  loaded.cluster->MarkNodeDead(2);
  ASSERT_TRUE(loaded.cluster->topology()->MigrateAllForLoss(2).ok());

  for (size_t i = 0; i < std::size(tables); ++i) {
    EXPECT_EQ(tables[i]->num_rows(), rows_before[i])
        << tables[i]->def().name;
    EXPECT_EQ(tables[i]->fragment(2).num_rows(), 0)
        << tables[i]->def().name;
    // Every surviving fragment is scannable and primaries sum to the
    // logical cardinality.
    int64_t primaries = 0;
    for (int n = 0; n < 4; ++n) {
      if (n == 2) continue;
      auto scan = tables[i]->ScanFragment(loaded.cluster.get(), n, true);
      ASSERT_TRUE(scan.ok()) << tables[i]->def().name << " node " << n;
      primaries += static_cast<int64_t>(scan->size());
    }
    EXPECT_EQ(primaries, rows_before[i]) << tables[i]->def().name;
  }
  // The salvage + shipping work was charged (to the open phase — no
  // coordinator closed it here): the dead node paid to read its fragments
  // off its surviving disks and the survivors received bytes.
  EXPECT_GT(loaded.cluster->node(2).clock()->phase_usage().cpu_ops, 0.0);
  int64_t received = 0;
  for (int n = 0; n < 4; ++n) {
    if (n == 2) continue;
    received += loaded.cluster->node(n).clock()->phase_usage().net_bytes;
  }
  EXPECT_GT(received, 0);
}

TEST(RecoveryTest, RestartAfterCopyOnInsertReadsOnlyLiveFiles) {
  // Queries 6 and 4 each store a result table and drop it again. A later
  // crash and restart of node 1 reads no file at all, live or dropped:
  // the restart rebuilds nothing from disk.
  LoadedDb loaded = LoadTinyDb(4, /*num_threads=*/1);
  benchmark::BenchmarkDatabase* db = loaded.db.get();
  ASSERT_TRUE(benchmark::RunQueryByNumber(db, 6).ok());
  ASSERT_TRUE(benchmark::RunQueryByNumber(db, 4).ok());

  FaultInjector inj(/*seed=*/7);
  inj.ScheduleCrash(/*barrier=*/0, /*node=*/1, /*permanent=*/false);
  loaded.cluster->SetFaultInjector(&inj);
  QueryCoordinator coord(loaded.cluster.get());
  // Zeroes the clocks, then barrier 0 fires the crash.
  Status st = coord.BeginQuery();
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(coord.phases().size(), 1u);
  EXPECT_EQ(coord.phases()[0].name, "recover node 1");
  EXPECT_EQ(coord.phases()[0].max_node_seconds, 0.0);
  const sim::ResourceUsage usage =
      loaded.cluster->node(1).clock()->total_usage();
  EXPECT_EQ(usage.disk_bytes_read, 0);
  EXPECT_EQ(usage.disk_seeks, 0);
  coord.EndQuery();
  loaded.cluster->SetFaultInjector(nullptr);
}

}  // namespace
}  // namespace paradise
