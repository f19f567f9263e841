#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchmark/database.h"
#include "benchmark/queries.h"
#include "core/cluster.h"
#include "datagen/datagen.h"
#include "sim/fault_injector.h"
#include "sim/node_clock.h"
#include "storage/buffer_pool.h"
#include "storage/disk_volume.h"
#include "storage/page.h"

namespace paradise {
namespace {

using sim::FaultInjector;
using sim::NodeClock;
using sim::ResourceUsage;
using sim::RetryPolicy;
using storage::BufferPool;
using storage::DiskVolume;
using storage::kPageSize;
using storage::Page;
using storage::PageGuard;
using storage::PageId;
using storage::PageNo;

/// Writes `count` pages to the volume, payload byte 0 tagged with the page
/// number so reads can be content-checked.
void WriteTaggedPages(DiskVolume* volume, PageNo first, uint32_t count) {
  for (uint32_t i = 0; i < count; ++i) {
    Page p;
    p.payload()[0] = static_cast<uint8_t>((first + i) & 0xff);
    const Page* pages[] = {&p};
    ASSERT_TRUE(volume->WriteRun(first + i, 1, pages).ok());
  }
}

ResourceUsage UsageDelta(const ResourceUsage& before,
                         const ResourceUsage& after) {
  ResourceUsage d;
  d.disk_seeks = after.disk_seeks - before.disk_seeks;
  d.disk_bytes_read = after.disk_bytes_read - before.disk_bytes_read;
  d.disk_bytes_written = after.disk_bytes_written - before.disk_bytes_written;
  d.net_messages = after.net_messages - before.net_messages;
  d.net_bytes = after.net_bytes - before.net_bytes;
  d.cpu_ops = after.cpu_ops - before.cpu_ops;
  d.idle_seconds = after.idle_seconds - before.idle_seconds;
  return d;
}

// ---------- Sharding ----------

TEST(BufferPoolShardingTest, TinyPoolsDegenerateToOneShard) {
  // Every shard keeps >= kMinFramesPerShard frames, so the small pools
  // unit tests use keep exact single-LRU semantics.
  BufferPool tiny(8);
  EXPECT_EQ(tiny.num_shards(), 1);
  BufferPool two(2);
  EXPECT_EQ(two.num_shards(), 1);
}

TEST(BufferPoolShardingTest, AutoShardCountIsPowerOfTwo) {
  // The largest power of two <= min(8, frames / 64), and at least 1: the
  // count depends on the pool size alone, never on the host.
  const std::pair<size_t, int> expected[] = {
      {8, 1}, {127, 1}, {128, 2}, {256, 4}, {512, 8}, {4096, 8}};
  for (const auto& [frames, shards] : expected) {
    BufferPool pool(frames);
    EXPECT_EQ(pool.num_shards(), shards) << frames << " frames";
  }
}

TEST(BufferPoolShardingTest, PinHitMissWorksAcrossShards) {
  DiskVolume volume(0, nullptr);
  BufferPool pool(256);
  ASSERT_EQ(pool.num_shards(), 4);
  pool.AttachVolume(&volume);
  volume.AllocateRun(64);
  WriteTaggedPages(&volume, 0, 64);
  for (PageNo p = 0; p < 64; ++p) {
    auto g = pool.Pin(PageId{0, p});
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    EXPECT_EQ(g->page()->payload()[0], static_cast<uint8_t>(p));
  }
  auto s = pool.stats();
  EXPECT_EQ(s.misses, 64);
  EXPECT_EQ(s.hits, 0);
  for (PageNo p = 0; p < 64; ++p) {
    auto g = pool.Pin(PageId{0, p});
    ASSERT_TRUE(g.ok());
  }
  s = pool.stats();
  EXPECT_EQ(s.misses, 64);
  EXPECT_EQ(s.hits, 64);
}

// ---------- Scan resistance ----------

TEST(ScanResistanceTest, FullScanEvictsAtMostColdSegmentHotPagesKeepHits) {
  DiskVolume volume(0, nullptr);
  BufferPool pool(64);
  pool.AttachVolume(&volume);
  volume.AllocateRun(240);
  WriteTaggedPages(&volume, 0, 240);

  // Working set: 24 pages touched twice — the second touch is the
  // re-reference that promotes them into the hot segment (these stand in
  // for R*-tree inner nodes and the raster mapping table).
  constexpr PageNo kHotPages = 24;
  for (int round = 0; round < 2; ++round) {
    for (PageNo p = 0; p < kHotPages; ++p) {
      auto g = pool.Pin(PageId{0, p});
      ASSERT_TRUE(g.ok());
    }
  }
  auto before = pool.stats();
  EXPECT_EQ(before.misses, kHotPages);
  EXPECT_GE(before.promotions, kHotPages);

  // A one-pass scan of 200 further pages — over 3x the pool — must churn
  // only the cold segment.
  for (PageNo p = kHotPages; p < kHotPages + 200; ++p) {
    auto g = pool.Pin(PageId{0, p});
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->page()->payload()[0], static_cast<uint8_t>(p));
  }
  auto after_scan = pool.stats();
  EXPECT_EQ(after_scan.misses, kHotPages + 200);
  EXPECT_GT(after_scan.evictions, 0);

  // The hot set survived the scan: re-pinning it adds no misses.
  for (PageNo p = 0; p < kHotPages; ++p) {
    auto g = pool.Pin(PageId{0, p});
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->page()->payload()[0], static_cast<uint8_t>(p));
  }
  auto after = pool.stats();
  EXPECT_EQ(after.misses, after_scan.misses)
      << "scan evicted hot pages: " << after.misses - after_scan.misses
      << " re-reads";
  EXPECT_EQ(after.hits, after_scan.hits + kHotPages);
}

TEST(ScanResistanceTest, SingleUsePagesAreNotPromoted) {
  DiskVolume volume(0, nullptr);
  BufferPool pool(64);
  pool.AttachVolume(&volume);
  volume.AllocateRun(32);
  WriteTaggedPages(&volume, 0, 32);
  for (PageNo p = 0; p < 32; ++p) {
    auto g = pool.Pin(PageId{0, p});
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(pool.stats().promotions, 0);
  // The re-reference promotes.
  for (PageNo p = 0; p < 32; ++p) {
    auto g = pool.Pin(PageId{0, p});
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(pool.stats().promotions, 32);
}

// ---------- Batched readahead ----------

TEST(ReadaheadTest, PrefetchChargesOnePositioningCostPlusTransfers) {
  NodeClock clock;
  DiskVolume volume(0, &clock);
  BufferPool pool(64);
  pool.AttachVolume(&volume);
  volume.AllocateRun(16);
  WriteTaggedPages(&volume, 0, 16);

  ResourceUsage before = clock.phase_usage();
  pool.Prefetch(PageId{0, 0}, 16);
  ResourceUsage d = UsageDelta(before, clock.phase_usage());
  EXPECT_EQ(d.disk_seeks, 1) << "a batched run is one positioning cost";
  EXPECT_EQ(d.disk_bytes_read, 16 * static_cast<int64_t>(kPageSize));

  auto s = pool.stats();
  EXPECT_EQ(s.readahead_batches, 1);
  EXPECT_EQ(s.readahead_pages, 16);
  EXPECT_EQ(s.misses, 0) << "readahead loads are not demand misses";

  // Every page is now resident: pins are hits, with no further disk I/O.
  before = clock.phase_usage();
  for (PageNo p = 0; p < 16; ++p) {
    auto g = pool.Pin(PageId{0, p});
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->page()->payload()[0], static_cast<uint8_t>(p));
  }
  d = UsageDelta(before, clock.phase_usage());
  EXPECT_EQ(d.disk_seeks, 0);
  EXPECT_EQ(d.disk_bytes_read, 0);
  s = pool.stats();
  EXPECT_EQ(s.hits, 16);
  EXPECT_EQ(s.misses, 0);

  // A second prefetch of the same range finds everything cached.
  pool.Prefetch(PageId{0, 0}, 16);
  EXPECT_EQ(pool.stats().readahead_batches, 1);
}

TEST(ReadaheadTest, PrefetchFetchesOnlyTheMissingRuns) {
  NodeClock clock;
  DiskVolume volume(0, &clock);
  BufferPool pool(64);
  pool.AttachVolume(&volume);
  volume.AllocateRun(16);
  WriteTaggedPages(&volume, 0, 16);

  // Pages 4..7 already resident.
  for (PageNo p = 4; p < 8; ++p) {
    auto g = pool.Pin(PageId{0, p});
    ASSERT_TRUE(g.ok());
  }
  auto pinned = pool.stats();
  pool.Prefetch(PageId{0, 0}, 16);
  auto s = pool.stats();
  // Two missing runs: [0,4) and [8,16).
  EXPECT_EQ(s.readahead_batches - pinned.readahead_batches, 2);
  EXPECT_EQ(s.readahead_pages - pinned.readahead_pages, 12);
}

TEST(ReadaheadTest, PinRangeReturnsTheWholeRunPinned) {
  DiskVolume volume(0, nullptr);
  BufferPool pool(128);
  pool.AttachVolume(&volume);
  volume.AllocateRun(40);
  WriteTaggedPages(&volume, 0, 40);

  auto guards = pool.PinRange(PageId{0, 3}, 30);
  ASSERT_TRUE(guards.ok()) << guards.status().ToString();
  ASSERT_EQ(guards->size(), 30u);
  for (uint32_t i = 0; i < 30; ++i) {
    ASSERT_TRUE((*guards)[i].valid());
    EXPECT_EQ((*guards)[i].id().page_no, 3 + i);
    EXPECT_EQ((*guards)[i].page()->payload()[0],
              static_cast<uint8_t>(3 + i));
  }
}

TEST(ReadaheadTest, PrefetchSkipsWindowsTooBigForTheShard) {
  DiskVolume volume(0, nullptr);
  BufferPool pool(8);
  pool.AttachVolume(&volume);
  volume.AllocateRun(16);
  WriteTaggedPages(&volume, 0, 16);
  pool.Prefetch(PageId{0, 0}, 16);
  // 16 pages into an 8-frame shard would evict itself; nothing loaded.
  EXPECT_EQ(pool.stats().readahead_pages, 0);
  // Demand reads still work.
  auto g = pool.Pin(PageId{0, 11});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->page()->payload()[0], 11);
}

// ---------- Fault injection through the batched path ----------

TEST(ReadaheadFaultTest, BatchConsultsInjectorPerPageAndRetriesFailures) {
  NodeClock clock;
  DiskVolume volume(/*volume_id=*/7, &clock);
  BufferPool pool(64);
  pool.AttachVolume(&volume);
  volume.AllocateRun(16);
  WriteTaggedPages(&volume, 0, 16);

  FaultInjector inj(/*seed=*/42);
  // Per-page ordinals: the batch's read of page 5 is that page's read #0,
  // exactly as it would be for a one-page-at-a-time scan.
  inj.InjectDiskFault(/*node=*/3, /*volume=*/7, /*page=*/5, /*ordinal=*/0,
                      sim::DiskFaultKind::kTornRead);
  inj.InjectDiskFault(/*node=*/3, /*volume=*/7, /*page=*/9, /*ordinal=*/0,
                      sim::DiskFaultKind::kTransientError);
  volume.SetFaultInjector(&inj, /*node_id=*/3);

  ResourceUsage before = clock.phase_usage();
  pool.Prefetch(PageId{7, 0}, 16);
  ResourceUsage d = UsageDelta(before, clock.phase_usage());

  auto s = pool.stats();
  EXPECT_EQ(s.readahead_pages, 16) << "both faulted pages were healed";
  EXPECT_EQ(s.checksum_failures, 1);  // the torn page
  EXPECT_EQ(s.read_retries, 2);       // one retry per faulted page
  // Each retry waited out the first backoff step as modeled idle time.
  EXPECT_DOUBLE_EQ(d.idle_seconds, 2 * RetryPolicy::BackoffSeconds(0));
  // One seek for the batch plus one per single-page retry.
  EXPECT_EQ(d.disk_seeks, 3);
  EXPECT_EQ(d.disk_bytes_read, 18 * static_cast<int64_t>(kPageSize));

  // All 16 pages resident and intact.
  for (PageNo p = 0; p < 16; ++p) {
    auto g = pool.Pin(PageId{7, p});
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->page()->payload()[0], static_cast<uint8_t>(p));
  }
  EXPECT_EQ(pool.stats().misses, 0);
}

// ---------- PageGuard reuse (pin-leak regression) ----------

TEST(PageGuardTest, AssigningOverAValidGuardReleasesItsPin) {
  DiskVolume volume(0, nullptr);
  BufferPool pool(2);
  pool.AttachVolume(&volume);
  volume.AllocateRun(8);
  WriteTaggedPages(&volume, 0, 8);

  // Repeatedly assign over a still-valid guard. If the old pin leaked, a
  // 2-frame pool would run out of evictable frames within a few rounds.
  PageGuard guard;
  for (PageNo p = 0; p < 8; ++p) {
    auto g = pool.Pin(PageId{0, p});
    ASSERT_TRUE(g.ok()) << "pin leak at page " << p << ": "
                        << g.status().ToString();
    guard = std::move(*g);
    EXPECT_EQ(guard.page()->payload()[0], static_cast<uint8_t>(p));
  }
  guard.Release();
  guard.Release();  // double release is a no-op

  // Every pin is back to zero: the whole pool is evictable again.
  for (PageNo p = 0; p < 4; ++p) {
    auto g = pool.Pin(PageId{0, p});
    ASSERT_TRUE(g.ok());
  }
  // And DiscardAll's no-pinned-pages invariant holds.
  pool.DiscardAll();
}

TEST(PageGuardTest, MoveLeavesSourceInvalid) {
  DiskVolume volume(0, nullptr);
  BufferPool pool(4);
  pool.AttachVolume(&volume);
  volume.AllocateRun(2);
  WriteTaggedPages(&volume, 0, 2);

  auto g = pool.Pin(PageId{0, 0});
  ASSERT_TRUE(g.ok());
  PageGuard a = std::move(*g);
  ASSERT_TRUE(a.valid());
  PageGuard b(std::move(a));
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  PageGuard c;
  c = std::move(b);
  EXPECT_FALSE(b.valid());
  EXPECT_TRUE(c.valid());
  c.Release();
  EXPECT_FALSE(c.valid());
  pool.DiscardAll();  // would abort if a pin leaked through the moves
}

// ---------- Concurrency (exercised under TSan in CI) ----------

TEST(BufferPoolConcurrencyTest, ParallelPinsAndPrefetchesAreRaceFree) {
  DiskVolume volume(0, nullptr);
  BufferPool pool(256);
  pool.AttachVolume(&volume);
  constexpr PageNo kPages = 96;
  volume.AllocateRun(kPages);
  WriteTaggedPages(&volume, 0, kPages);

  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        PageNo p = static_cast<PageNo>((i * 7 + t * 13) % kPages);
        if (i % 16 == 0) {
          pool.Prefetch(PageId{0, (p / 8) * 8}, 8);
        }
        auto g = pool.Pin(PageId{0, p});
        ASSERT_TRUE(g.ok()) << g.status().ToString();
        ASSERT_EQ(g->page()->payload()[0], static_cast<uint8_t>(p));
      }
    });
  }
  // Snapshot stats concurrently with the pin/prefetch storm: stats() holds
  // every shard mutex at once, so each snapshot is a coherent cut — pages
  // counted as readahead must already be countable as residents, and
  // hits + misses never exceeds the pins issued so far.
  std::thread snapshotter([&] {
    while (!done.load(std::memory_order_relaxed)) {
      auto snap = pool.stats();
      ASSERT_GE(snap.hits + snap.misses, 0);
      ASSERT_LE(snap.hits + snap.misses,
                static_cast<int64_t>(kThreads) * kIters);
      ASSERT_LE(snap.readahead_pages + snap.scan_shared_pages,
                snap.misses + snap.evictions + 128);
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  done.store(true, std::memory_order_relaxed);
  snapshotter.join();

  auto s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * kIters)
      << "every pin is exactly one hit or one miss";
  pool.DiscardAll();  // all pins released
}

// ---------- Query-level acceptance: readahead keeps determinism ----------

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
  std::unique_ptr<core::Cluster> cluster;
  std::unique_ptr<benchmark::BenchmarkDatabase> db;
};

LoadedDb LoadTinyDb(int nodes, int num_threads) {
  LoadedDb out;
  core::Cluster::Options copts;
  copts.buffer_pool_frames = 2048;
  out.cluster = std::make_unique<core::Cluster>(nodes, copts);
  out.cluster->SetNumThreads(num_threads);
  datagen::GlobalDataSet ds =
      datagen::GenerateGlobalDataSet(TinyDataOptions());
  auto db = benchmark::BenchmarkDatabase::Load(out.cluster.get(), ds,
                                               TinyLoadOptions());
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  out.db = std::move(*db);
  return out;
}

struct PoolCounters {
  int64_t misses = 0;
  int64_t readahead_batches = 0;
  int64_t readahead_pages = 0;
  int64_t evictions = 0;
  friend bool operator==(const PoolCounters&, const PoolCounters&) = default;
};

std::vector<PoolCounters> PerNodePoolCounters(core::Cluster* cluster) {
  std::vector<PoolCounters> out;
  for (int i = 0; i < cluster->num_nodes(); ++i) {
    auto s = cluster->node(i).pool()->stats();
    out.push_back(PoolCounters{s.misses, s.readahead_batches,
                               s.readahead_pages, s.evictions});
  }
  return out;
}

struct QueryRun {
  double seconds = 0.0;
  std::vector<PoolCounters> pools;
  int64_t readahead_batches_total = 0;
};

QueryRun RunWithReadahead(int query, int num_threads, bool faulted) {
  LoadedDb loaded = LoadTinyDb(4, num_threads);
  FaultInjector inj(/*seed=*/0xbead5);
  if (faulted) {
    inj.set_transient_read_rate(0.05);
    inj.set_torn_read_rate(0.05);
    loaded.cluster->SetFaultInjector(&inj);
  }
  auto r = benchmark::RunQueryByNumber(loaded.db.get(), query);
  EXPECT_TRUE(r.ok()) << "query " << query << ": " << r.status().ToString();
  QueryRun out;
  if (r.ok()) out.seconds = r->seconds;
  out.pools = PerNodePoolCounters(loaded.cluster.get());
  for (const PoolCounters& c : out.pools) {
    out.readahead_batches_total += c.readahead_batches;
  }
  if (faulted) loaded.cluster->SetFaultInjector(nullptr);
  return out;
}

class ReadaheadDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ReadaheadDeterminismTest, ModeledTimeBitIdenticalAcrossThreadCounts) {
  const int query = GetParam();

  QueryRun clean1 = RunWithReadahead(query, /*num_threads=*/1, false);
  QueryRun clean8 = RunWithReadahead(query, /*num_threads=*/8, false);
  // The scan-heavy query actually engages readahead (query 5 is a pure
  // index probe + gather: its determinism still matters, but it reads too
  // few pages to batch).
  if (query == 2) {
    EXPECT_GT(clean1.readahead_batches_total, 0) << "query " << query;
  }
  // Bit-identical modeled time and identical per-node pool behaviour.
  EXPECT_EQ(clean1.seconds, clean8.seconds) << "query " << query;
  EXPECT_EQ(clean1.pools, clean8.pools) << "query " << query;

  QueryRun faulted1 = RunWithReadahead(query, /*num_threads=*/1, true);
  QueryRun faulted8 = RunWithReadahead(query, /*num_threads=*/8, true);
  EXPECT_EQ(faulted1.seconds, faulted8.seconds) << "query " << query;
  EXPECT_EQ(faulted1.pools, faulted8.pools) << "query " << query;
  // Faults cost modeled time even through the batched path.
  if (query == 2) {
    EXPECT_GT(faulted1.seconds, clean1.seconds) << "query " << query;
  }
}

INSTANTIATE_TEST_SUITE_P(Queries, ReadaheadDeterminismTest,
                         ::testing::Values(2, 5));

}  // namespace
}  // namespace paradise
