// Google-benchmark microbenches for the substrate pieces whose *real* CPU
// cost matters in the simulation: LZW tile compression, the page
// checksum, R*-tree probes (dynamic vs STR bulk-loaded), B+-tree
// operations, and the PBSM partition sweep — followed by a query-level
// section that runs the scan-heavy benchmark queries end to end, printing
// host wall-clock, modeled seconds, and buffer-pool statistics.
// `--json <path>` writes the query section as JSON (the CI perf-smoke gate
// consumes it).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>

#include "bench/bench_util.h"
#include "codec/lzw.h"
#include "common/rng.h"
#include "core/coordinator.h"
#include "common/thread_pool.h"
#include "exec/spatial_join.h"
#include "index/b_plus_tree.h"
#include "index/r_star_tree.h"
#include "storage/page.h"

namespace {

using paradise::Rng;
using paradise::codec::LzwCompress;
using paradise::codec::LzwDecompress;
using paradise::exec::ExecContext;
using paradise::exec::Tuple;
using paradise::exec::TupleVec;
using paradise::exec::Value;
using paradise::geom::Box;
using paradise::geom::Point;
using paradise::geom::Polyline;
using paradise::index::BPlusTree;
using paradise::index::RStarTree;

std::vector<uint8_t> SmoothTile(size_t bytes) {
  std::vector<uint8_t> data(bytes);
  for (size_t i = 0; i < bytes; i += 2) {
    uint16_t v = static_cast<uint16_t>(2000 + 40 * ((i / 128) % 16));
    data[i] = static_cast<uint8_t>(v & 0xff);
    if (i + 1 < bytes) data[i + 1] = static_cast<uint8_t>(v >> 8);
  }
  return data;
}

std::vector<uint8_t> NoisyTile(size_t bytes) {
  Rng rng(1);
  std::vector<uint8_t> data(bytes);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

void LzwCompressSmooth(benchmark::State& state, size_t bytes) {
  std::vector<uint8_t> tile = SmoothTile(bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzwCompress(tile));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tile.size()));
}

void BM_LzwCompressSmooth(benchmark::State& state) {
  LzwCompressSmooth(state, 32 * 1024);
}
BENCHMARK(BM_LzwCompressSmooth);

// 2 KB is the tile size the loader and perfbench store, so per-call set-up
// (dictionary tables, output buffers) weighs more than in the 32 KB row.
void BM_LzwCompressSmooth2K(benchmark::State& state) {
  LzwCompressSmooth(state, 2 * 1024);
}
BENCHMARK(BM_LzwCompressSmooth2K);

void BM_LzwCompressNoise(benchmark::State& state) {
  std::vector<uint8_t> tile = NoisyTile(32 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzwCompress(tile));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tile.size()));
}
BENCHMARK(BM_LzwCompressNoise);

void LzwDecompressSmooth(benchmark::State& state, size_t bytes) {
  std::vector<uint8_t> packed = LzwCompress(SmoothTile(bytes));
  for (auto _ : state) {
    auto out = LzwDecompress(packed);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}

void BM_LzwDecompressSmooth(benchmark::State& state) {
  LzwDecompressSmooth(state, 32 * 1024);
}
BENCHMARK(BM_LzwDecompressSmooth);

void BM_LzwDecompressSmooth2K(benchmark::State& state) {
  LzwDecompressSmooth(state, 2 * 1024);
}
BENCHMARK(BM_LzwDecompressSmooth2K);

// Every page a volume writes is stamped and every page the buffer pool
// fetches is verified, so this cost is paid once per page moved.
void BM_PageChecksum(benchmark::State& state) {
  Rng rng(3);
  std::vector<paradise::storage::Page> pages(64);
  for (paradise::storage::Page& page : pages) {
    for (size_t i = 0; i < paradise::storage::kPageSize; ++i) {
      page.data()[i] = static_cast<uint8_t>(rng.Next());
    }
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pages[next++ % pages.size()].ComputeChecksum());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(paradise::storage::kPageSize));
}
BENCHMARK(BM_PageChecksum);

Box RandomBox(Rng* rng, double extent, double side) {
  double x = rng->NextDouble(-extent, extent);
  double y = rng->NextDouble(-extent, extent);
  return Box(x, y, x + rng->NextDouble(0.01, side),
             y + rng->NextDouble(0.01, side));
}

void BM_RStarDynamicProbe(benchmark::State& state) {
  Rng rng(2);
  RStarTree tree;
  for (int i = 0; i < state.range(0); ++i) {
    tree.Insert(RandomBox(&rng, 100, 2), static_cast<uint64_t>(i));
  }
  for (auto _ : state) {
    Box q = RandomBox(&rng, 100, 5);
    int64_t count = 0;
    tree.SearchOverlap(q, [&](const Box&, uint64_t) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_RStarDynamicProbe)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RStarBulkLoadedProbe(benchmark::State& state) {
  Rng rng(2);
  std::vector<std::pair<Box, uint64_t>> entries;
  for (int i = 0; i < state.range(0); ++i) {
    entries.emplace_back(RandomBox(&rng, 100, 2), static_cast<uint64_t>(i));
  }
  auto tree = RStarTree::BulkLoadStr(std::move(entries));
  for (auto _ : state) {
    Box q = RandomBox(&rng, 100, 5);
    int64_t count = 0;
    tree->SearchOverlap(q, [&](const Box&, uint64_t) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_RStarBulkLoadedProbe)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BPlusTreeInsert(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    BPlusTree<int64_t> tree;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      tree.Insert(rng.NextInt(0, 1 << 20), static_cast<uint64_t>(i));
    }
    benchmark::DoNotOptimize(tree.size());
  }
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(10000);

void BM_BPlusTreeProbe(benchmark::State& state) {
  Rng rng(4);
  BPlusTree<int64_t> tree;
  for (int i = 0; i < 100000; ++i) {
    tree.Insert(rng.NextInt(0, 1 << 20), static_cast<uint64_t>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Find(rng.NextInt(0, 1 << 20)));
  }
}
BENCHMARK(BM_BPlusTreeProbe);

TupleVec MakeLines(Rng* rng, int n) {
  TupleVec out;
  for (int i = 0; i < n; ++i) {
    double x = rng->NextDouble(-100, 100);
    double y = rng->NextDouble(-100, 100);
    std::vector<Point> pts;
    for (int k = 0; k < 6; ++k) {
      pts.push_back(Point{x + k * 0.3, y + ((k % 2) ? 0.4 : -0.2)});
    }
    out.push_back(Tuple({Value(static_cast<int64_t>(i)),
                         Value(Polyline(std::move(pts)))}));
  }
  return out;
}

void BM_PbsmJoin(benchmark::State& state) {
  Rng rng(5);
  TupleVec left = MakeLines(&rng, static_cast<int>(state.range(0)));
  TupleVec right = MakeLines(&rng, static_cast<int>(state.range(0)));
  ExecContext ctx;
  paradise::exec::PbsmOptions opts;
  opts.num_partitions = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    auto r = paradise::exec::PbsmSpatialJoin(left, 1, right, 1, ctx, opts);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PbsmJoin)
    ->Args({2000, 1})
    ->Args({2000, 16})
    ->Args({2000, 64})
    ->Args({8000, 64});

void BM_PbsmJoinParallel(benchmark::State& state) {
  Rng rng(5);
  TupleVec left = MakeLines(&rng, 8000);
  TupleVec right = MakeLines(&rng, 8000);
  paradise::common::ThreadPool pool(static_cast<int>(state.range(0)));
  ExecContext ctx;
  ctx.pool = &pool;
  paradise::exec::PbsmOptions opts;
  opts.num_partitions = 64;
  for (auto _ : state) {
    auto r = paradise::exec::PbsmSpatialJoin(left, 1, right, 1, ctx, opts);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PbsmJoinParallel)->Arg(1)->Arg(2)->Arg(8);

// ---------- Query-level section ----------

paradise::storage::BufferPool::Stats PoolStatsAllNodes(
    paradise::core::Cluster* cluster) {
  paradise::storage::BufferPool::Stats total;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    total.Add(cluster->node(n).pool()->stats());
  }
  return total;
}

std::vector<paradise::bench::QueryPerfSample> RunQuerySection() {
  using Clock = std::chrono::steady_clock;
  using paradise::storage::BufferPool;

  paradise::bench::BenchConfig cfg;
  cfg.fraction = 1.0 / 512;
  cfg.dates = 16;
  cfg.raster_size = 128;
  paradise::bench::LoadedDb loaded = paradise::bench::LoadDb(cfg, 4, 1);
  loaded.cluster->SetNumThreads(8);
  std::printf("\nquery section: 4 nodes, 8 threads, %d pool shards/node\n",
              loaded.cluster->node(0).pool()->num_shards());
  std::printf("%-6s %12s %12s %9s %10s %10s %10s\n", "query", "wall_ms",
              "modeled_s", "hit_rate", "misses", "ra_batch", "ra_pages");

  std::vector<paradise::bench::QueryPerfSample> samples;
  for (int query : {2, 5, 8, 11, 12, 13}) {
    BufferPool::Stats before = PoolStatsAllNodes(loaded.cluster.get());
    Clock::time_point t0 = Clock::now();
    double modeled =
        paradise::bench::RunQuerySeconds(loaded.db.get(), query);
    double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    BufferPool::Stats after = PoolStatsAllNodes(loaded.cluster.get());
    BufferPool::Stats d;
    d.Add(after);
    d.hits -= before.hits;
    d.misses -= before.misses;
    d.readahead_batches -= before.readahead_batches;
    d.readahead_pages -= before.readahead_pages;
    std::printf("Q%-5d %12.1f %12.6f %8.1f%% %10lld %10lld %10lld\n", query,
                wall * 1e3, modeled, d.hit_rate() * 100,
                static_cast<long long>(d.misses),
                static_cast<long long>(d.readahead_batches),
                static_cast<long long>(d.readahead_pages));
    samples.push_back({"Q" + std::to_string(query), wall, modeled});
  }
  return samples;
}

// ---------- Spatial-join section ----------

/// Standalone PBSM and two-layer joins, reported in the same JSON rows as
/// the queries: wall clock for the host-perf gate, modeled seconds for
/// cost-model drift. The 1- and 8-thread PBSM rows must report identical
/// modeled seconds (the determinism contract); the gate then watches both.
std::vector<paradise::bench::QueryPerfSample> RunSpatialJoinSection() {
  using Clock = std::chrono::steady_clock;
  paradise::sim::CostModel model;
  Rng rng(6);
  TupleVec left = MakeLines(&rng, 6000);
  TupleVec right = MakeLines(&rng, 6000);
  paradise::exec::PbsmOptions opts;
  opts.num_partitions = 64;

  std::vector<paradise::bench::QueryPerfSample> samples;
  size_t pbsm_rows = 0;
  auto run_pbsm = [&](const std::string& name, int threads) {
    paradise::common::ThreadPool pool(threads);
    paradise::sim::NodeClock clock;
    ExecContext ctx;
    ctx.clock = &clock;
    ctx.pool = &pool;
    Clock::time_point t0 = Clock::now();
    auto r = paradise::exec::PbsmSpatialJoin(left, 1, right, 1, ctx, opts);
    double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    if (!r.ok()) {
      std::fprintf(stderr, "%s failed\n", name.c_str());
      std::exit(1);
    }
    pbsm_rows = r->size();
    samples.push_back({name, wall, model.Seconds(clock.EndPhase())});
  };
  run_pbsm("pbsm_join_1t", 1);
  run_pbsm("pbsm_join_8t", 8);

  {
    // Two-layer class mini-join plan on the same inputs: no dedup branch
    // in the hot path, same result cardinality as replicate-and-dedup.
    paradise::common::ThreadPool pool(8);
    paradise::sim::NodeClock clock;
    ExecContext ctx;
    ctx.clock = &clock;
    ctx.pool = &pool;
    paradise::exec::PbsmJoinStats stats;
    ctx.pbsm_stats = &stats;
    paradise::exec::TwoLayerOptions two;
    two.tiles_per_axis = 32;
    two.num_tasks = 64;
    Clock::time_point t0 = Clock::now();
    auto r = paradise::exec::TwoLayerSpatialJoin(left, 1, right, 1, ctx, two);
    double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    if (!r.ok() || r->size() != pbsm_rows || stats.dedup_tests != 0 ||
        stats.dedup_dropped != 0) {
      std::fprintf(stderr, "two_layer_join diverged from pbsm\n");
      std::exit(1);
    }
    samples.push_back(
        {"two_layer_join", wall, model.Seconds(clock.EndPhase())});
  }

  std::printf("\nspatial-join section:\n");
  for (const auto& s : samples) {
    std::printf("%-14s %10.1f ms  modeled %12.6f s\n", s.name.c_str(),
                s.wall_seconds * 1e3, s.modeled_seconds);
  }
  return samples;
}

// ---------- Buffer-pool sizing sweep (--pool-mb) ----------

/// Re-runs the query section's workload at several per-node pool sizes,
/// reporting the per-query hit rate and modeled seconds at each point —
/// the classic memory/latency trade-off curve. Only runs (and only adds
/// JSON rows) when --pool-mb is given, so the default perf-gate report is
/// unchanged.
std::vector<paradise::bench::QueryPerfSample> RunPoolSweep(
    const std::vector<int>& pool_mbs) {
  using Clock = std::chrono::steady_clock;
  using paradise::storage::BufferPool;

  paradise::bench::BenchConfig cfg;
  cfg.fraction = 1.0 / 64;
  cfg.dates = 24;
  cfg.raster_size = 256;

  std::printf("\npool-size sweep: 4 nodes, queries {2, 12, 13}\n");
  std::printf("%-8s %-6s %12s %9s %12s\n", "pool_mb", "query", "modeled_s",
              "hit_rate", "misses");

  std::vector<paradise::bench::QueryPerfSample> samples;
  for (int mb : pool_mbs) {
    paradise::core::Cluster::Options copts;
    copts.buffer_pool_frames =
        (static_cast<size_t>(mb) << 20) / paradise::storage::kPageSize;
    paradise::bench::LoadedDb loaded =
        paradise::bench::LoadDbWithOptions(cfg, 4, 1, copts);
    loaded.cluster->SetNumThreads(8);
    loaded.cluster->ResetForQuery();  // cold start at this pool size
    // Attach a workload session: without one, BeginQuery cold-resets the
    // pools before *every* query (the single-query protocol), which makes
    // the hit rate a constant regardless of pool size. With one, pools
    // stay warm across queries and the sweep measures retention.
    paradise::core::WorkloadSession::Options sopts;
    sopts.num_streams = 1;
    sopts.result_cache = false;  // pool behaviour, not cache behaviour
    paradise::core::WorkloadSession session(loaded.cluster.get(), sopts);
    loaded.cluster->set_workload_session(&session);
    session.BindStream(0);
    double now = 0.0;
    for (int query : {2, 12, 13}) {
      // First execution streams the working set in; the *second* one
      // measures what the pool retained — the number the sizing trade-off
      // actually turns on (a pool below the re-reference distance pays
      // the full I/O again, a pool above it serves from memory).
      for (int warm = 0; warm < 1; ++warm) {
        paradise::core::WorkloadSession::Ticket* t = session.AwaitAdmission(now);
        double secs = paradise::bench::RunQuerySeconds(loaded.db.get(), query);
        now = t->admit_seconds + secs;
        session.FinishQuery(secs);
      }
      BufferPool::Stats before = PoolStatsAllNodes(loaded.cluster.get());
      Clock::time_point t0 = Clock::now();
      paradise::core::WorkloadSession::Ticket* t = session.AwaitAdmission(now);
      double modeled =
          paradise::bench::RunQuerySeconds(loaded.db.get(), query);
      now = t->admit_seconds + modeled;
      session.FinishQuery(modeled);
      double wall = std::chrono::duration<double>(Clock::now() - t0).count();
      BufferPool::Stats after = PoolStatsAllNodes(loaded.cluster.get());
      BufferPool::Stats d;
      d.Add(after);
      d.hits -= before.hits;
      d.misses -= before.misses;
      d.readahead_pages -= before.readahead_pages;
      const double denom =
          static_cast<double>(d.hits + d.misses + d.readahead_pages);
      const double hit_rate =
          denom > 0 ? static_cast<double>(d.hits) / denom : 1.0;
      std::printf("%-8d Q%-5d %12.6f %8.1f%% %12lld\n", mb, query, modeled,
                  hit_rate * 100,
                  static_cast<long long>(d.misses + d.readahead_pages));
      samples.push_back({"pool" + std::to_string(mb) + "mb_Q" +
                             std::to_string(query),
                         wall, modeled});
    }
    session.EndStream();
    loaded.cluster->set_workload_session(nullptr);
  }
  return samples;
}

/// Pulls `--pool-mb=a,b,c` out of argv (so google-benchmark's flag parser
/// never sees it), returning the requested sweep points.
std::vector<int> ExtractPoolSweepArg(int* argc, char** argv) {
  std::vector<int> mbs;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--pool-mb=", 10) == 0) {
      for (const char* p = argv[i] + 10; *p != '\0';) {
        mbs.push_back(std::atoi(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
      for (int j = i; j + 1 < *argc; ++j) argv[j] = argv[j + 1];
      --*argc;
      return mbs;
    }
    if (std::strcmp(argv[i], "--pool-mb") == 0) {
      mbs = {8, 16, 32, 64};
      for (int j = i; j + 1 < *argc; ++j) argv[j] = argv[j + 1];
      --*argc;
      return mbs;
    }
  }
  return mbs;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = paradise::bench::ExtractJsonPathArg(&argc, argv);
  std::vector<int> pool_mbs = ExtractPoolSweepArg(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  std::vector<paradise::bench::QueryPerfSample> samples = RunQuerySection();
  std::vector<paradise::bench::QueryPerfSample> joins = RunSpatialJoinSection();
  samples.insert(samples.end(), joins.begin(), joins.end());
  if (!pool_mbs.empty()) {
    std::vector<paradise::bench::QueryPerfSample> sweep =
        RunPoolSweep(pool_mbs);
    samples.insert(samples.end(), sweep.begin(), sweep.end());
  }
  if (!json_path.empty()) {
    paradise::bench::WriteBenchJson(json_path, "bench_micro", samples);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
