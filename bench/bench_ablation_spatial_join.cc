// Ablation for Section 2.4's join-algorithm choice: indexed nested loops
// vs PBSM for spatial joins, sweeping the outer cardinality. Small outers
// should favor index probes; large outers favor the scan-based PBSM.
// Followed by the intra-node parallelism sweep (partition-to-threads wall
// clock vs thread count, with modeled time held bit-identical).

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/spatial_join.h"
#include "sim/cost_model.h"

namespace {

using paradise::Rng;
using paradise::common::ThreadPool;
using paradise::exec::ExecContext;
using paradise::exec::PbsmOptions;
using paradise::exec::Tuple;
using paradise::exec::TupleVec;
using paradise::exec::Value;
using paradise::geom::Point;
using paradise::geom::Polyline;

TupleVec MakeLines(Rng* rng, int n, double extent) {
  TupleVec out;
  for (int i = 0; i < n; ++i) {
    double x = rng->NextDouble(-extent, extent);
    double y = rng->NextDouble(-extent, extent);
    std::vector<Point> pts;
    double heading = rng->NextDouble(0, 6.28);
    for (int k = 0; k < 8; ++k) {
      pts.push_back(Point{x, y});
      heading += rng->NextDouble(-0.5, 0.5);
      x += 0.5 * std::cos(heading);
      y += 0.5 * std::sin(heading);
    }
    out.push_back(Tuple({Value(static_cast<int64_t>(i)),
                         Value(Polyline(std::move(pts)))}));
  }
  return out;
}

double ModeledSeconds(const paradise::sim::CostModel& model,
                      paradise::sim::NodeClock* clock) {
  return model.Seconds(clock->EndPhase());
}

/// Order-sensitive digest of the joined (left id, right id) pairs — equal
/// digests mean the same rows in the same order.
uint64_t ResultDigest(const TupleVec& rows, size_t right_id_col) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const Tuple& t : rows) {
    mix(static_cast<uint64_t>(t.at(0).AsInt()));
    mix(static_cast<uint64_t>(t.at(right_id_col).AsInt()));
  }
  return h;
}

}  // namespace

int64_t ScanBytes(const TupleVec& tuples) {
  int64_t n = 0;
  for (const Tuple& t : tuples) {
    for (const auto& v : t.values) {
      n += static_cast<int64_t>(v.StorageBytes(/*deep=*/true));
    }
  }
  return n;
}

int main(int argc, char** argv) {
  (void)paradise::bench::BenchConfig::FromArgs(argc, argv);
  Rng rng(7);
  paradise::sim::CostModel model;
  const int kInner = 100000;
  TupleVec inner = MakeLines(&rng, kInner, 100);
  int64_t inner_bytes = ScanBytes(inner);

  // The persistent inner index exists already (Section 2.4's "when an
  // R-tree exists on the join attribute ... indexed nested loops is
  // generally used"); PBSM instead must scan the inner.
  ExecContext no_charge;
  auto tree = paradise::exec::BuildRTreeOnColumn(inner, 1, no_charge);

  std::printf(
      "== Ablation: indexed NL vs PBSM spatial join (inner = %d polylines, "
      "%.1f MB; index NL probes the pre-built R*-tree, PBSM scans) ==\n\n",
      kInner, static_cast<double>(inner_bytes) / 1e6);
  std::printf("%12s %14s %14s %10s\n", "outer size", "index NL (s)",
              "PBSM (s)", "winner");

  for (int outer_size : {1, 10, 100, 1000, 5000, 20000}) {
    TupleVec outer = MakeLines(&rng, outer_size, 100);
    int64_t outer_bytes = ScanBytes(outer);

    // Index plan: scan the outer, probe per tuple.
    paradise::sim::NodeClock c1;
    ExecContext ctx1;
    ctx1.clock = &c1;
    c1.ChargeDiskRead(outer_bytes, 1);
    auto r1 = paradise::exec::IndexSpatialJoin(outer, 1, inner, 1, *tree, ctx1);
    double idx_seconds = ModeledSeconds(model, &c1);

    // PBSM plan: scan both inputs, partition, sweep.
    paradise::sim::NodeClock c2;
    ExecContext ctx2;
    ctx2.clock = &c2;
    c2.ChargeDiskRead(outer_bytes, 1);
    c2.ChargeDiskRead(inner_bytes, 1);
    auto r2 = paradise::exec::PbsmSpatialJoin(outer, 1, inner, 1, ctx2);
    double pbsm_seconds = ModeledSeconds(model, &c2);

    if (!r1.ok() || !r2.ok() || r1->size() != r2->size()) {
      std::fprintf(stderr, "join mismatch!\n");
      return 1;
    }
    std::printf("%12d %14.4f %14.4f %10s\n", outer_size, idx_seconds,
                pbsm_seconds, idx_seconds < pbsm_seconds ? "index" : "pbsm");
  }
  std::printf(
      "\nexpected shape: index NL wins for small outers; PBSM takes over "
      "as the outer grows.\n");

  // -- Partition-to-threads sweep -----------------------------------------
  // Same join at 1/2/4/8 worker threads. Wall clock should drop with
  // threads while the modeled seconds, result count and result order stay
  // bit-identical: the partition decomposition, not the schedule, defines
  // the charges and the merge order.
  {
    Rng rng2(11);
    TupleVec big_outer = MakeLines(&rng2, 30000, 100);
    const size_t right_id_col = 2;  // left has 2 columns
    std::printf(
        "\n== Partition-to-threads: PBSM wall clock vs worker threads "
        "(outer=%zu, inner=%d, partitions=64; host has %u core(s) — "
        "speedup needs >1) ==\n\n",
        big_outer.size(), kInner, std::thread::hardware_concurrency());
    std::printf("%8s %12s %12s %10s %18s %8s\n", "threads", "wall (s)",
                "modeled (s)", "rows", "digest", "speedup");
    PbsmOptions popts;
    popts.num_partitions = 64;
    double wall_1 = 0.0, modeled_1 = 0.0;
    uint64_t digest_1 = 0;
    size_t rows_1 = 0;
    for (int threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      paradise::sim::NodeClock clock;
      ExecContext ctx;
      ctx.clock = &clock;
      ctx.pool = &pool;
      auto t0 = std::chrono::steady_clock::now();
      auto r = paradise::exec::PbsmSpatialJoin(big_outer, 1, inner, 1, ctx,
                                               popts);
      auto t1 = std::chrono::steady_clock::now();
      if (!r.ok()) {
        std::fprintf(stderr, "parallel pbsm failed\n");
        return 1;
      }
      double wall = std::chrono::duration<double>(t1 - t0).count();
      double modeled = ModeledSeconds(model, &clock);
      uint64_t digest = ResultDigest(*r, right_id_col);
      if (threads == 1) {
        wall_1 = wall;
        modeled_1 = modeled;
        digest_1 = digest;
        rows_1 = r->size();
      } else if (modeled != modeled_1 || digest != digest_1 ||
                 r->size() != rows_1) {
        std::fprintf(stderr,
                     "determinism violation at %d threads: modeled %.17g vs "
                     "%.17g, digest %016llx vs %016llx\n",
                     threads, modeled, modeled_1,
                     static_cast<unsigned long long>(digest),
                     static_cast<unsigned long long>(digest_1));
        return 1;
      }
      std::printf("%8d %12.4f %12.4f %10zu %018llx %7.2fx\n", threads, wall,
                  modeled, r->size(),
                  static_cast<unsigned long long>(digest), wall_1 / wall);
    }
    std::printf(
        "\nmodeled seconds and result digests are bit-identical across "
        "thread counts; only wall clock moves.\n");
  }
  return 0;
}
