// Ablation for Section 2.4's join-algorithm choice: the two plans
// core::Query chooses between for a spatial join whose inner has an
// R*-tree, on a 4-node cluster, sweeping the outer cardinality. Small
// outers should favor broadcast + indexed nested loops; large outers favor
// the scan-based PBSM. Followed by the intra-node parallelism sweep
// (partition-to-threads wall clock vs thread count, with modeled time held
// bit-identical).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/parallel_ops.h"
#include "exec/spatial_join.h"
#include "sim/cost_model.h"

namespace {

using paradise::Rng;
using paradise::StatusOr;
using paradise::catalog::PartitioningKind;
using paradise::catalog::TableDef;
using paradise::common::ThreadPool;
using paradise::core::Cluster;
using paradise::core::ParallelScan;
using paradise::core::ParallelTable;
using paradise::core::PerNode;
using paradise::core::QueryCoordinator;
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

TableDef LineTableDef(const std::string& name, PartitioningKind part) {
  TableDef def;
  def.name = name;
  def.schema = paradise::exec::Schema(
      {{"id", paradise::exec::ValueType::kInt},
       {"shape", paradise::exec::ValueType::kPolyline}});
  def.partitioning = part;
  def.partition_column = 1;
  return def;
}

/// Sorted (outer id, inner id) pairs of a join's per-node output.
std::vector<std::pair<int64_t, int64_t>> JoinedIds(const PerNode& joined) {
  std::vector<std::pair<int64_t, int64_t>> ids;
  for (const TupleVec& v : joined) {
    for (const Tuple& t : v) ids.emplace_back(t.at(0).AsInt(), t.at(2).AsInt());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// One plan run as its own query: its modeled seconds and output.
struct PlanRun {
  double seconds = 0.0;
  PerNode rows;
};

template <typename Plan>
StatusOr<PlanRun> RunPlan(Cluster* cluster, const Plan& plan) {
  QueryCoordinator coord(cluster);
  PARADISE_RETURN_IF_ERROR(coord.BeginQuery());
  PARADISE_ASSIGN_OR_RETURN(PerNode rows, plan(&coord));
  PlanRun run{coord.query_seconds(), std::move(rows)};
  coord.EndQuery();
  return run;
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

int main(int argc, char** argv) {
  (void)paradise::bench::BenchConfig::FromArgs(argc, argv);
  Rng rng(7);
  paradise::sim::CostModel model;
  const int kNodes = 4;
  const int kInner = 100000;
  TupleVec inner = MakeLines(&rng, kInner, 100);

  // The inner is declustered spatially with an R*-tree on its shape
  // column (Section 2.4's "when an R-tree exists on the join attribute");
  // the outer is a round-robin table the query scans.
  Cluster cluster(kNodes);
  TableDef inner_def = LineTableDef("inner", PartitioningKind::kSpatial);
  inner_def.indexes = {paradise::catalog::IndexDef{"shape_idx", 1, true}};
  auto inner_table = ParallelTable::Load(&cluster, inner_def, inner);
  if (!inner_table.ok()) {
    std::fprintf(stderr, "inner load failed: %s\n",
                 inner_table.status().ToString().c_str());
    return 1;
  }
  const ParallelTable& in = **inner_table;

  std::printf(
      "== Ablation: broadcast index NL vs PBSM spatial join (%d nodes; "
      "inner = %d polylines declustered spatially with an R*-tree; outer "
      "round-robin; modeled query seconds) ==\n\n",
      kNodes, kInner);
  std::printf("%12s %14s %14s %10s\n", "outer size", "index NL (s)",
              "PBSM (s)", "winner");

  for (int outer_size : {1, 10, 100, 1000, 5000, 20000}) {
    TupleVec outer = MakeLines(&rng, outer_size, 100);
    auto outer_table = ParallelTable::Load(
        &cluster,
        LineTableDef("outer" + std::to_string(outer_size),
                     PartitioningKind::kRoundRobin),
        outer);
    if (!outer_table.ok()) {
      std::fprintf(stderr, "outer load failed\n");
      return 1;
    }

    const ParallelTable& out = **outer_table;
    // Index plan: scan the outer, broadcast it, probe each fragment's
    // R*-tree (Query::ExecuteJoin's kBroadcastIndexNL branch).
    auto r1 = RunPlan(&cluster, [&](QueryCoordinator* c) -> StatusOr<PerNode> {
      PARADISE_ASSIGN_OR_RETURN(PerNode o, ParallelScan(c, out, nullptr, {}));
      return paradise::core::ParallelIndexSpatialJoin(
          c, o, in, 1, [](const Tuple& t) { return t.at(1); },
          [](const Tuple& o, const Tuple& i) {
            Tuple t = o;
            t.values.insert(t.values.end(), i.values.begin(), i.values.end());
            return t;
          });
    });
    // PBSM plan: scan the outer and the inner's fragments (replicas
    // included), redecluster the outer onto the inner's grid and join
    // (Query::ExecuteJoin's kPbsm branch for a kSpatial inner).
    auto r2 = RunPlan(&cluster, [&](QueryCoordinator* c) -> StatusOr<PerNode> {
      PARADISE_ASSIGN_OR_RETURN(PerNode o, ParallelScan(c, out, nullptr, {}));
      PARADISE_ASSIGN_OR_RETURN(PerNode i,
                                paradise::core::ParallelScanAll(c, in, nullptr));
      paradise::core::ParallelSpatialJoinOptions opts;
      opts.right_predeclustered = true;
      opts.routing_grid = &in.grid();
      return paradise::core::ParallelSpatialJoin(c, o, 1, i, 1,
                                                 in.def().universe, opts);
    });
    if (!r1.ok() || !r2.ok()) {
      std::fprintf(stderr, "join failed: %s\n",
                   (r1.ok() ? r2.status() : r1.status()).ToString().c_str());
      return 1;
    }
    if (JoinedIds(r1->rows) != JoinedIds(r2->rows)) {
      std::fprintf(stderr, "join mismatch at outer size %d!\n", outer_size);
      return 1;
    }
    std::printf("%12d %14.4f %14.4f %10s\n", outer_size, r1->seconds,
                r2->seconds, r1->seconds < r2->seconds ? "index" : "pbsm");
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
