#include "exec/spatial_join.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "exec/join_kernel.h"
#include "geom/tile_grid.h"
#include "sim/cost_model.h"
#include "storage/page.h"

namespace paradise::exec {

namespace {

using geom::Box;
using geom::Circle;
using geom::Point;

/// SplitMix64 finalizer: decorrelates block coordinates so neighbouring
/// blocks start their round-robin at unrelated partitions.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Cells per block side of the block-hash cell map. Small enough that one
/// clustered query region still spans several blocks, large enough that
/// the round-robin inside a block covers many partitions.
constexpr size_t kCellBlock = 4;

/// Block-hash cell→partition map (see PbsmSpatialJoin). Must be a pure
/// function of (cell, P) — the distribute phase and the reference-point
/// duplicate-elimination rule both evaluate it and must agree.
size_t PartitionOfCell(size_t cell, size_t cells_axis, size_t P) {
  size_t cx = cell % cells_axis;
  size_t cy = cell / cells_axis;
  uint64_t block =
      static_cast<uint64_t>(cy / kCellBlock) * 0x1000193u + (cx / kCellBlock);
  size_t within = (cy % kCellBlock) * kCellBlock + (cx % kCellBlock);
  return static_cast<size_t>((Mix64(block) + within) % P);
}

/// A task-local execution context: same node services, but charges land on
/// `task_clock` and nested operators never re-enter the pool.
ExecContext TaskContext(const ExecContext& ctx, sim::NodeClock* task_clock) {
  ExecContext task = ctx;
  task.clock = task_clock;
  task.pool = nullptr;
  task.pbsm_stats = nullptr;
  return task;
}

/// What one task of a parallel join leaves behind: its own status, output
/// and charges, plus the sweep counters the merge sums.
struct TaskResult {
  Status status = Status::OK();
  TupleVec out;
  sim::ResourceUsage usage;
  bool swept = false;  // ran at least one sweep
  int64_t compares = 0;
  int64_t candidates = 0;
  int64_t exact_tests = 0;
  int64_t dedup_dropped = 0;
};

/// The partition join's task runner: task t runs `body(t, task_ctx,
/// &result)` against a task-local clock whose charges land in
/// result.usage — on the pool when it has real workers and the fan-out is
/// non-trivial, inline otherwise. Each task touches only its own slot, so
/// nothing about the outcome depends on which thread ran it, or when.
template <typename Body>
std::vector<TaskResult> RunTasks(const ExecContext& ctx, size_t count,
                                 const Body& body) {
  std::vector<TaskResult> results(count);
  auto run = [&](size_t t) {
    sim::NodeClock task_clock;
    body(t, TaskContext(ctx, &task_clock), &results[t]);
    results[t].usage = task_clock.EndPhase();
  };
  if (ctx.pool != nullptr && ctx.pool->num_threads() > 1 && count > 1) {
    ctx.pool->ParallelFor(static_cast<int>(count),
                          [&run](int i) { run(static_cast<size_t>(i)); });
  } else {
    for (size_t t = 0; t < count; ++t) run(t);
  }
  return results;
}

/// PBSM's uniform cell grid: maps a coordinate to its cell column / row
/// (clamped to the grid). The extent→cell scale is precomputed once, so
/// mapping a coordinate is one multiply instead of a divide. Clamping
/// happens in double before the integer cast, so out-of-universe and ±inf
/// (empty-box) coordinates clamp instead of invoking UB; an empty box
/// yields an inverted (hi < lo) cell range, i.e. no cells.
struct Grid {
  double xmin;
  double ymin;
  double x_scale;  // cells per unit of width
  double y_scale;  // cells per unit of height
  size_t cells_x;
  size_t cells_y;

  Grid(const Box& universe, size_t cx, size_t cy)
      : xmin(universe.xmin),
        ymin(universe.ymin),
        x_scale(static_cast<double>(cx) / universe.Width()),
        y_scale(static_cast<double>(cy) / universe.Height()),
        cells_x(cx),
        cells_y(cy) {}

  size_t CellX(double x) const {
    double f = std::max(0.0, (x - xmin) * x_scale);
    return static_cast<size_t>(std::min(f, static_cast<double>(cells_x - 1)));
  }
  size_t CellY(double y) const {
    double f = std::max(0.0, (y - ymin) * y_scale);
    return static_cast<size_t>(std::min(f, static_cast<double>(cells_y - 1)));
  }
};

/// One side's bucket assignment in CSR form: `rows` holds tuple ordinals
/// grouped by bucket (replicas included), `offsets[k] .. offsets[k+1]`
/// delimits bucket k. Built by a stable counting sort over a side
/// argsorted by (xlo, ordinal), so each bucket's rows are already in sweep
/// order.
struct SideParts {
  std::vector<uint32_t> rows;
  std::vector<size_t> offsets;

  size_t begin(size_t k) const { return offsets[k]; }
  size_t count(size_t k) const { return offsets[k + 1] - offsets[k]; }
};

/// Per-thread sweep buffers, reused across the tasks a worker runs: every
/// field is fully rewritten before use, so reuse affects only allocation
/// traffic, never results or charges.
struct SweepScratch {
  join_kernel::SweepSide ls, rs;
  std::vector<join_kernel::OrdinalPair> survivors;
};
thread_local SweepScratch t_sweep_scratch;

/// A bucket pair a unit sweeps, as offsets into the unit's buckets.
struct BucketPair {
  uint8_t l, r;
};

// ---------------------------------------------------------------------------
// The partition-join driver. Both local joins — PBSM with reference-point
// dedup and the two-layer class plan — are one pipeline:
//
//   gather → argsort → CSR distribute over K buckets → tasks, each on a
//   task-local clock with one candidate batch → ordered merge →
//   PbsmJoinStats, filled once.
//
// Buckets group into units of kBucketsPerUnit consecutive buckets (a PBSM
// partition; a two-layer tile's four class lists). A task sweeps a list
// of units, and each unit sweeps the bucket pairs kPairs names. A policy
// states what differs between the joins:
//   ForEachBucket(xlo, ylo, xhi, yhi, emit)  the buckets an MBR lands in;
//   num_buckets, kBucketsPerUnit, kPairs     the bucket layout;
//   FormTasks, num_tasks, ForEachUnit        how units group into tasks;
//   kRefPointFilter, OwnsRefPoint            the candidate filter, if any;
//   cells_per_axis, AddClassCensus           extra counters.
// Every hook is a template or inline call: nothing per MBR or per
// candidate goes through a std::function.

/// Replicates each row of `order` (one side's argsorted ordinals) into the
/// buckets `policy` maps its MBR to, as a stable counting sort into CSR
/// form — no per-bucket vector growth. The per-tuple overhead is replayed
/// as one batched charge, identical to the per-tuple sequence because
/// kTupleOverhead is integer-valued.
template <typename Policy>
SideParts Distribute(const ExecContext& ctx,
                     const join_kernel::MbrColumns& cols,
                     const std::vector<uint32_t>& order, Policy* policy) {
  const size_t n = cols.size();
  const size_t K = policy->num_buckets();
  ctx.ChargeCpuOps(static_cast<int64_t>(n), sim::cpu_cost::kTupleOverhead);
  std::vector<uint32_t> entry_bucket, entry_row;
  entry_bucket.reserve(n + n / 4);
  entry_row.reserve(n + n / 4);
  std::vector<size_t> counts(K, 0);
  for (size_t r = 0; r < n; ++r) {
    const uint32_t i = order[r];
    policy->ForEachBucket(cols.xlo[i], cols.ylo[i], cols.xhi[i], cols.yhi[i],
                          [&](size_t k) {
                            entry_bucket.push_back(static_cast<uint32_t>(k));
                            entry_row.push_back(i);
                            ++counts[k];
                          });
  }
  SideParts parts;
  parts.offsets.assign(K + 1, 0);
  for (size_t k = 0; k < K; ++k) {
    parts.offsets[k + 1] = parts.offsets[k] + counts[k];
  }
  parts.rows.resize(entry_row.size());
  std::vector<size_t> cursor(parts.offsets.begin(), parts.offsets.end() - 1);
  for (size_t e = 0; e < entry_row.size(); ++e) {
    parts.rows[cursor[entry_bucket[e]]++] = entry_row[e];
  }
  return parts;
}

template <typename Policy>
StatusOr<TupleVec> PartitionJoin(const TupleVec& left, size_t left_col,
                                 const TupleVec& right, size_t right_col,
                                 const ExecContext& ctx,
                                 const join_kernel::MbrColumns& left_cols,
                                 const join_kernel::MbrColumns& right_cols,
                                 Policy* policy) {
  constexpr size_t B = Policy::kBucketsPerUnit;
  // Each side's ordinals argsorted by (xlo, ordinal), once, globally. The
  // distribute walks rows in this order and its counting sort is stable,
  // so every bucket's row list comes out already in sweep order — the
  // per-bucket sorts the sweep would otherwise run are replaced by two
  // sorts of the whole side. The modeled sort charge is unchanged: it is
  // computed per unit from the bucket sizes, not from how the host sorts.
  const SideParts lp =
      Distribute(ctx, left_cols, join_kernel::ArgsortByXlo(left_cols), policy);
  const SideParts rp = Distribute(
      ctx, right_cols, join_kernel::ArgsortByXlo(right_cols), policy);
  policy->FormTasks(lp, rp);
  const size_t num_tasks = policy->num_tasks();

  // Per task: each unit with entries on both sides is charged its sort,
  // then sweeps its bucket pairs, each candidate batch flushing through
  // the policy's filter into the batched exact pass; the task's pair
  // compares are charged once at the end. A fixed charge sequence per
  // task, so the totals depend only on the task decomposition.
  auto sweep_task = [&](size_t t, const ExecContext& task_ctx,
                        TaskResult* task) {
    SweepScratch& scratch = t_sweep_scratch;
    join_kernel::SweepSide& ls = scratch.ls;
    join_kernel::SweepSide& rs = scratch.rs;
    std::vector<join_kernel::OrdinalPair>& survivors = scratch.survivors;
    size_t unit = 0;  // the unit being swept; the filter tests against it

    auto flush = [&](const join_kernel::Candidate* cands, size_t n) {
      task->candidates += static_cast<int64_t>(n);
      survivors.clear();
      for (size_t c = 0; c < n; ++c) {
        const uint32_t l = cands[c].left_pos;
        const uint32_t r = cands[c].right_pos;
        if constexpr (Policy::kRefPointFilter) {
          if (!policy->OwnsRefPoint(unit, std::max(ls.xlo()[l], rs.xlo()[r]),
                                    std::max(ls.ylo()[l], rs.ylo()[r]))) {
            continue;
          }
        }
        survivors.push_back({ls.ordinal(l), rs.ordinal(r)});
      }
      task->dedup_dropped +=
          static_cast<int64_t>(n) - static_cast<int64_t>(survivors.size());
      task->exact_tests += static_cast<int64_t>(survivors.size());
      if (!task->status.ok() || survivors.empty()) return;
      task->status = join_kernel::ExactJoinBatch(
          left, left_col, right, right_col, survivors.data(),
          survivors.size(), task_ctx, &task->out);
    };

    // The batch is built once per task, on the first sweep, and drained
    // after every sweep so its flush boundaries are those of a fresh batch
    // per sweep.
    std::optional<join_kernel::CandidateBatch> batch;
    policy->ForEachUnit(t, [&](size_t u) {
      size_t l_total = 0, r_total = 0;
      for (size_t c = 0; c < B; ++c) {
        l_total += lp.count(u * B + c);
        r_total += rp.count(u * B + c);
      }
      if (l_total == 0 || r_total == 0) return;
      double sort_charge = 0.0;
      for (size_t c = 0; c < B; ++c) {
        for (const SideParts* side : {&lp, &rp}) {
          const double n = static_cast<double>(side->count(u * B + c));
          if (n > 0) sort_charge += n * std::log2(n + 1);
        }
      }
      task_ctx.ChargeCpu(sort_charge * sim::cpu_cost::kCompare);
      unit = u;
      for (const BucketPair& pair : Policy::kPairs) {
        const size_t lk = u * B + pair.l;
        const size_t rk = u * B + pair.r;
        if (lp.count(lk) == 0 || rp.count(rk) == 0) continue;
        if (!batch) batch.emplace(join_kernel::kCandidateBatchSize, flush);
        ls.GatherPresorted(left_cols, &lp.rows[lp.begin(lk)], lp.count(lk));
        rs.GatherPresorted(right_cols, &rp.rows[rp.begin(rk)], rp.count(rk));
        task->compares += join_kernel::SweepForCandidates(ls, rs, &*batch);
        batch->Flush();
        task->swept = true;
      }
    });
    task_ctx.ChargeCpuOps(task->compares, sim::cpu_cost::kCompare);
  };
  std::vector<TaskResult> results = RunTasks(ctx, num_tasks, sweep_task);

  // Deterministic merge, in task order: the first failing task's error
  // wins; otherwise each task's charges fold into the node clock in one
  // fixed sequence, its counters sum and the outputs concatenate — so
  // results and modeled time are bit-identical at any thread count. The
  // partition shape fills in once after.
  for (TaskResult& r : results) PARADISE_RETURN_IF_ERROR(std::move(r.status));
  PbsmJoinStats st;
  TupleVec out;
  for (TaskResult& r : results) {
    ctx.ChargeUsage(r.usage);
    st.parallel_tasks += r.swept ? 1 : 0;
    st.sweep_pair_compares += r.compares;
    st.sweep_candidates += r.candidates;
    st.exact_tests += r.exact_tests;
    st.dedup_dropped += r.dedup_dropped;
    for (Tuple& tuple : r.out) out.push_back(std::move(tuple));
  }
  if (ctx.pbsm_stats == nullptr) return out;
  if (ctx.pool == nullptr || ctx.pool->num_threads() <= 1) {
    st.parallel_tasks = 0;
  }
  // With the filter, every candidate runs the reference-point test.
  if (Policy::kRefPointFilter) st.dedup_tests = st.sweep_candidates;
  st.partitions = num_tasks;
  st.cells_per_axis = policy->cells_per_axis;
  st.left_tuples = static_cast<int64_t>(left.size());
  st.right_tuples = static_cast<int64_t>(right.size());
  st.left_items = static_cast<int64_t>(lp.rows.size());
  st.right_items = static_cast<int64_t>(rp.rows.size());
  for (size_t t = 0; t < num_tasks; ++t) {
    int64_t items = 0;
    policy->ForEachUnit(t, [&](size_t u) {
      for (size_t c = 0; c < B; ++c) {
        items +=
            static_cast<int64_t>(lp.count(u * B + c) + rp.count(u * B + c));
      }
    });
    st.max_partition_items = std::max(st.max_partition_items, items);
    if (items > 0) ++st.nonempty_partitions;
  }
  if (st.nonempty_partitions > 0) {
    st.mean_partition_items =
        static_cast<double>(st.left_items + st.right_items) /
        static_cast<double>(st.nonempty_partitions);
  }
  st.replicated_entry_bytes =
      (st.left_items - st.left_tuples + st.right_items - st.right_tuples) *
      static_cast<int64_t>(4 * sizeof(double) + sizeof(uint32_t));
  policy->AddClassCensus(&st, lp, rp);
  *ctx.pbsm_stats = st;
  return out;
}

/// PBSM [Pate96]: bucket = join partition. An MBR lands in the partition
/// of every cell it overlaps, once per partition; a task sweeps one
/// partition and keeps a candidate only where the partition owns the cell
/// holding the intersection's lower-left corner. The distribute and the
/// filter both map coordinates through `grid` and cells through
/// PartitionOf, so they agree.
struct PbsmPolicy {
  static constexpr size_t kBucketsPerUnit = 1;
  static constexpr BucketPair kPairs[] = {{0, 0}};
  static constexpr bool kRefPointFilter = true;

  const Grid& grid;
  size_t P;
  size_t cells_per_axis;
  // PartitionOfCell per cell, precomputed for small grids: the distribute
  // loop and the reference-point filter map a cell per visit, and a table
  // lookup beats re-running the block hash. Empty = hash on every call.
  // Same pure function either way.
  std::vector<uint32_t> cell_part;
  // Duplicate guard for a multi-cell MBR: bumping the epoch retires every
  // stamp at once, instead of an O(P) refill per tuple. A single-cell MBR
  // maps to exactly one partition and skips it.
  std::vector<uint32_t> seen_epoch = std::vector<uint32_t>(P, 0);
  uint32_t epoch = 0;

  size_t num_buckets() const { return P; }

  size_t PartitionOf(size_t cell) const {
    if (!cell_part.empty()) return cell_part[cell];
    return PartitionOfCell(cell, cells_per_axis, P);
  }

  template <typename Emit>
  void ForEachBucket(double xlo, double ylo, double xhi, double yhi,
                     const Emit& emit) {
    const size_t cx0 = grid.CellX(xlo), cx1 = grid.CellX(xhi);
    const size_t cy0 = grid.CellY(ylo), cy1 = grid.CellY(yhi);
    if (cx0 == cx1 && cy0 == cy1) {
      emit(PartitionOf(cy0 * grid.cells_x + cx0));
      return;
    }
    ++epoch;
    for (size_t cy = cy0; cy <= cy1; ++cy) {
      for (size_t cx = cx0; cx <= cx1; ++cx) {
        const size_t p = PartitionOf(cy * grid.cells_x + cx);
        if (seen_epoch[p] != epoch) {
          seen_epoch[p] = epoch;
          emit(p);
        }
      }
    }
  }

  void FormTasks(const SideParts&, const SideParts&) {}
  size_t num_tasks() const { return P; }
  template <typename Fn>
  void ForEachUnit(size_t task, const Fn& fn) const {
    fn(task);
  }

  bool OwnsRefPoint(size_t partition, double x, double y) const {
    return PartitionOf(grid.CellY(y) * grid.cells_x + grid.CellX(x)) ==
           partition;
  }

  void AddClassCensus(PbsmJoinStats*, const SideParts&,
                      const SideParts&) const {}
};

constexpr BucketPair Classes(TileClass l, TileClass r) {
  return {static_cast<uint8_t>(l), static_cast<uint8_t>(r)};
}

/// Two-layer class plan (Tsitsigkos et al.): bucket = (owned tile, begin
/// class), four per tile. An MBR lands once in every owned tile it
/// overlaps, under its class there; tiles pack into load-balanced groups,
/// one per task; each tile sweeps the nine class pairs that can hold a
/// pair's intersection reference point, so no candidate needs a filter.
struct TwoLayerPolicy {
  static constexpr size_t kBucketsPerUnit = 4;
  /// At the tile holding the intersection's reference point, neither side
  /// can be x-spilled on both ends (the intersection's xmin is one side's
  /// xmin) nor y-spilled on both ends — which excludes exactly the seven
  /// combinations with B/D on the left and B/D's x-spill or C/D's y-spill
  /// repeated on the right. Note B×C and C×B are required: a wide-flat
  /// MBR crossing a tall-thin one meets it at a tile where neither is
  /// class A.
  static constexpr BucketPair kPairs[] = {
      Classes(TileClass::kA, TileClass::kA),
      Classes(TileClass::kA, TileClass::kB),
      Classes(TileClass::kA, TileClass::kC),
      Classes(TileClass::kA, TileClass::kD),
      Classes(TileClass::kB, TileClass::kA),
      Classes(TileClass::kC, TileClass::kA),
      Classes(TileClass::kD, TileClass::kA),
      Classes(TileClass::kB, TileClass::kC),
      Classes(TileClass::kC, TileClass::kB)};
  static constexpr bool kRefPointFilter = false;

  const geom::TileGrid& grid;
  const TwoLayerOptions& options;
  // Dense ids for the owned tiles (-1 = not owned); buckets are keyed by
  // dense_tile * 4 + class, so unowned tiles cost nothing.
  const std::vector<int32_t>& tile_dense;
  size_t num_dense;
  size_t cells_per_axis = grid.tiles_per_axis();
  std::vector<std::vector<uint32_t>> group_tiles = {};  // tiles per task

  size_t num_buckets() const { return num_dense * 4; }

  // No duplicate guard: a tile is visited at most once per MBR.
  template <typename Emit>
  void ForEachBucket(double xlo, double ylo, double xhi, double yhi,
                     const Emit& emit) const {
    const uint32_t T = grid.tiles_per_axis();
    const geom::TileGrid::CellRange r = grid.RangeOf(xlo, ylo, xhi, yhi);
    for (uint32_t cy = r.cy0; cy <= r.cy1; ++cy) {
      for (uint32_t cx = r.cx0; cx <= r.cx1; ++cx) {
        const int32_t dense = tile_dense[static_cast<size_t>(cy) * T + cx];
        if (dense < 0) continue;
        emit(static_cast<size_t>(dense) * 4 +
             geom::TileGrid::ClassAt(cx, cy, r));
      }
    }
  }

  /// Packs owned tiles into task groups by combined entry load. The group
  /// count and assignment are pure functions of the data and the options
  /// — never of the thread count.
  void FormTasks(const SideParts& l, const SideParts& r) {
    std::vector<int64_t> tile_loads(num_dense, 0);
    int64_t total_entries = 0;
    for (size_t d = 0; d < num_dense; ++d) {
      for (size_t c = 0; c < 4; ++c) {
        tile_loads[d] += static_cast<int64_t>(l.count(d * 4 + c) +
                                              r.count(d * 4 + c));
      }
      total_entries += tile_loads[d];
    }
    const size_t G =
        std::max<size_t>(1, std::min(options.num_tasks, num_dense));
    std::vector<uint32_t> tile_group;
    if (options.group_packer != nullptr) {
      tile_group = options.group_packer(tile_loads, G);
      PARADISE_CHECK(tile_group.size() == num_dense);
    } else {
      // Contiguous prefix packing: close a group once it reaches its
      // equal share of the total load.
      tile_group.resize(num_dense);
      const int64_t share = (total_entries + static_cast<int64_t>(G) - 1) /
                            static_cast<int64_t>(G);
      size_t g = 0;
      int64_t acc = 0;
      for (size_t d = 0; d < num_dense; ++d) {
        tile_group[d] = static_cast<uint32_t>(g);
        acc += tile_loads[d];
        if (acc >= share && g + 1 < G) {
          ++g;
          acc = 0;
        }
      }
    }
    group_tiles.assign(G, {});
    for (size_t d = 0; d < num_dense; ++d) {
      PARADISE_CHECK(tile_group[d] < G);
      group_tiles[tile_group[d]].push_back(static_cast<uint32_t>(d));
    }
  }
  size_t num_tasks() const { return group_tiles.size(); }
  template <typename Fn>
  void ForEachUnit(size_t task, const Fn& fn) const {
    for (uint32_t d : group_tiles[task]) fn(d);
  }

  void AddClassCensus(PbsmJoinStats* st, const SideParts& l,
                      const SideParts& r) const {
    int64_t* census[4] = {&st->class_a_items, &st->class_b_items,
                          &st->class_c_items, &st->class_d_items};
    for (size_t d = 0; d < num_dense; ++d) {
      for (size_t c = 0; c < 4; ++c) {
        *census[c] += static_cast<int64_t>(l.count(d * 4 + c) +
                                           r.count(d * 4 + c));
      }
    }
  }
};

/// Clears the stats sink and gathers both inputs' MBRs into column-major
/// buffers (exec/join_kernel.h) — one `Tuple::at(col).Mbr()` per tuple,
/// never again in the hot phases — and the union of their extents,
/// inflated when degenerate so a grid derived from it has positive cell
/// sizes. The sink is reset up front: one reused across queries must
/// describe *this* join, even when an empty input short-circuits —
/// otherwise the previous query's partition/replication stats leak into
/// this one's report. Returns false for an empty input.
bool GatherInputs(const TupleVec& left, size_t left_col,
                  const TupleVec& right, size_t right_col,
                  const ExecContext& ctx, join_kernel::MbrColumns* left_cols,
                  join_kernel::MbrColumns* right_cols, Box* universe) {
  if (ctx.pbsm_stats != nullptr) ctx.pbsm_stats->Clear();
  if (left.empty() || right.empty()) return false;
  auto gather = [universe](const TupleVec& tuples, size_t col,
                           join_kernel::MbrColumns* cols) {
    const size_t n = tuples.size();
    cols->Resize(n);
    for (size_t i = 0; i < n; ++i) {
      // The tuple array is walked in order but each tuple's values live
      // behind a heap pointer the hardware prefetcher can't follow; stage
      // the next few rows' value arrays in ahead of the Mbr() call.
      if (i + 8 < n) __builtin_prefetch(tuples[i + 8].values.data());
      Box b = tuples[i].at(col).Mbr();
      cols->Set(i, b);
      universe->ExpandToInclude(b);
    }
  };
  gather(left, left_col, left_cols);
  gather(right, right_col, right_cols);
  if (universe->Width() <= 0 || universe->Height() <= 0) {
    *universe = universe->Inflate(1.0);
  }
  return true;
}

}  // namespace

StatusOr<TupleVec> PbsmSpatialJoin(const TupleVec& left, size_t left_col,
                                   const TupleVec& right, size_t right_col,
                                   const ExecContext& ctx,
                                   const PbsmOptions& options) {
  join_kernel::MbrColumns left_cols, right_cols;
  Box universe;
  if (!GatherInputs(left, left_col, right, right_col, ctx, &left_cols,
                    &right_cols, &universe)) {
    return TupleVec();
  }
  const size_t P = std::max<size_t>(1, options.num_partitions);
  size_t cells_axis = options.cells_per_axis;
  if (cells_axis == 0) {
    cells_axis = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(std::sqrt(16.0 * P))));
  }
  Grid grid(universe, cells_axis, cells_axis);
  std::vector<uint32_t> cell_part;
  if (cells_axis * cells_axis <= (1u << 16)) {
    cell_part.resize(cells_axis * cells_axis);
    for (size_t c = 0; c < cell_part.size(); ++c) {
      cell_part[c] = static_cast<uint32_t>(PartitionOfCell(c, cells_axis, P));
    }
  }
  PbsmPolicy policy{grid, P, cells_axis, std::move(cell_part)};
  return PartitionJoin(left, left_col, right, right_col, ctx, left_cols,
                       right_cols, &policy);
}

StatusOr<TupleVec> TwoLayerSpatialJoin(const TupleVec& left, size_t left_col,
                                       const TupleVec& right, size_t right_col,
                                       const ExecContext& ctx,
                                       const TwoLayerOptions& options) {
  PARADISE_CHECK(options.tiles_per_axis > 0);
  const uint32_t T = options.tiles_per_axis;
  const size_t num_tiles = static_cast<size_t>(T) * T;
  PARADISE_CHECK(options.owned == nullptr ||
                 options.owned->size() == num_tiles);

  join_kernel::MbrColumns left_cols, right_cols;
  Box universe;
  if (!GatherInputs(left, left_col, right, right_col, ctx, &left_cols,
                    &right_cols, &universe)) {
    return TupleVec();
  }
  // A supplied universe is used as given — it is the decluster grid's,
  // and the tiles must be exactly the ones the placement used.
  const geom::TileGrid grid(
      options.universe.IsEmpty() ? universe : options.universe, T);

  std::vector<int32_t> tile_dense(num_tiles, -1);
  size_t num_dense = 0;
  for (size_t t = 0; t < num_tiles; ++t) {
    if (options.owned == nullptr || (*options.owned)[t] != 0) {
      tile_dense[t] = static_cast<int32_t>(num_dense++);
    }
  }
  if (num_dense == 0) return TupleVec();
  TwoLayerPolicy policy{grid, options, tile_dense, num_dense};
  return PartitionJoin(left, left_col, right, right_col, ctx, left_cols,
                       right_cols, &policy);
}

void IndexProbeCharger::ChargeVisits(int64_t visited) {
  int64_t cold = std::min(visited, cold_remaining_);
  cold_remaining_ -= cold;
  if (ctx_.clock != nullptr && cold > 0) {
    ctx_.clock->ChargeDiskRead(cold * storage::kPageSize, cold);
  }
  ctx_.ChargeCpu(static_cast<double>(visited - cold) *
                 sim::cpu_cost::kIndexNodeVisit);
}

StatusOr<ClosestMatch> ExpandingCircleClosest(const Point& point,
                                              const TupleVec& targets,
                                              size_t shape_col,
                                              const index::RStarTree& index,
                                              double universe_area,
                                              const ExecContext& ctx) {
  ClosestMatch best;
  if (targets.empty()) return best;

  // Initial circle: one millionth of the universe's area.
  double radius = std::sqrt(universe_area / 1e6 / M_PI);
  double universe_radius = std::sqrt(universe_area);  // generous cover bound
  Value point_value(point);

  // A zero (or NaN) start radius would never grow: scan instead.
  while (radius > 0) {
    ++best.probes;
    ctx.ChargeCpu(sim::cpu_cost::kIndexProbe);
    int64_t nodes = 0;
    double best_d = std::numeric_limits<double>::infinity();
    size_t best_row = 0;
    index.SearchCircle(
        Circle(point, radius),
        [&](const Box&, uint64_t row) {
          const Tuple& t = targets[row];
          auto d_or = SpatialDistance(point_value, t.at(shape_col), ctx);
          if (d_or.ok() && *d_or < best_d) {
            best_d = *d_or;
            best_row = row;
          }
          return true;
        },
        &nodes);
    // The tree is memory resident (built on the fly from redistributed
    // tuples), so probing costs CPU, not I/O.
    ctx.ChargeCpu(static_cast<double>(nodes) * sim::cpu_cost::kIndexNodeVisit);
    if (best_d <= radius) {
      best.found = true;
      best.row = best_row;
      best.distance = best_d;
      return best;
    }
    if (radius > universe_radius) break;
    radius *= std::sqrt(2.0);  // double the circle's area
  }

  // Fall back to a full scan (the circle escaped the universe, or the
  // universe has no area to start one in).
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < targets.size(); ++i) {
    ctx.ChargeCpu(sim::cpu_cost::kTupleOverhead);
    PARADISE_ASSIGN_OR_RETURN(
        double d, SpatialDistance(point_value, targets[i].at(shape_col), ctx));
    if (d < best_d) {
      best_d = d;
      best.row = i;
      best.found = true;
    }
  }
  best.distance = best_d;
  return best;
}

std::unique_ptr<index::RStarTree> BuildRTreeOnColumn(const TupleVec& tuples,
                                                     size_t shape_col,
                                                     const ExecContext& ctx) {
  ctx.ChargeCpu(static_cast<double>(tuples.size()) *
                (sim::cpu_cost::kTupleOverhead + sim::cpu_cost::kHash));
  std::vector<std::pair<Box, uint64_t>> entries;
  entries.reserve(tuples.size());
  for (uint64_t i = 0; i < tuples.size(); ++i) {
    entries.emplace_back(tuples[i].at(shape_col).Mbr(), i);
  }
  if (ctx.clock != nullptr && !tuples.empty()) {
    double n = static_cast<double>(tuples.size());
    ctx.clock->ChargeCpu(n * std::log2(n + 1) * sim::cpu_cost::kCompare);
  }
  return index::RStarTree::BulkLoadStr(std::move(entries));
}

}  // namespace paradise::exec
