#ifndef PARADISE_EXEC_EXEC_CONTEXT_H_
#define PARADISE_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <functional>

#include "array/chunked_array.h"
#include "sim/node_clock.h"
#include "storage/large_object.h"

namespace paradise::common {
class ThreadPool;
}  // namespace paradise::common

namespace paradise::exec {

/// Partition-shape counters the partition joins (PBSM and two-layer)
/// report when the context carries a stats sink: how evenly the
/// partitioning spread the inputs and how much boundary replication it
/// caused. A "partition" is one sweep task: a PBSM partition or a group
/// of two-layer tiles. `max/mean partition items` are over the combined
/// left+right entry counts of non-empty partitions; a map that clusters
/// adjacent hot cells into one partition shows up as max >> mean.
struct PbsmJoinStats {
  size_t partitions = 0;          // sweep tasks actually used
  size_t cells_per_axis = 0;      // grid resolution
  int64_t left_tuples = 0;        // input cardinalities
  int64_t right_tuples = 0;
  int64_t left_items = 0;         // partition entries, replicas included
  int64_t right_items = 0;
  int64_t max_partition_items = 0;
  double mean_partition_items = 0.0;
  int64_t nonempty_partitions = 0;  // partitions with at least one item
  // Tasks that ran at least one sweep, when they ran on a pool with more
  // than one thread (0 when the join ran inline).
  int64_t parallel_tasks = 0;

  // Sweep-kernel counters (summed over partitions, in partition order):
  // pair compares the sweeps performed, MBR-overlapping candidates they
  // emitted, and candidates that survived reference-point dedup into the
  // exact-geometry pass.
  int64_t sweep_pair_compares = 0;
  int64_t sweep_candidates = 0;
  int64_t exact_tests = 0;

  // Duplicate-elimination counters. Legacy replicate-and-dedup joins test
  // every candidate (and every cross-node joined tuple) against the
  // reference-point rule and drop the losers; the two-layer class plan
  // never runs the test, so both counters are exactly 0 there — the
  // observable form of its exactly-once guarantee.
  int64_t dedup_tests = 0;    // reference-point tests executed
  int64_t dedup_dropped = 0;  // candidates/results discarded by them

  // Two-layer class census: partition entries per begin class, left and
  // right combined (all-A means nothing spans a tile boundary). Zero in
  // legacy mode.
  int64_t class_a_items = 0;
  int64_t class_b_items = 0;
  int64_t class_c_items = 0;
  int64_t class_d_items = 0;
  /// Partition-entry bytes beyond one entry per input tuple (the
  /// boundary-replication cost of the grid, in SoA entry bytes).
  int64_t replicated_entry_bytes = 0;

  /// Replication factor: partition entries per input tuple (1.0 = none).
  double replication() const {
    int64_t tuples = left_tuples + right_tuples;
    return tuples == 0 ? 0.0
                       : static_cast<double>(left_items + right_items) /
                             static_cast<double>(tuples);
  }

  void Clear() { *this = PbsmJoinStats(); }

  friend bool operator==(const PbsmJoinStats&, const PbsmJoinStats&) = default;
};

/// Everything an operator needs from the node it runs on: the node's
/// virtual clock for cost charging, a store for large attributes created
/// mid-query (Section 2.5.2's per-operator files), a way to read tiles
/// of rasters owned by *any* node — the local store directly, or the pull
/// protocol for remote owners — and the worker pool for intra-node
/// parallelism (partition-to-threads joins).
struct ExecContext {
  uint32_t node_id = 0;
  sim::NodeClock* clock = nullptr;                 // may be null in tests
  storage::LargeObjectStore* temp_store = nullptr; // for created large attrs

  /// Worker pool for intra-operator parallelism; null (or 1 thread) runs
  /// the operator's tasks inline. Operators must keep their modeled
  /// charges and output order independent of this setting: tasks
  /// accumulate onto task-local clocks and are merged in task order.
  common::ThreadPool* pool = nullptr;

  /// Optional stats sink filled by PbsmSpatialJoin and TwoLayerSpatialJoin
  /// (skew / replication of the partitioning). Not owned; may be null.
  PbsmJoinStats* pbsm_stats = nullptr;

  /// Returns a TileSource able to read tiles of arrays owned by
  /// `owner_node`. The returned pointer stays valid for the query.
  std::function<array::TileSource*(uint32_t owner_node)> tile_source;

  void ChargeCpu(double ops) const {
    if (clock != nullptr) clock->ChargeCpu(ops);
  }

  /// Batched replay of `count` identical per-item charges as one clock op.
  /// Every per-item cpu_cost constant is integer-valued, so the doubles
  /// sum exactly (well below 2^53): `count * per_op` is bit-identical to
  /// `count` sequential ChargeCpu(per_op) calls in any interleaving —
  /// which is what lets the join kernel hoist charges out of hot loops
  /// without perturbing modeled time.
  void ChargeCpuOps(int64_t count, double per_op) const {
    if (clock != nullptr && count > 0) {
      clock->ChargeCpu(static_cast<double>(count) * per_op);
    }
  }

  void ChargeUsage(const sim::ResourceUsage& usage) const {
    if (clock != nullptr) clock->ChargeUsage(usage);
  }

  array::TileSource* SourceFor(uint32_t owner_node) const {
    return tile_source ? tile_source(owner_node) : nullptr;
  }
};

}  // namespace paradise::exec

#endif  // PARADISE_EXEC_EXEC_CONTEXT_H_
