#ifndef PARADISE_CORE_TOPOLOGY_H_
#define PARADISE_CORE_TOPOLOGY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/spatial_grid.h"

namespace paradise::core {

class Cluster;
class ParallelTable;

/// Effective membership state of one node as the topology layer sees it.
enum class NodeTopologyState : uint8_t {
  kActive = 0,   // serves queries and owns tiles
  kDraining,     // still alive, but its tiles are being migrated away
  kRemoved,      // planned scale-in completed; may be reinstated
  kDead,         // crashed permanently; salvaged, never reinstated
};

/// The cluster-owned, epoch-versioned membership and online-rebalancing
/// layer. Every topology change — node join, drain, removal, crash,
/// migration cutover — bumps a single monotonically increasing epoch,
/// kept here only (no grid carries a copy). In-flight queries pin the
/// epoch they admitted under (QueryCoordinator::BeginQuery) so physical
/// garbage collection of migrated-away rows is deferred until no reader
/// of an older assignment remains; new admissions see the post-change
/// assignment immediately.
///
/// Tile migration is *online and throttled*: moves queue on one stream per
/// source node, and a token bucket (refilled in modeled time, slowed by
/// the workload session's admission level) paces how many bytes each pump
/// step may ship, so foreground p99 degrades gracefully instead of
/// stalling behind a bulk copy. Moves only execute while the session is
/// quiescent (no query mid-flight), which keeps the whole protocol
/// single-threaded and bit-identical at any PARADISE_THREADS.
///
/// Crash-safety (composed with sim::FaultInjector): each executed move
/// consumes one global ordinal; a scheduled or chaos-drawn
/// MigrationCrashEvent fires after the staged runs landed durably on the
/// target but before cutover. The staged copies are rolled back, the
/// victim crashes, and the move either requeues (transient — the retry's
/// dedup pass reclaims whatever survived) or degrades into a loss
/// migration (permanent). Either way every tile stays exactly-once owned.
class TopologyManager {
 public:
  struct Stats {
    int64_t tiles_moved = 0;
    int64_t stripe_moves = 0;
    int64_t migration_bytes = 0;
    int64_t rows_shipped = 0;
    int64_t rows_deduped = 0;
    int64_t rollbacks = 0;       // staged moves undone by a crash
    int64_t resumed_moves = 0;   // moves requeued after a transient crash
    int64_t gc_rows = 0;         // orphaned source rows physically deleted
    int64_t cutovers_deferred = 0;  // pump steps skipped for live queries
    int64_t cache_invalidations = 0;
  };

  explicit TopologyManager(Cluster* cluster);

  TopologyManager(const TopologyManager&) = delete;
  TopologyManager& operator=(const TopologyManager&) = delete;

  // -- Table registry -----------------------------------------------------

  /// Registers a table for topology maintenance (migration, salvage on
  /// loss). All registered *spatial* tables must share the first one's
  /// universe and tiles-per-axis so tile ids are globally comparable; the
  /// first spatial table's grid is the canonical ownership map.
  /// Non-spatial tables are striped off on drain only.
  void RegisterTable(ParallelTable* table);
  /// Must be called before the table is destroyed (table owners outlive
  /// neither the cluster nor pending migration state referencing them).
  void UnregisterTable(ParallelTable* table);

  // -- Planned membership changes -----------------------------------------

  /// Scale-out: appends a new empty node to the cluster, gives every
  /// registered table a fragment there, and queues a fair share of tiles
  /// (num_tiles / num_active, taken from the most-loaded donors) to
  /// migrate onto it. Returns the new node id.
  int AddNode();

  /// Planned scale-in, phase 1: queues migration of every tile the node
  /// owns (round-robin over the remaining active nodes) and, for each
  /// registered non-spatial table, stripes its fragment over them. The
  /// node keeps serving until each tile's last run lands elsewhere.
  void DrainNode(int node);

  /// Planned scale-in, phase 2: requires the drain to have completed
  /// (no owned tiles, no pending moves). Force-collects deferred GC on
  /// the node and marks it dead to the scheduler.
  void RemoveNode(int node);

  /// Rolling-restart rejoin of a previously Removed node: marks it alive
  /// and queues move-back of every tile whose base owner it is.
  void ReinstateNode(int node);

  /// Flash-crowd relief: samples per-tile access weight (R*-tree
  /// candidate counts across registered spatial tables) on `source` and
  /// queues its `k` hottest tiles to the least-loaded other active nodes.
  /// Returns the number of moves planned.
  int ShedHotTiles(int source, int k);

  // -- Crash-driven changes -----------------------------------------------

  /// A permanent node loss expressed as a degenerate topology change: a
  /// zero-throttle migration whose source is dead. Marks the node dead in
  /// the topology (dropping/retargeting pending moves), salvages the
  /// table's fragment over the survivors, and invalidates cached results
  /// that depended on the table. Works for unregistered tables too.
  Status MigrateForLoss(ParallelTable* table, int dead_node);

  /// The one node-loss path: MigrateForLoss for every registered table,
  /// in registration order. The coordinator runs it after a permanent
  /// barrier crash, and ExecuteMove after a permanent migration crash.
  Status MigrateAllForLoss(int dead_node);

  /// Idempotent bookkeeping half of a permanent loss (no data movement):
  /// state -> kDead, epoch bump, pending moves sourced at the node are
  /// dropped and moves targeting it retargeted onto active nodes.
  void OnNodeDead(int node);

  // -- Online migration pump ----------------------------------------------

  /// Advances every migration stream to modeled time `now_seconds`:
  /// refills the token buckets (slowed by the session's admission level)
  /// and, if no query is mid-flight, executes queued moves while budget
  /// lasts. Also runs deferred GC for epochs no query pins any more.
  /// Call between queries / at scheduling points; single-threaded.
  Status PumpMigration(double now_seconds);

  /// Runs the pump with unbounded budget until every stream is empty.
  /// Requires quiescence.
  Status DrainMigration(double now_seconds);

  bool migration_idle() const;
  /// Queued moves across all streams.
  int64_t pending_moves() const;

  // -- Epoch pinning (readers) --------------------------------------------

  uint64_t epoch() const { return epoch_; }

  /// Pins the current epoch (query admission); GC of rows orphaned by
  /// cutovers at later epochs is deferred until the pin is released.
  /// Thread-safe (stream threads admit concurrently).
  uint64_t PinEpoch();
  void UnpinEpoch(uint64_t epoch);

  NodeTopologyState node_state(int node) const;
  const Stats& stats() const { return stats_; }

 private:
  /// One queued tile or stripe move.
  struct Move {
    bool spatial = true;
    uint32_t tile = 0;            // spatial moves (all spatial tables)
    ParallelTable* table = nullptr;  // stripe moves (one table)
    size_t stripe_index = 0;
    size_t stripe_count = 1;
    int source = -1;
    int target = -1;
  };

  /// Per-source migration stream with its token bucket.
  struct Stream {
    std::deque<Move> queue;
    double budget_bytes = 0.0;  // starts full (max_burst)
    bool budget_init = false;
  };

  /// A cutover's orphaned source rows, deletable once no pin predates
  /// `epoch`.
  struct GcEntry {
    ParallelTable* table = nullptr;
    int node = -1;
    std::vector<uint64_t> rows;
    uint64_t epoch = 0;
  };

  struct MoveOutcome {
    int64_t bytes = 0;
    bool crashed = false;
  };

  NodeTopologyState EffectiveState(int node) const;
  void EnsureStates();
  SpatialGrid* canonical_grid() const;
  std::vector<uint32_t> OwnedTiles(int node) const;
  std::vector<int> ActiveNodes() const;
  void QueueMove(Move move, bool front = false);

  StatusOr<MoveOutcome> ExecuteMove(const Move& move,
                                    std::set<int>* touched_nodes);
  void MaybeCollectGarbage(std::set<int>* touched_nodes);
  void UpdateBackgroundLoad();

  /// After a loss rehash, tiles of the dead node may have landed on a
  /// *draining* node (the loss rehash only knows liveness, not drain
  /// intent). Queue drain moves for any such tiles so the drain
  /// still converges to zero owned tiles.
  void RequeueDrainingTiles();

  Cluster* const cluster_;
  Stats stats_;

  std::vector<ParallelTable*> tables_;        // registration order
  std::vector<ParallelTable*> spatial_tables_;  // canonical first
  std::vector<NodeTopologyState> states_;

  uint64_t epoch_ = 0;
  std::map<int, Stream> streams_;  // keyed by source node, ascending
  std::deque<GcEntry> gc_;         // epoch-ordered
  double last_pump_seconds_ = 0.0;
  int64_t migration_ordinal_ = 0;  // global executed-move counter

  mutable std::mutex pins_mu_;
  std::multiset<uint64_t> pins_;
};

}  // namespace paradise::core

#endif  // PARADISE_CORE_TOPOLOGY_H_
