#ifndef PARADISE_CORE_TABLE_H_
#define PARADISE_CORE_TABLE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "core/cluster.h"
#include "core/spatial_grid.h"
#include "exec/expr.h"
#include "exec/tuple.h"
#include "index/b_plus_tree.h"
#include "index/r_star_tree.h"
#include "storage/heap_file.h"

namespace paradise::core {

/// A table fully partitioned across the cluster (Section 2.3): one
/// fragment (heap file + local indexes) per node. Spatially declustered
/// tables replicate tuples that span tiles mapped to multiple nodes; each
/// replica carries a *primary* flag (true at the node owning the tuple's
/// reference-point tile), which non-spatial operations use to avoid
/// double-counting. kTwoLayer tables are stored byte for byte like
/// kSpatial ones; the two-layer join derives each copy's begin class from
/// its MBR and the tile, so nothing class-related is stored.
class ParallelTable {
 public:
  struct Fragment {
    std::unique_ptr<storage::HeapFile> file;
    std::vector<storage::Oid> oids;  // row id -> record
    std::vector<uint8_t> primary;    // row id -> primary flag
    /// Row liveness; empty means "all rows live". Migration GC and
    /// staging rollback physically delete records but must keep row ids
    /// stable (indexes and oids vectors are positional), so deleted rows
    /// are tombstoned here instead of erased.
    std::vector<uint8_t> live;
    /// Local indexes (built at load over this fragment only).
    std::unique_ptr<index::RStarTree> rtree;  // on the spatial index column
    std::map<size_t, index::BPlusTree<std::string>> string_indexes;
    std::map<size_t, index::BPlusTree<int64_t>> int_indexes;
    /// Lazily built content-key -> row ids map (the dedup index the
    /// migration/salvage paths consult so a node that already holds a
    /// replica never stores a duplicate). Maintained by every migration
    /// mutation once built; nullptr until first needed.
    std::unique_ptr<std::unordered_map<std::string, std::vector<uint64_t>>>
        contents;

    int64_t num_rows() const { return static_cast<int64_t>(oids.size()); }
    bool row_live(uint64_t r) const { return live.empty() || live[r] != 0; }
    int64_t num_live() const {
      if (live.empty()) return num_rows();
      int64_t n = 0;
      for (uint8_t l : live) n += l;
      return n;
    }
  };

  /// Declusters `rows` across the cluster per `def.partitioning`, writes
  /// each fragment into a heap file on its node (charging load I/O), and
  /// builds the indexes `def.indexes` names. For spatial declustering,
  /// `def.universe` must be set (or it is computed from the data).
  /// `explicit_owners`, when non-null, overrides round-robin placement
  /// with a caller-chosen node per row (e.g. to colocate a raster tuple
  /// with its pre-placed tiles while decorrelating channel and node).
  static StatusOr<std::unique_ptr<ParallelTable>> Load(
      Cluster* cluster, catalog::TableDef def,
      const std::vector<exec::Tuple>& rows,
      uint32_t tiles_per_axis = SpatialGrid::kDefaultTilesPerAxis,
      const std::vector<uint32_t>* explicit_owners = nullptr);

  ParallelTable(const ParallelTable&) = delete;
  ParallelTable& operator=(const ParallelTable&) = delete;

  /// The salvage half of a loss-migration: sequentially reads the dead
  /// node's fragment off its surviving disks and redistributes the rows
  /// over the alive nodes so every query answer stays complete at N−1.
  ///
  ///  - Round-robin tables stripe the salvaged rows over the survivors;
  ///    raster attributes are deep-copied to the new owner.
  ///  - Spatially declustered tables remap the dead node's grid tiles
  ///    over the survivors (SpatialGrid::RehashOntoLive) and ship each
  ///    salvaged row to the new owners of its overlapped remapped tiles.
  ///    A survivor that already holds a replica keeps it (promoted to
  ///    primary when the dead node held the primary copy) instead of
  ///    storing a duplicate — the same content-index dedup the planned
  ///    migration path uses, which is what makes a crashed migration
  ///    exactly-once: rolled-back or re-shipped copies can never double.
  ///
  /// All salvage reads, inserts, index maintenance, and transfers are
  /// charged to the virtual clocks — the honest cost of degraded mode.
  /// Single-threaded; call between phases.
  Status SalvageDeadNode(Cluster* cluster, int dead_node);

  // -- Online tile migration (driven by core::TopologyManager) ------------

  /// One staged (shipped but not yet cut over) tile or stripe move.
  struct StagedRowRef {
    uint64_t row = 0;     // row id in its fragment
    geom::Box mbr;        // partition-column MBR (spatial tables)
    ByteBuffer record;    // stored record bytes (flag byte included)
  };
  struct StagedMove {
    uint32_t tile = 0;    // spatial moves only
    int source = -1;
    int target = -1;
    /// Live rows at the source that the move covers.
    std::vector<StagedRowRef> source_rows;
    /// All copies at the target the move relies on: newly staged inserts
    /// plus pre-existing replicas claimed by the dedup index.
    std::vector<StagedRowRef> target_rows;
    /// Subset of target_rows that were newly inserted (rollback set).
    std::vector<uint64_t> inserted_rows;
    int64_t bytes = 0;          // shallow bytes shipped (one batch charge)
    int64_t rows_shipped = 0;   // newly inserted copies
    int64_t rows_deduped = 0;   // pre-existing replicas claimed instead
    bool empty() const { return source_rows.empty() && target_rows.empty(); }
  };

  /// Grows the fragment vector to cluster->num_nodes() with empty heap
  /// files (at load, and on scale-out onto added nodes).
  Status EnsureFragments(Cluster* cluster);

  /// Ships every live row at `source` overlapping grid tile `tile` to
  /// `target` as a *non-primary* staged copy (invisible to primaries-only
  /// scans, filtered by the reference-point rule in joins until cutover).
  /// Copies the target already holds are claimed, not duplicated. Reads,
  /// inserts, index maintenance and the batched transfer are all charged.
  StatusOr<StagedMove> StageTileRows(Cluster* cluster, uint32_t tile,
                                     int source, int target);

  /// Non-spatial analog: ships stripe `stripe_index` (of `stripe_count`)
  /// of `source`'s live rows to `target` as staged non-primary copies;
  /// raster attributes are deep-copied.
  StatusOr<StagedMove> StageStripeRows(Cluster* cluster, int source,
                                       int target, size_t stripe_index,
                                       size_t stripe_count);

  /// Rolls back a staged move: physically deletes the newly inserted
  /// copies at the target (crash mid-transfer; the tile stays owned by
  /// its old home, exactly once).
  Status UnstageMove(Cluster* cluster, const StagedMove& st);

  /// Commits a staged move *after* the grid has been repointed at the
  /// new owner: recomputes primary flags on both sides and returns the
  /// source rows that no longer overlap any source-owned tile (their
  /// physical deletion is deferred until no query pins an older epoch).
  struct CutoverResult {
    std::vector<uint64_t> orphaned_source_rows;
  };
  StatusOr<CutoverResult> CutoverMove(Cluster* cluster,
                                      const StagedMove& st);

  /// Physically deletes rows previously orphaned by a cutover (epoch GC)
  /// or rolled back. Charged to `node`'s clock.
  Status DropRows(Cluster* cluster, int node,
                  const std::vector<uint64_t>& rows);

  /// Deferred-GC drop with re-validation: a row queued as orphaned at
  /// cutover time may have been re-claimed since — a later move whose
  /// target is this node (crash retargets aim at existing replica
  /// holders) dedups against it or even re-promotes it to primary. Drops
  /// only rows that are still non-primary and overlap no tile this node
  /// owns under the *current* grid; returns how many were dropped.
  StatusOr<int64_t> DropOrphanedRows(Cluster* cluster, int node,
                                     const std::vector<uint64_t>& rows);

  /// Exactly-once ownership audit: every live row's primary flag matches
  /// the grid, a copy exists at every alive owner of an overlapped tile,
  /// and the logical cardinality equals the loaded row count (nothing
  /// lost, nothing duplicated). Read charges apply.
  Status ValidateOwnership(Cluster* cluster) const;

  SpatialGrid* mutable_grid() { return &grid_; }

  const catalog::TableDef& def() const { return def_; }
  const SpatialGrid& grid() const { return grid_; }
  int num_fragments() const { return static_cast<int>(fragments_.size()); }
  Fragment& fragment(int node) { return *fragments_[node]; }
  const Fragment& fragment(int node) const { return *fragments_[node]; }

  /// Total primary tuples (the logical table cardinality).
  int64_t num_rows() const;
  /// Total stored tuples including replicas.
  int64_t num_stored() const;

  /// Sequential scan of node `node`'s fragment through its heap file
  /// (charges that node's disk sequentially + per-tuple CPU). When
  /// `primaries_only`, replicated copies are skipped — correct for
  /// non-spatial queries. A `predicate` keeps only the rows it accepts,
  /// evaluated in `ctx` (required then) with the rows, row order and
  /// charges of the scan followed by exec::Filter. Records are read in
  /// place on their pages; a row the predicate's OverlapsFilterStep
  /// rejects on the stored bytes is never decoded. A malformed record is
  /// kCorruption.
  StatusOr<exec::TupleVec> ScanFragment(
      Cluster* cluster, int node, bool primaries_only,
      const exec::ExprPtr& predicate = nullptr,
      const exec::ExecContext* ctx = nullptr) const;

  /// Random fetch of one row by id (index probe path): charges one random
  /// page read.
  StatusOr<exec::Tuple> FetchRow(Cluster* cluster, int node,
                                 uint64_t row) const;

  /// The shared replica-dedup predicate: true iff this node's copy is the
  /// one a "count each logical row once" operation must keep. Every
  /// manual dedup site (scans, broadcast-join probes, aggregates) routes
  /// through here instead of reading the primary flag directly, so the
  /// keep-rule has exactly one definition.
  bool PrimaryFilter(int node, uint64_t row) const {
    return fragments_[node]->primary[row] != 0;
  }

  /// Average *shallow* tuple bytes (what redistribution moves).
  double avg_tuple_bytes() const { return avg_tuple_bytes_; }

 private:
  ParallelTable() = default;

  /// Appends one migrated/salvaged copy to `node`'s fragment: rasters
  /// are deep-copied to the node, the record's primary byte is set to
  /// `make_primary`, local indexes and the contents map (if built) are
  /// maintained, and insert CPU is charged. Returns the new row id and
  /// the shallow record bytes (what a transfer batch carries).
  struct InsertOutcome {
    uint64_t row = 0;
    int64_t bytes = 0;
  };
  StatusOr<InsertOutcome> InsertMigratedRow(Cluster* cluster, int node,
                                            const exec::Tuple& row,
                                            const ByteBuffer& record,
                                            bool make_primary);

  /// Builds fragment `node`'s content-key index if absent (one charged
  /// fragment read, like the old per-salvage survivor content map — but
  /// persistent and incrementally maintained afterwards).
  Status EnsureContents(Cluster* cluster, int node);

  /// Flips the primary byte of row `row`'s stored record in place, syncs
  /// the flag vector, and charges the flip.
  Status SetRowPrimary(Cluster* cluster, int node, uint64_t row, bool primary);

  catalog::TableDef def_;
  SpatialGrid grid_;  // valid iff IsSpatialPartitioning(def_.partitioning)
  std::vector<std::unique_ptr<Fragment>> fragments_;
  double avg_tuple_bytes_ = 0.0;
  static uint32_t next_file_id_;
};

}  // namespace paradise::core

#endif  // PARADISE_CORE_TABLE_H_
