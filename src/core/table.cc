#include "core/table.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "array/raster.h"
#include "common/logging.h"
#include "core/pull.h"
#include "exec/expr.h"
#include "sim/cost_model.h"

namespace paradise::core {

using exec::Tuple;
using exec::TupleVec;
using exec::Value;
using exec::ValueType;

uint32_t ParallelTable::next_file_id_ = 1;

namespace {

/// Record flag byte: 1 for the primary copy, 0 for a replica. Both
/// spatial decluster modes store it the same way.
uint8_t FlagByte(bool primary) { return primary ? 1 : 0; }

ByteBuffer EncodeRow(const Tuple& tuple, bool primary) {
  ByteBuffer out;
  ByteWriter w(&out);
  w.PutU8(FlagByte(primary));
  tuple.Serialize(&w);
  return out;
}

/// A reader over a stored record's tuple bytes (past the flag byte).
ByteReader TupleReader(std::span<const uint8_t> record) {
  return ByteReader(record.data() + 1, record.size() - 1);
}

/// Decodes a stored record. A read past its end, an unknown value tag or
/// a count larger than the bytes left is kCorruption, not an abort.
StatusOr<Tuple> DecodeRow(std::span<const uint8_t> record) {
  if (record.empty()) return Status::Corruption("empty stored record");
  ByteReader r = TupleReader(record);
  Tuple t = Tuple::Deserialize(&r);
  if (r.failed()) return Status::Corruption("malformed stored record");
  return t;
}

/// Primary bit of a stored record's flag byte.
bool RecordPrimary(std::span<const uint8_t> record) {
  PARADISE_CHECK(!record.empty());
  return (record[0] & 1) != 0;
}

/// Content key of a stored record: the serialized tuple without the
/// flag byte, so a primary copy and its replicas compare equal.
std::string RecordKey(const ByteBuffer& record) {
  PARADISE_CHECK(!record.empty());
  return std::string(record.begin() + 1, record.end());
}

}  // namespace

StatusOr<std::unique_ptr<ParallelTable>> ParallelTable::Load(
    Cluster* cluster, catalog::TableDef def, const std::vector<Tuple>& rows,
    uint32_t tiles_per_axis, const std::vector<uint32_t>* explicit_owners) {
  auto table = std::unique_ptr<ParallelTable>(new ParallelTable());
  int num_nodes = cluster->num_nodes();

  // Spatial declustering needs a universe; compute it if absent.
  if (catalog::IsSpatialPartitioning(def.partitioning)) {
    if (def.universe.IsEmpty()) {
      for (const Tuple& t : rows) {
        def.universe.ExpandToInclude(t.at(def.partition_column).Mbr());
      }
    }
    table->grid_ = SpatialGrid(def.universe, tiles_per_axis,
                               static_cast<uint32_t>(num_nodes));
  }

  PARADISE_RETURN_IF_ERROR(table->EnsureFragments(cluster));

  double total_bytes = 0.0;
  std::vector<uint32_t> destinations;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Tuple& row = rows[i];
    total_bytes += static_cast<double>(row.WireBytes());
    destinations.clear();
    uint32_t primary_node = 0;
    switch (def.partitioning) {
      case catalog::PartitioningKind::kRoundRobin:
        primary_node = explicit_owners != nullptr
                           ? (*explicit_owners)[i]
                           : static_cast<uint32_t>(i % num_nodes);
        destinations.push_back(primary_node);
        break;
      case catalog::PartitioningKind::kSpatial:
      case catalog::PartitioningKind::kTwoLayer: {
        geom::Box mbr = row.at(def.partition_column).Mbr();
        destinations = table->grid_.NodesOfBox(mbr);
        primary_node = table->grid_.PrimaryNode(mbr);
        break;
      }
    }
    for (uint32_t n : destinations) {
      Fragment& frag = *table->fragments_[n];
      bool primary = (n == primary_node);
      ByteBuffer record = EncodeRow(row, primary);
      PARADISE_CHECK_MSG(record.size() <= storage::HeapFile::MaxRecordSize(),
                         "tuple exceeds page capacity; use LOB attributes");
      PARADISE_ASSIGN_OR_RETURN(storage::Oid oid,
                                frag.file->Insert(record));
      frag.oids.push_back(oid);
      frag.primary.push_back(primary ? 1 : 0);
    }
  }

  def.num_tuples = static_cast<int64_t>(rows.size());
  table->avg_tuple_bytes_ =
      rows.empty() ? 0.0 : total_bytes / static_cast<double>(rows.size());
  def.avg_tuple_bytes = table->avg_tuple_bytes_;

  // Build the declared indexes, fragment-local, from the stored rows.
  for (int n = 0; n < num_nodes; ++n) {
    Fragment& frag = *table->fragments_[n];
    if (def.indexes.empty()) continue;
    // Materialize the fragment once for index building.
    TupleVec local;
    local.reserve(frag.oids.size());
    for (const storage::Oid& oid : frag.oids) {
      PARADISE_ASSIGN_OR_RETURN(ByteBuffer rec, frag.file->Get(oid));
      PARADISE_ASSIGN_OR_RETURN(Tuple t, DecodeRow(rec));
      local.push_back(std::move(t));
    }
    for (const catalog::IndexDef& idx : def.indexes) {
      if (idx.spatial) {
        // Bulk load (packed) as in [DeWi94].
        std::vector<std::pair<geom::Box, uint64_t>> entries;
        entries.reserve(local.size());
        for (uint64_t r = 0; r < local.size(); ++r) {
          entries.emplace_back(local[r].at(idx.column).Mbr(), r);
        }
        frag.rtree = index::RStarTree::BulkLoadStr(std::move(entries));
      } else {
        ValueType t = def.schema.column(idx.column).type;
        if (t == ValueType::kString) {
          auto [it, unused] = frag.string_indexes.try_emplace(idx.column);
          for (uint64_t r = 0; r < local.size(); ++r) {
            it->second.Insert(local[r].at(idx.column).AsString(), r);
          }
        } else if (t == ValueType::kInt || t == ValueType::kDate) {
          auto [it, unused] = frag.int_indexes.try_emplace(idx.column);
          for (uint64_t r = 0; r < local.size(); ++r) {
            const Value& v = local[r].at(idx.column);
            int64_t key = t == ValueType::kInt
                              ? v.AsInt()
                              : v.AsDate().days_since_epoch();
            it->second.Insert(key, r);
          }
        } else {
          return Status::InvalidArgument("unsupported index column type");
        }
      }
    }
  }

  table->def_ = std::move(def);
  return table;
}

int64_t ParallelTable::num_rows() const {
  int64_t n = 0;
  for (const auto& f : fragments_) {
    for (uint8_t p : f->primary) n += p;
  }
  return n;
}

int64_t ParallelTable::num_stored() const {
  int64_t n = 0;
  for (const auto& f : fragments_) n += f->num_live();
  return n;
}

StatusOr<TupleVec> ParallelTable::ScanFragment(
    Cluster* cluster, int node, bool primaries_only,
    const exec::ExprPtr& predicate, const exec::ExecContext* ctx) const {
  PARADISE_CHECK(predicate == nullptr || ctx != nullptr);
  const Fragment& frag = *fragments_[node];
  sim::NodeClock* clock = cluster->node(node).clock();
  const std::optional<exec::OverlapsFilterStep> step =
      predicate == nullptr ? std::nullopt
                           : exec::OverlapsFilterStep::Of(*predicate);
  // Without a predicate: every row. With one: the rows Eval must decide,
  // decoded during the page walk and evaluated after it.
  TupleVec rows;
  if (predicate == nullptr) rows.reserve(frag.oids.size());
  // The filter step's verdict on each row it saw, in row order: the
  // charge of a row it rejected, or nullopt for a row in `rows`.
  std::vector<std::optional<double>> verdicts;
  auto it = frag.file->NewIterator();
  storage::Oid oid;
  std::span<const uint8_t> record;
  while (it.Next(&oid, &record)) {
    // Charged per stored record read, replica or not; a replica is then
    // skipped on its flag byte without materializing the tuple.
    clock->ChargeCpu(sim::cpu_cost::kTupleOverhead +
                     sim::cpu_cost::kPerByteCopied *
                         static_cast<double>(record.size()));
    if (record.empty()) return Status::Corruption("empty stored record");
    if (primaries_only && !RecordPrimary(record)) continue;
    if (step.has_value()) {
      ByteReader r = TupleReader(record);
      std::optional<double> reject = step->RejectCharge(&r);
      if (reject.has_value()) {
        verdicts.push_back(reject);
        continue;
      }
    }
    PARADISE_ASSIGN_OR_RETURN(Tuple t, DecodeRow(record));
    rows.push_back(std::move(t));
    if (predicate != nullptr) verdicts.push_back(std::nullopt);
  }
  PARADISE_RETURN_IF_ERROR(it.status());
  if (predicate == nullptr) return rows;

  // Charge and evaluate in row order, after the walk, exactly as a scan
  // followed by exec::Filter: cpu_ops is a floating-point sum, so every
  // walk charge lands before the first filter charge. Eval never runs
  // during the walk: a raster clip reads tiles through the same pool.
  TupleVec out;
  size_t next = 0;
  for (const std::optional<double>& reject : verdicts) {
    ctx->ChargeCpu(sim::cpu_cost::kTupleOverhead);
    if (reject.has_value()) {
      ctx->ChargeCpu(*reject);
      continue;
    }
    Tuple& t = rows[next++];
    PARADISE_ASSIGN_OR_RETURN(bool keep,
                              exec::EvalPredicate(predicate, t, *ctx));
    if (keep) out.push_back(std::move(t));
  }
  return out;
}

namespace {

/// Per-operation claim cursor over a fragment's persistent contents map.
/// Pairs each shipped copy with at most one distinct pre-existing *live*
/// copy at the destination; entries appended by the current operation are
/// excluded (the limit is snapshotted at first touch of a key, before any
/// same-key insert can happen), reproducing the one-shot consumption
/// semantics the old per-salvage survivor content map had.
class ContentClaims {
 public:
  explicit ContentClaims(const ParallelTable::Fragment* frag)
      : frag_(frag) {}

  /// Returns the row id of a claimed pre-existing live copy, or -1.
  int64_t Claim(const std::string& key) {
    if (frag_->contents == nullptr) return -1;
    auto it = frag_->contents->find(key);
    if (it == frag_->contents->end()) return -1;
    auto [cur, unused] =
        cursors_.try_emplace(key, Cursor{0, it->second.size()});
    Cursor& c = cur->second;
    while (c.next < c.limit) {
      uint64_t r = it->second[c.next++];
      if (frag_->row_live(r)) return static_cast<int64_t>(r);
    }
    return -1;
  }

 private:
  struct Cursor {
    size_t next;
    size_t limit;
  };
  const ParallelTable::Fragment* frag_;
  std::unordered_map<std::string, Cursor> cursors_;
};

}  // namespace

Status ParallelTable::EnsureContents(Cluster* cluster, int node) {
  Fragment& frag = *fragments_[node];
  if (frag.contents != nullptr) return Status::OK();
  frag.contents = std::make_unique<
      std::unordered_map<std::string, std::vector<uint64_t>>>();
  frag.contents->reserve(frag.oids.size());
  sim::NodeClock* clock = cluster->node(node).clock();
  for (uint64_t r = 0; r < frag.oids.size(); ++r) {
    if (!frag.row_live(r)) continue;
    PARADISE_ASSIGN_OR_RETURN(ByteBuffer rec, frag.file->Get(frag.oids[r]));
    clock->ChargeCpu(sim::cpu_cost::kTupleOverhead + sim::cpu_cost::kHash);
    (*frag.contents)[RecordKey(rec)].push_back(r);
  }
  return Status::OK();
}

StatusOr<ParallelTable::InsertOutcome> ParallelTable::InsertMigratedRow(
    Cluster* cluster, int node, const Tuple& row, const ByteBuffer& record,
    bool make_primary) {
  Tuple local = row;  // shallow copy; rasters deep-copied below
  ByteBuffer rec;
  bool reencode = false;
  for (Value& v : local.values) {
    if (v.type() == ValueType::kRaster) {
      PARADISE_ASSIGN_OR_RETURN(
          array::Raster moved, CopyRasterToNode(cluster, node, *v.AsRaster()));
      v = Value(std::move(moved));
      reencode = true;
    }
  }
  if (reencode) {
    rec = EncodeRow(local, make_primary);
  } else {
    rec = record;
    rec[0] = FlagByte(make_primary);
  }
  Fragment& frag = *fragments_[node];
  PARADISE_ASSIGN_OR_RETURN(storage::Oid oid, frag.file->Insert(rec));
  frag.oids.push_back(oid);
  frag.primary.push_back(make_primary ? 1 : 0);
  if (!frag.live.empty()) frag.live.push_back(1);
  const uint64_t r = frag.oids.size() - 1;
  sim::NodeClock* clock = cluster->node(node).clock();
  clock->ChargeCpu(sim::cpu_cost::kTupleOverhead +
                   sim::cpu_cost::kPerByteCopied *
                       static_cast<double>(rec.size()));
  for (const catalog::IndexDef& idx : def_.indexes) {
    clock->ChargeCpu(sim::cpu_cost::kIndexProbe);
    if (idx.spatial) {
      if (frag.rtree == nullptr) {
        frag.rtree = std::make_unique<index::RStarTree>();
      }
      frag.rtree->Insert(local.at(idx.column).Mbr(), r);
    } else {
      ValueType t = def_.schema.column(idx.column).type;
      if (t == ValueType::kString) {
        frag.string_indexes[idx.column].Insert(local.at(idx.column).AsString(),
                                               r);
      } else {
        const Value& v = local.at(idx.column);
        int64_t key = t == ValueType::kInt ? v.AsInt()
                                           : v.AsDate().days_since_epoch();
        frag.int_indexes[idx.column].Insert(key, r);
      }
    }
  }
  if (frag.contents != nullptr) {
    (*frag.contents)[RecordKey(rec)].push_back(r);
  }
  return InsertOutcome{r, static_cast<int64_t>(rec.size())};
}

Status ParallelTable::SetRowPrimary(Cluster* cluster, int node, uint64_t row,
                                    bool primary) {
  // Flip the flag byte of the *stored* record: the caller's staged bytes
  // may have been re-encoded on insert (raster deep copies), so they are
  // not a valid in-place-update template here.
  Fragment& frag = *fragments_[node];
  PARADISE_ASSIGN_OR_RETURN(ByteBuffer rec, frag.file->Get(frag.oids[row]));
  rec[0] = FlagByte(primary);
  PARADISE_RETURN_IF_ERROR(frag.file->Update(frag.oids[row], rec));
  frag.primary[row] = primary ? 1 : 0;
  cluster->node(node).clock()->ChargeCpu(sim::cpu_cost::kTupleOverhead);
  return Status::OK();
}

Status ParallelTable::SalvageDeadNode(Cluster* cluster, int dead_node) {
  PARADISE_CHECK_MSG(!cluster->alive(dead_node),
                     "redecluster target must be marked dead first");
  Fragment& dead = *fragments_[dead_node];
  sim::NodeClock* dead_clock = cluster->node(dead_node).clock();
  const std::vector<int> survivors = cluster->alive_node_ids();
  PARADISE_CHECK(!survivors.empty());

  const bool spatial = catalog::IsSpatialPartitioning(def_.partitioning);

  // The lost tiles are the ones the grid assigns to the dead node; one
  // rehash over the survivors records their new owners.
  std::unordered_set<uint32_t> lost_tiles;
  if (spatial) {
    for (uint32_t t = 0; t < grid_.num_tiles(); ++t) {
      if (grid_.NodeOfTile(t) == static_cast<uint32_t>(dead_node)) {
        lost_tiles.insert(t);
      }
    }
    grid_.RehashOntoLive(survivors);
  }

  // 1. Salvage: sequentially read the dead fragment off its surviving
  //    disks (the node is gone; its disks are not), charging the salvage
  //    station's clock.
  struct Salvaged {
    Tuple tuple;
    ByteBuffer record;
    bool primary = false;
  };
  std::vector<Salvaged> salvaged;
  salvaged.reserve(dead.oids.size());
  {
    auto it = dead.file->NewIterator();
    storage::Oid oid;
    std::span<const uint8_t> record;
    while (it.Next(&oid, &record)) {
      dead_clock->ChargeCpu(sim::cpu_cost::kTupleOverhead +
                            sim::cpu_cost::kPerByteCopied *
                                static_cast<double>(record.size()));
      Salvaged s;
      PARADISE_ASSIGN_OR_RETURN(s.tuple, DecodeRow(record));
      s.primary = RecordPrimary(record);
      s.record.assign(record.begin(), record.end());
      salvaged.push_back(std::move(s));
    }
    PARADISE_RETURN_IF_ERROR(it.status());
  }

  // 2. Survivors that already hold a replica must keep it instead of
  //    storing a duplicate: consult each survivor's content index (built
  //    on first use — a charged fragment read, part of the honest
  //    integration cost — and maintained incrementally afterwards).
  std::unordered_map<int, ContentClaims> claims;
  if (spatial && !salvaged.empty()) {
    for (int d : survivors) {
      PARADISE_RETURN_IF_ERROR(EnsureContents(cluster, d));
      claims.emplace(d, ContentClaims(fragments_[d].get()));
    }
  }

  // 3. Route every salvaged row to its post-loss owners.
  std::unordered_map<int, int64_t> shipped_bytes;
  size_t stripe = 0;  // round-robin cursor over survivors
  for (Salvaged& s : salvaged) {
    std::vector<uint32_t> dests;
    uint32_t primary_node = 0;
    if (spatial) {
      geom::Box mbr = s.tuple.at(def_.partition_column).Mbr();
      // The new owners of the dead node's tiles that this row overlapped.
      for (uint32_t t : grid_.TilesOfBox(mbr)) {
        if (lost_tiles.count(t) != 0) dests.push_back(grid_.NodeOfTile(t));
      }
      std::sort(dests.begin(), dests.end());
      dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
      primary_node = grid_.PrimaryNode(mbr);
    } else {
      // Round-robin tables stripe the lost rows over survivors.
      dests.push_back(
          static_cast<uint32_t>(survivors[stripe++ % survivors.size()]));
      primary_node = dests[0];
    }

    for (uint32_t dest : dests) {
      const int d = static_cast<int>(dest);
      const bool make_primary = s.primary && dest == primary_node;
      if (spatial) {
        auto claims_it = claims.find(d);
        if (claims_it != claims.end()) {
          int64_t r = claims_it->second.Claim(RecordKey(s.record));
          if (r >= 0) {
            // The survivor already holds a replica; keep it and, when the
            // dead node held the primary copy, promote it in place.
            if (make_primary) {
              PARADISE_RETURN_IF_ERROR(
                  SetRowPrimary(cluster, d, static_cast<uint64_t>(r), true));
            }
            continue;
          }
        }
      }
      PARADISE_ASSIGN_OR_RETURN(
          InsertOutcome out,
          InsertMigratedRow(cluster, d, s.tuple, s.record, make_primary));
      shipped_bytes[d] += out.bytes;
    }
  }

  // Ship the shallow tuple bytes over the salvage station's link, batched
  // per destination (raster tiles were charged by the pull copies).
  for (const auto& [d, bytes] : shipped_bytes) {
    cluster->ChargeTransfer(static_cast<uint32_t>(dead_node),
                            static_cast<uint32_t>(d), bytes);
  }

  // 4. Decommission the dead fragment so nothing can double-read it. The
  //    heap file object stays alive (and registered with its node) but
  //    holds no records.
  for (uint64_t r = 0; r < dead.oids.size(); ++r) {
    if (!dead.row_live(r)) continue;  // already unstaged/GC'd
    PARADISE_RETURN_IF_ERROR(dead.file->Delete(dead.oids[r]));
  }
  dead.oids.clear();
  dead.primary.clear();
  dead.live.clear();
  dead.rtree.reset();
  dead.string_indexes.clear();
  dead.int_indexes.clear();
  dead.contents.reset();
  return Status::OK();
}

Status ParallelTable::EnsureFragments(Cluster* cluster) {
  while (static_cast<int>(fragments_.size()) < cluster->num_nodes()) {
    const int n = static_cast<int>(fragments_.size());
    auto frag = std::make_unique<Fragment>();
    // The fragment's heap file anchors on one of the node's data volumes,
    // never its LOB or temp volume (the volume layer already amortizes
    // seeks for sequential access, which is the dominant pattern).
    frag->file = std::make_unique<storage::HeapFile>(
        next_file_id_++, cluster->node(n).pool(),
        cluster->node(n).data_volume(n % Node::kDataVolumes)->volume_id());
    fragments_.push_back(std::move(frag));
  }
  return Status::OK();
}

StatusOr<ParallelTable::StagedMove> ParallelTable::StageTileRows(
    Cluster* cluster, uint32_t tile, int source, int target) {
  PARADISE_CHECK(catalog::IsSpatialPartitioning(def_.partitioning));
  StagedMove st;
  st.tile = tile;
  st.source = source;
  st.target = target;
  Fragment& src = *fragments_[source];
  if (src.oids.empty()) return st;
  sim::NodeClock* sclock = cluster->node(source).clock();

  // Candidate rows at the source overlapping the tile: pruned through the
  // fragment R*-tree when it indexes the partition column (else its
  // boxes are not the ones the grid declusters on), else a full walk.
  const catalog::IndexDef* spatial_idx =
      def_.FindIndexOn(def_.partition_column, /*spatial=*/true);
  std::vector<uint64_t> candidates;
  if (src.rtree != nullptr && spatial_idx != nullptr) {
    sclock->ChargeCpu(sim::cpu_cost::kIndexProbe);
    src.rtree->SearchOverlap(grid_.TileBox(tile),
                             [&](const geom::Box&, uint64_t r) {
                               candidates.push_back(r);
                               return true;
                             });
    std::sort(candidates.begin(), candidates.end());
  } else {
    candidates.resize(src.oids.size());
    for (uint64_t r = 0; r < src.oids.size(); ++r) candidates[r] = r;
  }

  // Exact membership: the row's partition-column MBR must map the tile
  // into its replication set (the index column may differ, and touching a
  // tile boundary is not the same as overlapping the tile's cell range).
  struct Pending {
    uint64_t row;
    geom::Box mbr;
    ByteBuffer record;
    Tuple tuple;
  };
  std::vector<Pending> eligible;
  for (uint64_t r : candidates) {
    if (!src.row_live(r)) continue;
    PARADISE_ASSIGN_OR_RETURN(ByteBuffer rec, src.file->Get(src.oids[r]));
    sclock->ChargeCpu(sim::cpu_cost::kTupleOverhead +
                      sim::cpu_cost::kPerByteCopied *
                          static_cast<double>(rec.size()));
    PARADISE_ASSIGN_OR_RETURN(Tuple t, DecodeRow(rec));
    geom::Box mbr = t.at(def_.partition_column).Mbr();
    std::vector<uint32_t> tiles = grid_.TilesOfBox(mbr);
    if (std::find(tiles.begin(), tiles.end(), tile) == tiles.end()) continue;
    eligible.push_back(
        Pending{r, mbr, std::move(rec), std::move(t)});
  }
  if (eligible.empty()) return st;

  PARADISE_RETURN_IF_ERROR(EnsureContents(cluster, target));
  ContentClaims claims(fragments_[target].get());
  for (Pending& p : eligible) {
    st.source_rows.push_back(StagedRowRef{p.row, p.mbr, p.record});
    int64_t claimed = claims.Claim(RecordKey(p.record));
    if (claimed >= 0) {
      st.target_rows.push_back(
          StagedRowRef{static_cast<uint64_t>(claimed), p.mbr, p.record});
      ++st.rows_deduped;
    } else {
      // Staged copies land non-primary: invisible to primaries-only
      // scans and filtered by the reference-point rule until cutover.
      PARADISE_ASSIGN_OR_RETURN(
          InsertOutcome out,
          InsertMigratedRow(cluster, target, p.tuple, p.record, false));
      st.target_rows.push_back(StagedRowRef{out.row, p.mbr, p.record});
      st.inserted_rows.push_back(out.row);
      st.bytes += out.bytes;
      ++st.rows_shipped;
    }
  }
  if (st.bytes > 0) {
    cluster->ChargeTransfer(static_cast<uint32_t>(source),
                            static_cast<uint32_t>(target), st.bytes);
  }
  return st;
}

StatusOr<ParallelTable::StagedMove> ParallelTable::StageStripeRows(
    Cluster* cluster, int source, int target, size_t stripe_index,
    size_t stripe_count) {
  PARADISE_CHECK(!catalog::IsSpatialPartitioning(def_.partitioning));
  PARADISE_CHECK(stripe_count > 0 && stripe_index < stripe_count);
  StagedMove st;
  st.source = source;
  st.target = target;
  Fragment& src = *fragments_[source];
  sim::NodeClock* sclock = cluster->node(source).clock();
  for (uint64_t r = stripe_index; r < src.oids.size(); r += stripe_count) {
    if (!src.row_live(r)) continue;
    PARADISE_ASSIGN_OR_RETURN(ByteBuffer rec, src.file->Get(src.oids[r]));
    sclock->ChargeCpu(sim::cpu_cost::kTupleOverhead +
                      sim::cpu_cost::kPerByteCopied *
                          static_cast<double>(rec.size()));
    PARADISE_ASSIGN_OR_RETURN(Tuple t, DecodeRow(rec));
    st.source_rows.push_back(StagedRowRef{r, geom::Box(), rec});
    PARADISE_ASSIGN_OR_RETURN(
        InsertOutcome out, InsertMigratedRow(cluster, target, t, rec, false));
    st.target_rows.push_back(StagedRowRef{out.row, geom::Box(), rec});
    st.inserted_rows.push_back(out.row);
    st.bytes += out.bytes;
    ++st.rows_shipped;
  }
  if (st.bytes > 0) {
    cluster->ChargeTransfer(static_cast<uint32_t>(source),
                            static_cast<uint32_t>(target), st.bytes);
  }
  return st;
}

Status ParallelTable::UnstageMove(Cluster* cluster, const StagedMove& st) {
  return DropRows(cluster, st.target, st.inserted_rows);
}

StatusOr<ParallelTable::CutoverResult> ParallelTable::CutoverMove(
    Cluster* cluster, const StagedMove& st) {
  CutoverResult res;
  const bool spatial = catalog::IsSpatialPartitioning(def_.partitioning);
  Fragment& tgt = *fragments_[st.target];
  for (const StagedRowRef& ref : st.target_rows) {
    const bool want =
        spatial ? grid_.PrimaryNode(ref.mbr) == static_cast<uint32_t>(st.target)
                : true;
    if ((tgt.primary[ref.row] != 0) != want) {
      PARADISE_RETURN_IF_ERROR(
          SetRowPrimary(cluster, st.target, ref.row, want));
    }
  }
  Fragment& src = *fragments_[st.source];
  for (const StagedRowRef& ref : st.source_rows) {
    bool want = false;
    bool keep = false;
    if (spatial) {
      want = grid_.PrimaryNode(ref.mbr) == static_cast<uint32_t>(st.source);
      for (uint32_t t : grid_.TilesOfBox(ref.mbr)) {
        if (grid_.NodeOfTile(t) == static_cast<uint32_t>(st.source)) {
          keep = true;
          break;
        }
      }
    }
    if ((src.primary[ref.row] != 0) != want) {
      PARADISE_RETURN_IF_ERROR(
          SetRowPrimary(cluster, st.source, ref.row, want));
    }
    if (!keep) res.orphaned_source_rows.push_back(ref.row);
  }
  return res;
}

Status ParallelTable::DropRows(Cluster* cluster, int node,
                               const std::vector<uint64_t>& rows) {
  if (rows.empty()) return Status::OK();
  Fragment& frag = *fragments_[node];
  if (frag.live.empty()) frag.live.assign(frag.oids.size(), 1);
  sim::NodeClock* clock = cluster->node(node).clock();
  for (uint64_t r : rows) {
    if (!frag.live[r]) continue;
    PARADISE_RETURN_IF_ERROR(frag.file->Delete(frag.oids[r]));
    frag.live[r] = 0;
    frag.primary[r] = 0;
    clock->ChargeCpu(sim::cpu_cost::kTupleOverhead);
  }
  return Status::OK();
}

StatusOr<int64_t> ParallelTable::DropOrphanedRows(
    Cluster* cluster, int node, const std::vector<uint64_t>& rows) {
  const bool spatial = catalog::IsSpatialPartitioning(def_.partitioning);
  Fragment& frag = *fragments_[node];
  sim::NodeClock* clock = cluster->node(node).clock();
  std::vector<uint64_t> doomed;
  doomed.reserve(rows.size());
  for (uint64_t r : rows) {
    if (r >= frag.oids.size()) continue;  // fragment decommissioned since
    if (!frag.row_live(r)) continue;
    if (spatial) {
      // Re-promoted to primary, or re-claimed as a replica for a tile a
      // later move handed (back) to this node: the orphan verdict from
      // cutover time no longer holds.
      if (frag.primary[r] != 0) continue;
      PARADISE_ASSIGN_OR_RETURN(ByteBuffer rec, frag.file->Get(frag.oids[r]));
      clock->ChargeCpu(sim::cpu_cost::kTupleOverhead);
      PARADISE_ASSIGN_OR_RETURN(Tuple t, DecodeRow(rec));
      bool keep = false;
      for (uint32_t tl : grid_.TilesOfBox(t.at(def_.partition_column).Mbr())) {
        if (grid_.NodeOfTile(tl) == static_cast<uint32_t>(node)) {
          keep = true;
          break;
        }
      }
      if (keep) continue;
    }
    doomed.push_back(r);
  }
  PARADISE_RETURN_IF_ERROR(DropRows(cluster, node, doomed));
  return static_cast<int64_t>(doomed.size());
}

Status ParallelTable::ValidateOwnership(Cluster* cluster) const {
  const bool spatial = catalog::IsSpatialPartitioning(def_.partitioning);
  int64_t primaries = 0;
  // (key, mbr) of every primary copy, for the replica-completeness pass.
  std::vector<std::pair<std::string, geom::Box>> primary_keys;
  // Per-alive-node live content keys.
  std::unordered_map<int, std::unordered_set<std::string>> node_keys;
  for (int n = 0; n < static_cast<int>(fragments_.size()); ++n) {
    const Fragment& frag = *fragments_[n];
    const bool node_alive = cluster->alive(n);
    for (uint64_t r = 0; r < frag.oids.size(); ++r) {
      if (!frag.row_live(r)) continue;
      PARADISE_ASSIGN_OR_RETURN(ByteBuffer rec, frag.file->Get(frag.oids[r]));
      PARADISE_ASSIGN_OR_RETURN(Tuple t, DecodeRow(rec));
      const bool flag = RecordPrimary(rec);
      if ((frag.primary[r] != 0) != flag) {
        return Status::Internal("ownership audit: primary flag vector out of "
                                "sync with stored record");
      }
      if (!node_alive) {
        if (flag) {
          return Status::Internal("ownership audit: primary copy stranded on "
                                  "a dead/removed node");
        }
        continue;
      }
      if (flag) ++primaries;
      if (spatial) {
        geom::Box mbr = t.at(def_.partition_column).Mbr();
        const bool want = grid_.PrimaryNode(mbr) == static_cast<uint32_t>(n);
        if (want != flag) {
          return Status::Internal(
              "ownership audit: primary flag disagrees with grid owner");
        }
        node_keys[n].insert(RecordKey(rec));
        if (flag) primary_keys.emplace_back(RecordKey(rec), mbr);
      }
    }
  }
  if (primaries != def_.num_tuples) {
    return Status::Internal("ownership audit: logical cardinality drifted "
                            "(lost or duplicated rows)");
  }
  if (spatial) {
    for (const auto& [key, mbr] : primary_keys) {
      for (uint32_t d : grid_.NodesOfBox(mbr)) {
        if (static_cast<size_t>(d) >= fragments_.size()) continue;
        if (!cluster->alive(static_cast<int>(d))) continue;
        auto it = node_keys.find(static_cast<int>(d));
        if (it == node_keys.end() || it->second.count(key) == 0) {
          return Status::Internal(
              "ownership audit: replica missing at an alive tile owner");
        }
      }
    }
  }
  return Status::OK();
}

StatusOr<Tuple> ParallelTable::FetchRow(Cluster* cluster, int node,
                                        uint64_t row) const {
  const Fragment& frag = *fragments_[node];
  PARADISE_ASSIGN_OR_RETURN(ByteBuffer record, frag.file->Get(frag.oids[row]));
  cluster->node(node).clock()->ChargeCpu(
      sim::cpu_cost::kTupleOverhead +
      sim::cpu_cost::kPerByteCopied * static_cast<double>(record.size()));
  return DecodeRow(record);
}

}  // namespace paradise::core
