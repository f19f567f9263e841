#include "core/topology.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "core/cluster.h"
#include "core/coordinator.h"
#include "core/table.h"
#include "index/r_star_tree.h"
#include "sim/cost_model.h"

namespace paradise::core {

namespace {

// Migration pacing: a background stream ships 8 MB per modeled second
// when the cluster is idle; its refill is divided by (1 + kSlowdown * K)
// with K queries admitted, and a stream's budget never exceeds one burst.
constexpr double kMigrationBytesPerSecond = 8.0 * 1000 * 1000;
constexpr double kMigrationContentionSlowdown = 1.0;
constexpr int64_t kMigrationMaxBurstBytes = 4 << 20;

}  // namespace

TopologyManager::TopologyManager(Cluster* cluster) : cluster_(cluster) {
  EnsureStates();
}

void TopologyManager::EnsureStates() {
  while (static_cast<int>(states_.size()) < cluster_->num_nodes()) {
    states_.push_back(NodeTopologyState::kActive);
  }
}

NodeTopologyState TopologyManager::EffectiveState(int node) const {
  // A node appended via Cluster::AddNode directly (bypassing this layer)
  // has no bookkeeping yet; it is active.
  NodeTopologyState s = node < static_cast<int>(states_.size())
                            ? states_[static_cast<size_t>(node)]
                            : NodeTopologyState::kActive;
  // A coordinator-initiated MarkNodeDead (crash path) may not have gone
  // through OnNodeDead yet; derive death from the cluster's liveness.
  if (s == NodeTopologyState::kActive && !cluster_->alive(node)) {
    return NodeTopologyState::kDead;
  }
  return s;
}

NodeTopologyState TopologyManager::node_state(int node) const {
  PARADISE_CHECK(node >= 0 && node < cluster_->num_nodes());
  return EffectiveState(node);
}

SpatialGrid* TopologyManager::canonical_grid() const {
  return spatial_tables_.empty() ? nullptr
                                 : spatial_tables_.front()->mutable_grid();
}

void TopologyManager::RegisterTable(ParallelTable* table) {
  for (ParallelTable* t : tables_) {
    if (t == table) return;
  }
  tables_.push_back(table);
  if (catalog::IsSpatialPartitioning(table->def().partitioning)) {
    if (!spatial_tables_.empty()) {
      const SpatialGrid& canon = spatial_tables_.front()->grid();
      PARADISE_CHECK_MSG(
          table->grid().tiles_per_axis() == canon.tiles_per_axis() &&
              table->grid().universe() == canon.universe(),
          "registered spatial tables must share universe and tiles-per-axis");
    }
    spatial_tables_.push_back(table);
  }
}

void TopologyManager::UnregisterTable(ParallelTable* table) {
  auto drop = [table](std::vector<ParallelTable*>* v) {
    v->erase(std::remove(v->begin(), v->end(), table), v->end());
  };
  drop(&tables_);
  drop(&spatial_tables_);
  for (auto& [src, stream] : streams_) {
    auto& q = stream.queue;
    q.erase(std::remove_if(q.begin(), q.end(),
                           [table](const Move& m) { return m.table == table; }),
            q.end());
  }
  gc_.erase(std::remove_if(gc_.begin(), gc_.end(),
                           [table](const GcEntry& e) { return e.table == table; }),
            gc_.end());
}

std::vector<int> TopologyManager::ActiveNodes() const {
  std::vector<int> active;
  for (int n = 0; n < cluster_->num_nodes(); ++n) {
    if (EffectiveState(n) == NodeTopologyState::kActive) active.push_back(n);
  }
  return active;
}

std::vector<uint32_t> TopologyManager::OwnedTiles(int node) const {
  std::vector<uint32_t> owned;
  const SpatialGrid* grid = canonical_grid();
  if (grid == nullptr) return owned;
  for (uint32_t t = 0; t < grid->num_tiles(); ++t) {
    if (grid->NodeOfTile(t) == static_cast<uint32_t>(node)) owned.push_back(t);
  }
  return owned;
}

void TopologyManager::QueueMove(Move move, bool front) {
  Stream& s = streams_[move.source];
  if (!s.budget_init) {
    s.budget_bytes = static_cast<double>(kMigrationMaxBurstBytes);
    s.budget_init = true;
  }
  if (front) {
    s.queue.push_front(std::move(move));
  } else {
    s.queue.push_back(std::move(move));
  }
}

int TopologyManager::AddNode() {
  EnsureStates();
  const int id = cluster_->AddNode();
  states_.push_back(NodeTopologyState::kActive);
  for (ParallelTable* t : tables_) {
    PARADISE_CHECK(t->EnsureFragments(cluster_).ok());
  }
  SpatialGrid* grid = canonical_grid();
  if (grid != nullptr) {
    // Fair share: num_tiles / num_active tiles, taken from the most
    // loaded donors (ties to the lowest node id, tiles ascending) so
    // repeated scale-outs stay balanced and deterministic.
    const std::vector<int> active = ActiveNodes();
    const uint32_t share =
        grid->num_tiles() / static_cast<uint32_t>(active.size());
    std::map<int, std::vector<uint32_t>> donor_tiles;
    for (int n : active) {
      if (n != id) donor_tiles[n] = OwnedTiles(n);
    }
    std::map<int, size_t> taken;  // per-donor cursor into its tile list
    for (uint32_t planned = 0; planned < share; ++planned) {
      int donor = -1;
      size_t donor_left = 0;
      for (const auto& [n, tiles] : donor_tiles) {
        size_t left = tiles.size() - taken[n];
        if (left > donor_left) {
          donor = n;
          donor_left = left;
        }
      }
      if (donor < 0 || donor_left == 0) break;
      Move m;
      m.spatial = true;
      m.tile = donor_tiles[donor][taken[donor]++];
      m.source = donor;
      m.target = id;
      QueueMove(std::move(m));
    }
  }
  ++epoch_;
  UpdateBackgroundLoad();
  return id;
}

void TopologyManager::DrainNode(int node) {
  EnsureStates();
  PARADISE_CHECK_MSG(EffectiveState(node) == NodeTopologyState::kActive,
                     "only an active node can drain");
  states_[static_cast<size_t>(node)] = NodeTopologyState::kDraining;
  std::vector<int> targets = ActiveNodes();
  targets.erase(std::remove(targets.begin(), targets.end(), node),
                targets.end());
  PARADISE_CHECK_MSG(!targets.empty(), "cannot drain the last active node");
  size_t rr = 0;
  for (uint32_t tile : OwnedTiles(node)) {
    Move m;
    m.spatial = true;
    m.tile = tile;
    m.source = node;
    m.target = targets[rr++ % targets.size()];
    QueueMove(std::move(m));
  }
  for (ParallelTable* t : tables_) {
    if (catalog::IsSpatialPartitioning(t->def().partitioning)) continue;
    for (size_t i = 0; i < targets.size(); ++i) {
      Move m;
      m.spatial = false;
      m.table = t;
      m.stripe_index = i;
      m.stripe_count = targets.size();
      m.source = node;
      m.target = targets[i];
      QueueMove(std::move(m));
      ++stats_.stripe_moves;
    }
  }
  ++epoch_;
  UpdateBackgroundLoad();
}

void TopologyManager::RemoveNode(int node) {
  EnsureStates();
  PARADISE_CHECK_MSG(EffectiveState(node) == NodeTopologyState::kDraining,
                     "remove requires a completed drain");
  auto it = streams_.find(node);
  PARADISE_CHECK_MSG(it == streams_.end() || it->second.queue.empty(),
                     "remove requires the drain stream to be empty");
  PARADISE_CHECK_MSG(OwnedTiles(node).empty(),
                     "remove requires the node to own no tiles");
  // Deferred GC on the departing node can run now regardless of pins: a
  // dead node is unreachable to every reader (RunPhase skips it).
  for (auto gc_it = gc_.begin(); gc_it != gc_.end();) {
    if (gc_it->node == node) {
      PARADISE_CHECK(
          gc_it->table->DropRows(cluster_, gc_it->node, gc_it->rows).ok());
      stats_.gc_rows += static_cast<int64_t>(gc_it->rows.size());
      gc_it = gc_.erase(gc_it);
    } else {
      ++gc_it;
    }
  }
  PARADISE_CHECK(cluster_->node(node).pool()->FlushAll().ok());
  cluster_->MarkNodeDead(node);
  states_[static_cast<size_t>(node)] = NodeTopologyState::kRemoved;
  ++epoch_;
}

void TopologyManager::ReinstateNode(int node) {
  EnsureStates();
  PARADISE_CHECK_MSG(states_[static_cast<size_t>(node)] ==
                         NodeTopologyState::kRemoved,
                     "only a planned-removed node can be reinstated");
  cluster_->MarkNodeAlive(node);
  states_[static_cast<size_t>(node)] = NodeTopologyState::kActive;
  SpatialGrid* grid = canonical_grid();
  if (grid != nullptr) {
    // Move back every tile whose base owner the node is, in tile order.
    const uint32_t home = static_cast<uint32_t>(node);
    for (uint32_t tile = 0; tile < grid->num_tiles(); ++tile) {
      const uint32_t owner = grid->NodeOfTile(tile);
      if (grid->BaseNodeOfTile(tile) != home || owner == home) continue;
      Move m;
      m.spatial = true;
      m.tile = tile;
      m.source = static_cast<int>(owner);
      m.target = node;
      QueueMove(std::move(m));
    }
  }
  ++epoch_;
  UpdateBackgroundLoad();
}

int TopologyManager::ShedHotTiles(int source, int k) {
  EnsureStates();
  if (k <= 0 || EffectiveState(source) != NodeTopologyState::kActive) {
    return 0;
  }
  SpatialGrid* grid = canonical_grid();
  if (grid == nullptr) return 0;
  std::vector<int> targets = ActiveNodes();
  targets.erase(std::remove(targets.begin(), targets.end(), source),
                targets.end());
  if (targets.empty()) return 0;

  // Sample per-tile weight: live R*-tree hits across the registered
  // spatial tables, charged as index probes on the source. The trees keep
  // the entries of rows migration GC dropped, which weigh nothing.
  sim::NodeClock* clock = cluster_->node(source).clock();
  std::vector<std::pair<int64_t, uint32_t>> weighted;  // (-count, tile)
  for (uint32_t tile : OwnedTiles(source)) {
    if (grid->NodeOfTile(tile) != static_cast<uint32_t>(source)) continue;
    int64_t count = 0;
    for (ParallelTable* t : spatial_tables_) {
      if (source >= t->num_fragments()) continue;
      const ParallelTable::Fragment& frag = t->fragment(source);
      if (frag.rtree == nullptr) continue;
      clock->ChargeCpu(sim::cpu_cost::kIndexProbe);
      frag.rtree->SearchOverlap(grid->TileBox(tile),
                                [&](const geom::Box&, uint64_t r) {
                                  if (frag.row_live(r)) ++count;
                                  return true;
                                });
    }
    weighted.emplace_back(-count, tile);
  }
  std::sort(weighted.begin(), weighted.end());

  // Targets ranked by owned + already-planned tiles (least loaded first,
  // ties to the lowest id).
  std::map<int, size_t> load;
  for (int t : targets) load[t] = OwnedTiles(t).size();
  for (const auto& [src, stream] : streams_) {
    for (const Move& m : stream.queue) {
      if (m.spatial && load.count(m.target) != 0) ++load[m.target];
    }
  }
  int planned = 0;
  for (const auto& [neg_count, tile] : weighted) {
    if (planned >= k || neg_count == 0) break;
    int best = -1;
    size_t best_load = 0;
    for (const auto& [t, l] : load) {
      if (best < 0 || l < best_load) {
        best = t;
        best_load = l;
      }
    }
    Move m;
    m.spatial = true;
    m.tile = tile;
    m.source = source;
    m.target = best;
    QueueMove(std::move(m));
    ++load[best];
    ++planned;
  }
  if (planned > 0) {
    ++epoch_;
    UpdateBackgroundLoad();
  }
  return planned;
}

void TopologyManager::OnNodeDead(int node) {
  EnsureStates();
  if (states_[static_cast<size_t>(node)] == NodeTopologyState::kDead) return;
  states_[static_cast<size_t>(node)] = NodeTopologyState::kDead;
  const std::vector<int> active = ActiveNodes();
  // Moves sourced at the dead node are moot (salvage re-homes its data);
  // moves targeting it retarget onto the lowest-id other active node so
  // a drain in progress can still complete.
  auto stream_it = streams_.find(node);
  if (stream_it != streams_.end()) stream_it->second.queue.clear();
  // Deferred GC aimed at the dead node is moot: salvage decommissions the
  // whole fragment, so the queued row ids would dangle.
  gc_.erase(std::remove_if(gc_.begin(), gc_.end(),
                           [node](const GcEntry& e) { return e.node == node; }),
            gc_.end());
  for (auto& [src, stream] : streams_) {
    for (Move& m : stream.queue) {
      if (m.target != node) continue;
      int retarget = -1;
      for (int a : active) {
        if (a != m.source) {
          retarget = a;
          break;
        }
      }
      m.target = retarget;  // -1 moves are skipped by ExecuteMove
    }
  }
  ++epoch_;
  UpdateBackgroundLoad();
}

Status TopologyManager::MigrateForLoss(ParallelTable* table, int dead_node) {
  PARADISE_CHECK_MSG(!cluster_->alive(dead_node),
                     "loss migration requires the node to be marked dead");
  OnNodeDead(dead_node);
  PARADISE_RETURN_IF_ERROR(table->SalvageDeadNode(cluster_, dead_node));
  // Salvage bulk-inserted rows into every survivor's pool; flush them so
  // a second crash cannot silently drop salvaged copies.
  for (int n = 0; n < cluster_->num_nodes(); ++n) {
    if (!cluster_->alive(n)) continue;
    PARADISE_RETURN_IF_ERROR(cluster_->node(n).pool()->FlushAll());
  }
  // The table's contents changed shape under every cached result computed
  // from it (the old redecluster path silently skipped this).
  WorkloadSession* session = cluster_->workload_session();
  if (session != nullptr) {
    session->InvalidateCachedResults(table->def().name);
    ++stats_.cache_invalidations;
  }
  // The loss rehash may have routed the dead node's tiles onto a node
  // that is mid-drain; put those tiles back on its drain stream.
  RequeueDrainingTiles();
  return Status::OK();
}

Status TopologyManager::MigrateAllForLoss(int dead_node) {
  for (ParallelTable* t : tables_) {
    PARADISE_RETURN_IF_ERROR(MigrateForLoss(t, dead_node));
  }
  return Status::OK();
}

void TopologyManager::RequeueDrainingTiles() {
  if (canonical_grid() == nullptr) return;
  for (int node = 0; node < static_cast<int>(states_.size()); ++node) {
    if (states_[static_cast<size_t>(node)] != NodeTopologyState::kDraining) {
      continue;
    }
    const std::vector<int> targets = ActiveNodes();
    if (targets.empty()) {
      // The loss left no active node to receive the drain: abort it and
      // return the node to duty (it may be the last copy of the data).
      // An operator can re-issue the drain once capacity returns.
      states_[static_cast<size_t>(node)] = NodeTopologyState::kActive;
      auto sit = streams_.find(node);
      if (sit != streams_.end()) sit->second.queue.clear();
      continue;
    }
    std::unordered_set<uint32_t> queued;
    auto it = streams_.find(node);
    if (it != streams_.end()) {
      for (const Move& m : it->second.queue) {
        if (m.spatial) queued.insert(m.tile);
      }
    }
    size_t rr = 0;
    for (uint32_t tile : OwnedTiles(node)) {
      if (queued.count(tile) != 0) continue;
      Move m;
      m.spatial = true;
      m.tile = tile;
      m.source = node;
      m.target = targets[rr++ % targets.size()];
      QueueMove(std::move(m));
    }
  }
  UpdateBackgroundLoad();
}

bool TopologyManager::migration_idle() const {
  for (const auto& [src, stream] : streams_) {
    if (!stream.queue.empty()) return false;
  }
  return true;
}

int64_t TopologyManager::pending_moves() const {
  int64_t n = 0;
  for (const auto& [src, stream] : streams_) {
    n += static_cast<int64_t>(stream.queue.size());
  }
  return n;
}

uint64_t TopologyManager::PinEpoch() {
  std::lock_guard<std::mutex> g(pins_mu_);
  pins_.insert(epoch_);
  return epoch_;
}

void TopologyManager::UnpinEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> g(pins_mu_);
  auto it = pins_.find(epoch);
  if (it != pins_.end()) pins_.erase(it);
}

void TopologyManager::MaybeCollectGarbage(std::set<int>* touched_nodes) {
  uint64_t min_pin = 0;
  bool pinned = false;
  {
    std::lock_guard<std::mutex> g(pins_mu_);
    if (!pins_.empty()) {
      pinned = true;
      min_pin = *pins_.begin();
    }
  }
  while (!gc_.empty()) {
    const GcEntry& e = gc_.front();
    // A reader pinned before the cutover's epoch may still resolve rows
    // to the old home; defer their physical deletion.
    if (pinned && min_pin < e.epoch) break;
    // Re-validated drop: a later move (a crash retarget lands on existing
    // replica holders) may have re-claimed or re-promoted a queued row.
    auto dropped = e.table->DropOrphanedRows(cluster_, e.node, e.rows);
    PARADISE_CHECK(dropped.ok());
    stats_.gc_rows += *dropped;
    touched_nodes->insert(e.node);
    gc_.pop_front();
  }
}

void TopologyManager::UpdateBackgroundLoad() {
  WorkloadSession* session = cluster_->workload_session();
  if (session != nullptr) {
    session->set_background_load(migration_idle() ? 0 : 1);
  }
}

StatusOr<TopologyManager::MoveOutcome> TopologyManager::ExecuteMove(
    const Move& move, std::set<int>* touched_nodes) {
  MoveOutcome out;
  if (move.target < 0 || !cluster_->alive(move.source) ||
      !cluster_->alive(move.target) || move.source == move.target) {
    return out;  // stale (crash or retarget raced the plan); drop
  }
  SpatialGrid* grid = canonical_grid();
  if (move.spatial) {
    PARADISE_CHECK(grid != nullptr);
    if (grid->NodeOfTile(move.tile) != static_cast<uint32_t>(move.source)) {
      return out;  // tile moved on (e.g. by a loss rehash); plan is stale
    }
  }

  // Stage: ship the tile's rows for every registered spatial table (or
  // the one table's stripe) as non-primary copies at the target.
  std::vector<std::pair<ParallelTable*, ParallelTable::StagedMove>> staged;
  if (move.spatial) {
    for (ParallelTable* t : spatial_tables_) {
      PARADISE_ASSIGN_OR_RETURN(
          ParallelTable::StagedMove st,
          t->StageTileRows(cluster_, move.tile, move.source, move.target));
      out.bytes += st.bytes;
      stats_.migration_bytes += st.bytes;
      stats_.rows_shipped += st.rows_shipped;
      stats_.rows_deduped += st.rows_deduped;
      staged.emplace_back(t, std::move(st));
    }
  } else {
    PARADISE_ASSIGN_OR_RETURN(
        ParallelTable::StagedMove st,
        move.table->StageStripeRows(cluster_, move.source, move.target,
                                    move.stripe_index, move.stripe_count));
    out.bytes += st.bytes;
    stats_.migration_bytes += st.bytes;
    stats_.rows_shipped += st.rows_shipped;
    stats_.rows_deduped += st.rows_deduped;
    staged.emplace_back(move.table, std::move(st));
  }
  // "The last run lands": the staged copies must be durable at the
  // target before cutover can flip ownership — and before any injected
  // crash, which discards volatile state only.
  PARADISE_RETURN_IF_ERROR(cluster_->node(move.target).pool()->FlushAll());
  touched_nodes->insert(move.source);
  touched_nodes->insert(move.target);

  const int64_t ordinal = migration_ordinal_++;
  std::optional<sim::MigrationCrashEvent> crash;
  if (cluster_->fault_injector() != nullptr) {
    crash = cluster_->fault_injector()->TakeMigrationCrash(ordinal);
  }
  if (crash.has_value()) {
    out.crashed = true;
    const int victim = crash->target_side ? move.target : move.source;
    cluster_->CrashNode(victim);
    cluster_->coordinator_clock()->ChargeIdle(
        sim::RetryPolicy::kDetectTimeoutSeconds);
    // Roll back the staged copies (the tile stays exactly-once owned by
    // its old home). Post-crash is safe: the target's staged runs were
    // flushed, so the tombstoning deletes below see them; the deletes
    // are then flushed themselves at pump end.
    for (auto& [t, st] : staged) {
      PARADISE_RETURN_IF_ERROR(t->UnstageMove(cluster_, st));
      ++stats_.rollbacks;
    }
    PARADISE_RETURN_IF_ERROR(cluster_->node(move.target).pool()->FlushAll());
    if (!crash->permanent) {
      // Transient: the move resumes at the front of its stream; the
      // retry's dedup pass reclaims any copies that survived.
      QueueMove(move, /*front=*/true);
      ++stats_.resumed_moves;
      return out;
    }
    cluster_->MarkNodeDead(victim);
    OnNodeDead(victim);
    touched_nodes->insert(victim);
    PARADISE_RETURN_IF_ERROR(MigrateAllForLoss(victim));
    return out;
  }

  // Cutover: one epoch bump repoints the tile in every registered grid;
  // primary flags flip on both sides and rows the source no longer
  // covers become deferred garbage (readers pinned on an older epoch
  // still resolve them).
  ++epoch_;
  if (move.spatial) {
    for (ParallelTable* t : spatial_tables_) {
      t->mutable_grid()->ReassignTile(move.tile,
                                      static_cast<uint32_t>(move.target));
    }
  }
  WorkloadSession* session = cluster_->workload_session();
  for (auto& [t, st] : staged) {
    PARADISE_ASSIGN_OR_RETURN(ParallelTable::CutoverResult cut,
                              t->CutoverMove(cluster_, st));
    if (!cut.orphaned_source_rows.empty()) {
      GcEntry e;
      e.table = t;
      e.node = move.source;
      e.rows = std::move(cut.orphaned_source_rows);
      e.epoch = epoch_;
      gc_.push_back(std::move(e));
    }
    if (!st.empty()) {
      // The physical layout under any cached result computed from this
      // table just changed — same rule as NoteTableMutation.
      if (session != nullptr) {
        session->InvalidateCachedResults(t->def().name);
        ++stats_.cache_invalidations;
      }
    }
  }
  if (move.spatial) {
    ++stats_.tiles_moved;
  }
  // The flag flips above are updates in dirty pool pages, and a crash
  // loses the pool. Land them now, not at pump end: a crash injected into
  // a *later* move of the same pump step must not be able to revert this
  // committed cutover on disk.
  PARADISE_RETURN_IF_ERROR(cluster_->node(move.source).pool()->FlushAll());
  PARADISE_RETURN_IF_ERROR(cluster_->node(move.target).pool()->FlushAll());
  return out;
}

Status TopologyManager::PumpMigration(double now_seconds) {
  EnsureStates();
  WorkloadSession* session = cluster_->workload_session();
  const int in_flight = session != nullptr ? session->in_flight() : 0;
  const bool quiescent = in_flight == 0;

  // Refill every stream's token bucket over the modeled interval since
  // the last pump, slowed by the admission level so migration backs off
  // under load instead of inflating foreground p99.
  double dt = now_seconds - last_pump_seconds_;
  if (dt < 0) dt = 0;
  last_pump_seconds_ = now_seconds;
  const double refill = kMigrationBytesPerSecond /
                        (1.0 + kMigrationContentionSlowdown *
                                   static_cast<double>(in_flight));
  for (auto& [src, stream] : streams_) {
    if (stream.queue.empty()) {
      stream.budget_bytes = static_cast<double>(kMigrationMaxBurstBytes);
      continue;
    }
    stream.budget_bytes =
        std::min(stream.budget_bytes + refill * dt,
                 static_cast<double>(kMigrationMaxBurstBytes));
  }
  if (!quiescent) {
    if (!migration_idle()) ++stats_.cutovers_deferred;
    return Status::OK();
  }

  std::set<int> touched;
  bool crashed = false;
  for (auto& [src, stream] : streams_) {
    while (!crashed && !stream.queue.empty() && stream.budget_bytes > 0.0) {
      Move move = stream.queue.front();
      stream.queue.pop_front();
      PARADISE_ASSIGN_OR_RETURN(MoveOutcome out, ExecuteMove(move, &touched));
      stream.budget_bytes -= static_cast<double>(out.bytes);
      // A crash mid-move re-plans streams (loss rehash, requeue); stop
      // this pump step and let the next one see the new plan.
      if (out.crashed) crashed = true;
    }
    if (crashed) break;
  }

  // Cutover flag flips and GC tombstones are updates sitting in dirty pool
  // pages; land them so a later injected crash cannot resurrect a
  // migrated-away row.
  MaybeCollectGarbage(&touched);
  for (int n : touched) {
    PARADISE_RETURN_IF_ERROR(cluster_->node(n).pool()->FlushAll());
  }
  UpdateBackgroundLoad();
  return Status::OK();
}

Status TopologyManager::DrainMigration(double now_seconds) {
  WorkloadSession* session = cluster_->workload_session();
  PARADISE_CHECK_MSG(session == nullptr || session->in_flight() == 0,
                     "DrainMigration requires a quiescent session");
  for (int guard = 0; !migration_idle(); ++guard) {
    PARADISE_CHECK_MSG(guard < 100000, "migration drain does not converge");
    for (auto& [src, stream] : streams_) {
      stream.budget_bytes = 1e18;
      stream.budget_init = true;
    }
    PARADISE_RETURN_IF_ERROR(PumpMigration(now_seconds));
  }
  return Status::OK();
}

}  // namespace paradise::core
