#include "core/coordinator.h"

#include <algorithm>
#include <utility>

#include "core/topology.h"

namespace paradise::core {

// ---------------------------------------------------------------------------
// WorkloadSession
// ---------------------------------------------------------------------------

WorkloadSession::WorkloadSession(Cluster* cluster, const Options& options)
    : cluster_(cluster), options_(options) {
  entities_.reserve(static_cast<size_t>(options_.num_streams));
  for (int s = 0; s < options_.num_streams; ++s) {
    auto e = std::make_unique<Entity>();
    e->stream = s;
    entities_.push_back(std::move(e));
  }
}

WorkloadSession::~WorkloadSession() = default;

WorkloadSession::Entity* WorkloadSession::BoundLocked() {
  auto it = bound_.find(std::this_thread::get_id());
  return it == bound_.end() ? nullptr : it->second;
}

void WorkloadSession::MaybeGrantLocked() {
  // The turnstile invariant: a stream thread runs only while it holds the
  // grant, and a new grant is issued only once every live stream is parked
  // with its next modeled event time. The minimum (time, stream) pair goes
  // next, so execution order is a pure function of modeled time — never of
  // the wall-clock order threads happened to arrive in.
  if (registered_ < options_.num_streams) return;
  Entity* best = nullptr;
  for (const auto& e : entities_) {
    if (e->done) continue;
    if (!e->parked) return;   // a stream is still running (or binding)
    if (e->granted) return;   // a grant is already outstanding
    if (e->waiting_admission) continue;  // waits for a slot, not for time
    if (best == nullptr || e->park_time < best->park_time ||
        (e->park_time == best->park_time && e->stream < best->stream)) {
      best = e.get();
    }
  }
  if (best != nullptr) {
    best->granted = true;
    best->cv.notify_one();
  }
}

void WorkloadSession::ParkUntilGrantedLocked(
    std::unique_lock<std::mutex>& lock, Entity* e, double time) {
  e->park_time = time;
  e->parked = true;
  e->granted = false;
  MaybeGrantLocked();
  e->cv.wait(lock, [&] { return e->granted; });
  e->parked = false;
  e->granted = false;
}

void WorkloadSession::BindStream(int stream) {
  std::lock_guard<std::mutex> g(mu_);
  Entity* e = entities_[static_cast<size_t>(stream)].get();
  e->registered = true;
  ++registered_;
  bound_[std::this_thread::get_id()] = e;
}

WorkloadSession::Ticket* WorkloadSession::AwaitAdmission(
    double ready_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  Entity* e = BoundLocked();
  e->ticket = Ticket{};
  e->ticket.stream = e->stream;
  e->ticket.submit_seconds = ready_seconds;
  // Reach the submission instant in global modeled time.
  ParkUntilGrantedLocked(lock, e, ready_seconds);
  while (in_flight_ >= options_.max_concurrent) {
    // Window full: queue FIFO (= submission-time order, since the queue is
    // joined while holding the grant). A finishing query reparks us at
    // max(submit, its end time); the normal time-ordered grant then fires.
    // Re-check on wake: between the finisher freeing the slot and our
    // grant, another stream (e.g. the finisher's own next query, parked at
    // an earlier modeled instant) may have taken it.
    e->waiting_admission = true;
    e->parked = true;
    e->granted = false;
    admission_queue_.push_back(e);
    MaybeGrantLocked();
    e->cv.wait(lock, [&] { return e->granted; });
    e->parked = false;
    e->granted = false;
  }
  ++in_flight_;
  e->ticket.admit_seconds = e->park_time;
  e->ticket.now_seconds = e->park_time;
  e->ticket.seq = next_seq_++;
  e->ticket.concurrent_at_admit = in_flight_;
  return &e->ticket;
}

void WorkloadSession::FinishQuery(double query_seconds) {
  std::lock_guard<std::mutex> g(mu_);
  Entity* e = BoundLocked();
  const double end = e->ticket.admit_seconds + query_seconds;
  e->ticket.now_seconds = end;
  --in_flight_;
  if (!admission_queue_.empty()) {
    Entity* w = admission_queue_.front();
    admission_queue_.pop_front();
    w->waiting_admission = false;
    w->park_time = std::max(w->ticket.submit_seconds, end);
    // w stays parked; it is woken by a grant once it holds the global
    // minimum event time.
  }
}

void WorkloadSession::EndStream() {
  std::lock_guard<std::mutex> g(mu_);
  Entity* e = BoundLocked();
  e->done = true;
  e->parked = false;
  bound_.erase(std::this_thread::get_id());
  MaybeGrantLocked();
}

WorkloadSession::Ticket* WorkloadSession::CurrentTicket() {
  std::lock_guard<std::mutex> g(mu_);
  Entity* e = BoundLocked();
  return e == nullptr ? nullptr : &e->ticket;
}

int WorkloadSession::BeginPhaseTurn() {
  std::unique_lock<std::mutex> lock(mu_);
  Entity* e = BoundLocked();
  if (e == nullptr) return 0;
  ParkUntilGrantedLocked(lock, e, e->ticket.now_seconds);
  // Background migration streams contend for the same disks and links as
  // an admitted query would.
  return (in_flight_ > 0 ? in_flight_ - 1 : 0) + background_load_;
}

int WorkloadSession::in_flight() const {
  std::lock_guard<std::mutex> g(mu_);
  return in_flight_;
}

void WorkloadSession::RegisterScan(const std::string& key,
                                   double start_seconds, double end_seconds) {
  if (end_seconds <= start_seconds) return;
  std::lock_guard<std::mutex> g(mu_);
  scans_[key].push_back(ScanWindow{start_seconds, end_seconds});
}

int WorkloadSession::GrantScanShare(const std::string& key) {
  std::lock_guard<std::mutex> g(mu_);
  Entity* e = BoundLocked();
  if (!options_.scan_sharing || e == nullptr) return 0;
  auto it = scans_.find(key);
  if (it == scans_.end()) return 0;
  const double t = e->ticket.now_seconds;
  double best_fraction = 0.0;
  for (const ScanWindow& w : it->second) {
    if (t < w.start || t >= w.end) continue;
    best_fraction =
        std::max(best_fraction, (w.end - t) / (w.end - w.start));
  }
  int eighths = static_cast<int>(best_fraction * 8.0 + 1e-9);
  eighths = std::min(eighths, 8);
  if (eighths > 0) ++scan_attaches_;
  return eighths;
}

bool WorkloadSession::LookupCachedResult(const std::string& key,
                                         exec::TupleVec* rows,
                                         double* serve_seconds) {
  std::lock_guard<std::mutex> g(mu_);
  Entity* e = BoundLocked();
  if (!options_.result_cache || e == nullptr) return false;
  auto it = cache_.find(key);
  // Causality in modeled time: a result published after this query's
  // admission instant did not exist yet from its point of view.
  if (it == cache_.end() ||
      it->second.publish_seconds > e->ticket.admit_seconds) {
    ++cache_misses_;
    return false;
  }
  *rows = it->second.rows;
  int64_t bytes = 0;
  for (const exec::Tuple& t : *rows) {
    bytes += static_cast<int64_t>(t.WireBytes());
  }
  // Serving from cache is a key hash plus copying the rows out.
  sim::ResourceUsage u;
  u.cpu_ops = sim::cpu_cost::kHash +
              sim::cpu_cost::kPerByteCopied * static_cast<double>(bytes);
  *serve_seconds = cluster_->cost_model().Seconds(u);
  ++cache_hits_;
  return true;
}

void WorkloadSession::PublishResult(const std::string& key,
                                    std::vector<std::string> dep_tables,
                                    exec::TupleVec rows,
                                    double publish_seconds) {
  std::lock_guard<std::mutex> g(mu_);
  if (!options_.result_cache) return;
  CacheEntry& entry = cache_[key];
  entry.rows = std::move(rows);
  entry.dep_tables = std::move(dep_tables);
  entry.publish_seconds = publish_seconds;
}

void WorkloadSession::InvalidateCachedResults(const std::string& table) {
  std::lock_guard<std::mutex> g(mu_);
  for (auto it = cache_.begin(); it != cache_.end();) {
    const std::vector<std::string>& deps = it->second.dep_tables;
    if (std::find(deps.begin(), deps.end(), table) != deps.end()) {
      it = cache_.erase(it);
      ++cache_invalidations_;
    } else {
      ++it;
    }
  }
}

int64_t WorkloadSession::cache_hits() const {
  std::lock_guard<std::mutex> g(mu_);
  return cache_hits_;
}
int64_t WorkloadSession::cache_misses() const {
  std::lock_guard<std::mutex> g(mu_);
  return cache_misses_;
}
int64_t WorkloadSession::cache_invalidations() const {
  std::lock_guard<std::mutex> g(mu_);
  return cache_invalidations_;
}
int64_t WorkloadSession::scan_attaches() const {
  std::lock_guard<std::mutex> g(mu_);
  return scan_attaches_;
}

// ---------------------------------------------------------------------------
// QueryCoordinator
// ---------------------------------------------------------------------------

QueryCoordinator::QueryCoordinator(Cluster* cluster)
    : cluster_(cluster),
      node_pbsm_(static_cast<size_t>(cluster->num_nodes())) {
  session_ = cluster->workload_session();
  if (session_ != nullptr) {
    ticket_ = session_->CurrentTicket();
  }
  // A coordinator on a thread that is not a bound stream runs in plain
  // single-query mode even while a session is attached elsewhere.
  if (ticket_ == nullptr) session_ = nullptr;
}

Status QueryCoordinator::BeginQuery() {
  if (session_ == nullptr) {
    cluster_->ResetForQuery();
  } else {
    // Multi-tenant mode: pools stay warm and clocks are shared, so no
    // global reset — just make sure no abandoned open-phase usage from an
    // earlier query is sitting on the clocks this query will charge.
    DiscardOpenPhase();
  }
  query_seconds_ = 0.0;
  barriers_passed_ = 0;
  phases_.clear();
  node_pbsm_.assign(node_pbsm_.size(), exec::PbsmJoinStats{});
  ended_ = false;
  // Pin the topology epoch this query admits under: rows orphaned by
  // later migration cutovers stay resolvable until the pin is released.
  if (epoch_pinned_) cluster_->topology()->UnpinEpoch(pinned_epoch_);
  pinned_epoch_ = cluster_->topology()->PinEpoch();
  epoch_pinned_ = true;
  // Barrier 0: a crash scheduled "at query start" fires before any phase.
  return HandleBarrierFaults();
}

void QueryCoordinator::EndQuery() {
  if (ended_) return;
  ended_ = true;
  if (epoch_pinned_) {
    cluster_->topology()->UnpinEpoch(pinned_epoch_);
    epoch_pinned_ = false;
  }
  DiscardOpenPhase();
}

void QueryCoordinator::DiscardOpenPhase() {
  for (int n = 0; n < cluster_->num_nodes(); ++n) {
    cluster_->node(n).clock()->DiscardPhase();
  }
  cluster_->coordinator_clock()->DiscardPhase();
}

void QueryCoordinator::ClosePhase(
    const std::string& name, bool sequential,
    std::chrono::steady_clock::time_point wall_start) {
  PhaseReport report;
  report.name = name;
  report.sequential = sequential;
  report.contention = session_ != nullptr ? phase_contention_ : 0;
  report.scan_shared_windows = phase_shared_windows_;
  phase_shared_windows_ = 0;
  const sim::CostModel& model = cluster_->cost_model();
  auto seconds_of = [&](const sim::ResourceUsage& u) {
    // With zero co-runners the surcharge factors are exactly 1.0, so a
    // lone query in workload mode costs bit-identically to plain mode.
    return session_ != nullptr
               ? ContentionModel::SecondsUnder(model, u, report.contention)
               : model.Seconds(u);
  };
  for (sim::ResourceUsage& usage : cluster_->EndPhaseAllNodes()) {
    double s = seconds_of(usage);
    report.max_node_seconds = std::max(report.max_node_seconds, s);
    report.total_node_seconds += s;
  }
  if (sequential) {
    // The sequential operator may have pulled data from nodes: their
    // phase usage counts toward this phase too (they serve tiles while
    // the coordinator-side operator runs).
    double seq = seconds_of(cluster_->coordinator_clock()->EndPhase());
    report.total_node_seconds += seq;
    report.seconds = seq + report.max_node_seconds;
  } else {
    report.seconds = report.max_node_seconds;
  }
  query_seconds_ += report.seconds;
  report.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  phases_.push_back(std::move(report));
  if (ticket_ != nullptr) {
    ticket_->now_seconds = ticket_->admit_seconds + query_seconds_;
  }
}

Status QueryCoordinator::HandleBarrierFaults() {
  const int barrier = barriers_passed_++;
  sim::FaultInjector* injector = cluster_->fault_injector();
  if (injector == nullptr) return Status::OK();
  while (auto crash = injector->TakeCrashAtBarrier(barrier)) {
    const int n = static_cast<int>(crash->node);
    if (!cluster_->alive(n)) continue;
    const auto wall_start = std::chrono::steady_clock::now();
    cluster_->CrashNode(n);
    // The coordinator notices the missed heartbeat only after the
    // detection timeout.
    cluster_->coordinator_clock()->ChargeIdle(
        sim::RetryPolicy::kDetectTimeoutSeconds);
    if (!crash->permanent) {
      // The node restarts with a cold pool; nothing else was volatile.
      ClosePhase("recover node " + std::to_string(n), /*sequential=*/true,
                 wall_start);
    } else {
      cluster_->MarkNodeDead(n);
      Status st = cluster_->topology()->MigrateAllForLoss(n);
      ClosePhase("redecluster after losing node " + std::to_string(n),
                 /*sequential=*/true, wall_start);
      PARADISE_RETURN_IF_ERROR(std::move(st));
    }
  }
  return Status::OK();
}

Status QueryCoordinator::RunPhase(const std::string& name,
                                  const std::function<Status(int node)>& work,
                                  const std::function<Status()>& merge) {
  return RunPhase(name, PhaseOptions{}, work, merge);
}

Status QueryCoordinator::RunPhase(const std::string& name,
                                  const PhaseOptions& opts,
                                  const std::function<Status(int node)>& work,
                                  const std::function<Status()>& merge) {
  // Workload mode: wait for this query's turn in global modeled-time
  // order and sample the contention level; then see whether this phase
  // can ride an in-flight scan of the same pages.
  double phase_start = 0.0;
  int free_eighths = 0;
  if (session_ != nullptr) {
    phase_contention_ = session_->BeginPhaseTurn();
    phase_start = ticket_->now_seconds;
    if (!opts.scan_share_key.empty()) {
      free_eighths = session_->GrantScanShare(opts.scan_share_key);
    }
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<int> alive = cluster_->alive_node_ids();
  std::vector<storage::ScanShareGate> gates;
  if (free_eighths > 0) {
    gates.resize(static_cast<size_t>(cluster_->num_nodes()));
    for (int n : alive) {
      gates[static_cast<size_t>(n)].free_eighths = free_eighths;
      cluster_->node(n).pool()->ArmScanShareGate(
          &gates[static_cast<size_t>(n)]);
    }
  }
  auto disarm_gates = [&] {
    if (gates.empty()) return;
    for (int n : alive) {
      cluster_->node(n).pool()->ArmScanShareGate(nullptr);
      phase_shared_windows_ += gates[static_cast<size_t>(n)].attached_windows;
    }
    gates.clear();
  };

  // Every alive node executes its fragment on a worker thread; ParallelFor
  // is the phase barrier. Time is taken from the per-node virtual clocks,
  // not the wall, so the thread count affects wall-clock only.
  std::vector<Status> statuses(alive.size());
  try {
    cluster_->thread_pool()->ParallelFor(
        static_cast<int>(alive.size()),
        [&](int i) { statuses[static_cast<size_t>(i)] = work(alive[i]); });
  } catch (...) {
    // A thrown closure still closes the phase: the charges made before
    // the throw belong to this (failing) query, not to whoever runs the
    // next phase on these clocks.
    disarm_gates();
    ClosePhase(name, /*sequential=*/false, wall_start);
    throw;
  }
  // Report the lowest failed node, independent of completion order.
  Status failed = Status::OK();
  for (Status& s : statuses) {
    if (failed.ok() && !s.ok()) failed = std::move(s);
  }
  // Cross-node effects (exchange deliveries, receiver-side charges) run
  // single-threaded after the barrier, inside the same phase.
  if (failed.ok() && merge != nullptr) {
    failed = merge();
  }
  disarm_gates();
  ClosePhase(name, /*sequential=*/false, wall_start);
  if (session_ != nullptr && !opts.scan_share_key.empty()) {
    // This scan (shared or not) is itself a stream later queries can
    // attach to over its modeled window.
    session_->RegisterScan(opts.scan_share_key, phase_start,
                           ticket_->now_seconds);
  }
  PARADISE_RETURN_IF_ERROR(std::move(failed));
  return HandleBarrierFaults();
}

Status QueryCoordinator::RunSequential(const std::string& name,
                                       const std::function<Status()>& work) {
  if (session_ != nullptr) {
    phase_contention_ = session_->BeginPhaseTurn();
  }
  const auto wall_start = std::chrono::steady_clock::now();
  Status st;
  try {
    st = work();
  } catch (...) {
    ClosePhase(name, /*sequential=*/true, wall_start);
    throw;
  }
  ClosePhase(name, /*sequential=*/true, wall_start);
  PARADISE_RETURN_IF_ERROR(std::move(st));
  return HandleBarrierFaults();
}

exec::PbsmJoinStats QueryCoordinator::pbsm_stats() const {
  exec::PbsmJoinStats agg;
  for (const exec::PbsmJoinStats& s : node_pbsm_) {
    agg.partitions += s.partitions;
    agg.cells_per_axis = std::max(agg.cells_per_axis, s.cells_per_axis);
    agg.left_tuples += s.left_tuples;
    agg.right_tuples += s.right_tuples;
    agg.left_items += s.left_items;
    agg.right_items += s.right_items;
    agg.max_partition_items =
        std::max(agg.max_partition_items, s.max_partition_items);
    agg.nonempty_partitions += s.nonempty_partitions;
    agg.parallel_tasks += s.parallel_tasks;
    agg.sweep_pair_compares += s.sweep_pair_compares;
    agg.sweep_candidates += s.sweep_candidates;
    agg.exact_tests += s.exact_tests;
    agg.dedup_tests += s.dedup_tests;
    agg.dedup_dropped += s.dedup_dropped;
    agg.class_a_items += s.class_a_items;
    agg.class_b_items += s.class_b_items;
    agg.class_c_items += s.class_c_items;
    agg.class_d_items += s.class_d_items;
    agg.replicated_entry_bytes += s.replicated_entry_bytes;
  }
  // Mean over *non-empty* partitions, matching the per-node definition —
  // dividing by total P would understate skew exactly when it matters
  // (clustered inputs leaving most partitions empty).
  if (agg.nonempty_partitions > 0) {
    agg.mean_partition_items =
        static_cast<double>(agg.left_items + agg.right_items) /
        static_cast<double>(agg.nonempty_partitions);
  }
  return agg;
}

void QueryCoordinator::NoteTableMutation(const std::string& table) {
  if (session_ != nullptr) {
    session_->InvalidateCachedResults(table);
  }
}

}  // namespace paradise::core
