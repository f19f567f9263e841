#ifndef PARADISE_CORE_COORDINATOR_H_
#define PARADISE_CORE_COORDINATOR_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/cluster.h"
#include "exec/tuple.h"

namespace paradise::core {

class WorkloadSession;

/// Surcharges for resources shared between concurrently admitted queries.
/// A phase that ran with K *other* queries admitted pays:
///   disk x (1 + (disk_queue + pool_pressure) x K)    queueing at the
///     volumes plus the extra misses a shared buffer pool causes,
///   net  x (1 + link_share x K)                      the node links carry
///     every query's exchanges,
///   cpu and modeled idle unscaled (each query runs its phases on the
///     nodes' CPUs one at a time in modeled time; idle is already waiting).
/// K is sampled when the phase takes its turn, a pure function of the
/// admission history — so contended time is as deterministic as the
/// uncontended model.
struct ContentionModel {
  static constexpr double kDiskQueueFactor = 0.20;
  static constexpr double kPoolPressureFactor = 0.05;
  static constexpr double kLinkShareFactor = 0.10;

  static double SecondsUnder(const sim::CostModel& m,
                             const sim::ResourceUsage& u, int other_queries) {
    double k = other_queries > 0 ? static_cast<double>(other_queries) : 0.0;
    return m.DiskSeconds(u) *
               (1.0 + (kDiskQueueFactor + kPoolPressureFactor) * k) +
           m.NetSeconds(u) * (1.0 + kLinkShareFactor * k) +
           m.CpuSeconds(u) + u.idle_seconds;
  }
};

/// Admission control and deterministic scheduling for a multi-query
/// workload (N client streams sharing one cluster).
///
/// Determinism model: real execution is serialized — exactly one query
/// runs a phase on the thread pool at a time — but *modeled* time
/// interleaves. Every stream thread parks with the modeled timestamp of
/// its next event (query submission, or its query's next phase at the
/// query's accumulated modeled time); the scheduler always wakes the
/// globally minimal (time, stream) pair. Phases therefore execute in
/// modeled-time order, and every scheduling decision — admission order,
/// contention level, scan-sharing overlap, cache visibility — is a pure
/// function of modeled time, bit-identical at any PARADISE_THREADS
/// setting.
///
/// Admission: at most `max_concurrent` queries are admitted at once; a
/// stream submitting into a full window parks untimed in FIFO order and is
/// admitted at max(submit time, the finishing query's end time).
class WorkloadSession {
 public:
  struct Options {
    int num_streams = 1;
    /// Admitted-query window (the paper's testbed would thrash far
    /// earlier; four concurrent queries is the benchmark's default mix).
    int max_concurrent = 4;
    bool scan_sharing = true;
    bool result_cache = true;
  };

  /// One admitted query's scheduling state. Owned by the session; valid
  /// from AwaitAdmission until the stream's next AwaitAdmission.
  struct Ticket {
    int stream = -1;
    int64_t seq = -1;              // admission order, diagnostics only
    double submit_seconds = 0.0;   // when the client submitted
    double admit_seconds = 0.0;    // when a slot was granted
    double now_seconds = 0.0;      // admit + modeled query time so far
    int concurrent_at_admit = 0;   // queries in flight at admission (incl.
                                   // this one)
  };

  WorkloadSession(Cluster* cluster, const Options& options);
  ~WorkloadSession();

  WorkloadSession(const WorkloadSession&) = delete;
  WorkloadSession& operator=(const WorkloadSession&) = delete;

  // -- Stream-thread protocol ---------------------------------------------
  // Each of the `num_streams` client threads calls BindStream once, then
  // alternates AwaitAdmission / (run query) / FinishQuery, and finally
  // EndStream. Scheduling starts only once every stream is bound.

  void BindStream(int stream);

  /// Blocks until global modeled time reaches `ready_seconds` *and* an
  /// admission slot is free. Returns this query's ticket.
  Ticket* AwaitAdmission(double ready_seconds);

  /// Completes the bound stream's admitted query after `query_seconds` of
  /// modeled time, freeing its slot (and admitting the longest-waiting
  /// queued stream, if any).
  void FinishQuery(double query_seconds);

  /// Retires the bound stream; remaining streams keep scheduling.
  void EndStream();

  // -- Coordinator hooks (called on a bound stream's thread) --------------

  /// The bound thread's current ticket, or null if the calling thread is
  /// not a bound stream (single-query mode).
  Ticket* CurrentTicket();

  /// Parks until it is this query's turn (global modeled time reaches the
  /// ticket's now_seconds). Returns the number of *other* queries admitted
  /// at that instant — the phase's contention level K.
  int BeginPhaseTurn();

  // -- Scan sharing -------------------------------------------------------

  /// Registers a finished scan phase keyed by what it read (e.g.
  /// "scan:raster"): it streamed those pages over [start, end) of modeled
  /// time, and a later scan of the same key may attach to it.
  void RegisterScan(const std::string& key, double start_seconds,
                    double end_seconds);

  /// How much of an in-flight scan of `key` a scan starting now can still
  /// ride, in eighths of its readahead windows (0 = no overlap, 8 = full).
  /// A scan starting at time t inside another's [s, e) has fraction
  /// (e - t) / (e - s) of the stream still ahead of it.
  int GrantScanShare(const std::string& key);

  // -- Result cache -------------------------------------------------------

  /// Looks up `key` at the bound query's admission time. Only entries
  /// published at or before that modeled instant are visible (causality);
  /// on a hit, copies the rows and returns the modeled seconds the serve
  /// costs (hash + copy CPU).
  bool LookupCachedResult(const std::string& key, exec::TupleVec* rows,
                          double* serve_seconds);

  /// Publishes a finished query's rows under `key`, visible to lookups at
  /// or after `publish_seconds`. `dep_tables` names the base tables the
  /// result was computed from; mutating any of them invalidates the entry.
  void PublishResult(const std::string& key,
                     std::vector<std::string> dep_tables, exec::TupleVec rows,
                     double publish_seconds);

  /// Drops every cached result that depends on `table` (called via
  /// QueryCoordinator::NoteTableMutation when a query stores into it).
  void InvalidateCachedResults(const std::string& table);

  // -- Introspection ------------------------------------------------------

  Cluster* cluster() { return cluster_; }
  /// Queries currently admitted (holding slots). The TopologyManager's
  /// migration pump only executes moves when this is zero.
  int in_flight() const;
  /// Contention surcharge for active background work (tile migration):
  /// added to every phase's K so foreground queries pay for sharing the
  /// disks and links with the migration stream. Set by the
  /// TopologyManager; 0 when migration is idle.
  void set_background_load(int load) { background_load_ = load; }
  int64_t cache_hits() const;
  int64_t cache_misses() const;
  int64_t cache_invalidations() const;
  int64_t scan_attaches() const;

 private:
  struct Entity {
    int stream = -1;
    bool registered = false;
    bool done = false;
    bool parked = false;             // holds a modeled next-event time
    bool waiting_admission = false;  // parked untimed in the FIFO queue
    bool granted = false;
    double park_time = 0.0;
    Ticket ticket;
    std::condition_variable cv;
  };

  struct ScanWindow {
    double start = 0.0;
    double end = 0.0;
  };

  struct CacheEntry {
    exec::TupleVec rows;
    std::vector<std::string> dep_tables;
    double publish_seconds = 0.0;
  };

  Entity* BoundLocked();
  /// Parks the bound entity at `time` and blocks until the scheduler
  /// grants it the turn (it holds the global minimum next-event time).
  void ParkUntilGrantedLocked(std::unique_lock<std::mutex>& lock, Entity* e,
                              double time);
  /// Wakes the minimal parked entity iff every live entity is parked (the
  /// turnstile invariant: at most one stream thread executes at a time).
  void MaybeGrantLocked();

  Cluster* const cluster_;
  const Options options_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entity>> entities_;  // index = stream id
  std::unordered_map<std::thread::id, Entity*> bound_;
  int registered_ = 0;
  int in_flight_ = 0;
  int background_load_ = 0;
  int64_t next_seq_ = 0;
  std::deque<Entity*> admission_queue_;
  std::unordered_map<std::string, std::vector<ScanWindow>> scans_;
  std::unordered_map<std::string, CacheEntry> cache_;
  int64_t cache_hits_ = 0;
  int64_t cache_misses_ = 0;
  int64_t cache_invalidations_ = 0;
  int64_t scan_attaches_ = 0;
};

/// The Query Coordinator (Section 2.2): controls the parallel execution of
/// a query as a sequence of *phases*. Within a phase every node works
/// independently; redistribution points and the final result collection
/// are phase barriers.
///
/// Modeled query time = sum over phases of max-over-nodes(phase seconds)
///                    + coordinator-sequential seconds.
/// The explicitly sequential pieces of the paper's queries (the single
/// global aggregate operator of Queries 11/12, Query 3's collector) run
/// via RunSequential and add their full time — which is exactly what caps
/// their speedup in Tables 3.2/3.4.
///
/// Failure protocol: every phase end is a barrier at which scheduled
/// node-crash events fire. The coordinator detects a crash after the retry
/// policy's timeout (charged to its clock), then either restarts the node
/// with a cold pool (recoverable crash) or marks it dead, invokes the
/// cluster's node-loss handler to redecluster the lost fragments, and
/// finishes the query on the survivors. Each handling step is closed as
/// its own PhaseReport so the degraded run's extra cost is visible.
///
/// Workload mode: when the cluster carries a WorkloadSession and the
/// calling thread is a bound stream, the coordinator skips the cold-start
/// reset (pools are shared and stay warm), takes a scheduling turn before
/// every phase, charges contention for the queries admitted alongside,
/// and arms scan-sharing gates for phases that declare a share key.
class QueryCoordinator {
 public:
  explicit QueryCoordinator(Cluster* cluster);

  /// EndQuery() runs on destruction, so a query abandoned mid-phase (error
  /// or exception unwind) cannot leak its open-phase charges.
  ~QueryCoordinator() { EndQuery(); }

  /// Cold-start protocol: flush+drop buffer pools, zero all clocks. Also
  /// barrier 0 of the fault schedule (a crash "just before the query").
  /// In workload mode the pools and clocks are shared with concurrent
  /// queries, so instead of the global reset only this query's leftover
  /// open-phase usage is discarded.
  Status BeginQuery();

  /// Ends the query's accounting: any usage still sitting in an open
  /// phase (a phase that never reached ClosePhase — failed merge, thrown
  /// exception, early return) is discarded so it cannot be attributed to
  /// the next query on these clocks. Idempotent; called by the destructor.
  void EndQuery();

  /// Per-phase execution options.
  struct PhaseOptions {
    /// Non-empty marks this phase as a shareable scan of the named pages
    /// (e.g. "scan:raster"): in workload mode it may attach to an
    /// in-flight scan with the same key instead of re-paying the
    /// readahead transfers, and it registers its own modeled window for
    /// later queries to attach to. Only mark phases whose readahead on
    /// each node's pool is issued by that node's own closure (the
    /// single-writer contract of storage::ScanShareGate).
    std::string scan_share_key;
  };

  /// Runs `work(node)` for every *alive* node on the cluster's worker
  /// pool, waits at the phase barrier, then closes the phase and adds
  /// max-over-nodes phase time to the query clock. The phase is closed on
  /// every exit path — a failed node, merge, or a thrown exception cannot
  /// leak its usage into the next phase's accounting.
  ///
  /// Concurrency contract for `work`: a node's closure may touch ONLY that
  /// node's state (its clock, buffer pool, stores, fragment, and its own
  /// slot of any shared PerNode vector) plus read-only shared inputs.
  /// Anything cross-node — charging another node's clock, appending to
  /// another node's output, deep-copying data onto another node — belongs
  /// in `merge`, which runs once on the calling thread after the barrier
  /// but before the phase is closed, so its charges still count toward
  /// this phase. This keeps the threaded executor race-free AND makes the
  /// per-node charge sequences independent of the thread count, so
  /// modeled query_seconds() is bit-identical for 1 and N threads.
  Status RunPhase(const std::string& name,
                  const std::function<Status(int node)>& work,
                  const std::function<Status()>& merge = nullptr);
  Status RunPhase(const std::string& name, const PhaseOptions& opts,
                  const std::function<Status(int node)>& work,
                  const std::function<Status()>& merge = nullptr);

  /// Runs sequential (coordinator-side) work; its time adds fully.
  Status RunSequential(const std::string& name,
                       const std::function<Status()>& work);

  /// Modeled elapsed seconds of the query so far.
  double query_seconds() const { return query_seconds_; }

  struct PhaseReport {
    std::string name;
    bool sequential = false;
    double seconds = 0.0;        // contribution to query time
    double max_node_seconds = 0.0;
    double total_node_seconds = 0.0;  // summed over nodes (work volume)
    int contention = 0;               // other queries admitted (workload)
    int64_t scan_shared_windows = 0;  // readahead windows attached to an
                                      // in-flight scan instead of charged
    /// Host wall clock from the phase's start (after its workload turn)
    /// to its close, merge closure included. Never feeds a modeled field.
    double wall_seconds = 0.0;
  };
  const std::vector<PhaseReport>& phases() const { return phases_; }

  /// Per-node stats sinks for this query's PBSM joins, reset by
  /// BeginQuery. A node's join phase writes only its own slot (the
  /// RunPhase contract); read them after the query via pbsm_stats().
  exec::PbsmJoinStats* node_pbsm_stats(int node) {
    return &node_pbsm_[static_cast<size_t>(node)];
  }
  /// Aggregate of the per-node sinks (cardinalities summed, partition
  /// maxima maxed) — what a query report should show for "the" join.
  exec::PbsmJoinStats pbsm_stats() const;

  /// Declares that this query mutated `table` (e.g. StoreResult into it):
  /// in workload mode every cached result depending on it is invalidated.
  void NoteTableMutation(const std::string& table);

  Cluster* cluster() { return cluster_; }

  /// The session ticket driving this query's scheduling, or null when the
  /// coordinator runs in single-query mode.
  WorkloadSession::Ticket* ticket() { return ticket_; }

 private:
  /// Folds the open phase into query time on every RunPhase/RunSequential
  /// exit path. Sequential phases add the coordinator clock's time too.
  /// In workload mode the shared resources are scaled by the contention
  /// level sampled at the phase's scheduling turn. `wall_start` is when the
  /// phase began on the host clock.
  void ClosePhase(const std::string& name, bool sequential,
                  std::chrono::steady_clock::time_point wall_start);

  /// Drops any usage sitting in the open phase of every node clock and
  /// the coordinator clock, without folding it anywhere.
  void DiscardOpenPhase();

  /// Fires crash events scheduled for the barrier just passed: crash the
  /// node, charge the detection timeout, then restart it or mark it dead
  /// and salvage every registered table
  /// (TopologyManager::MigrateAllForLoss).
  Status HandleBarrierFaults();

  Cluster* const cluster_;
  double query_seconds_ = 0.0;
  int barriers_passed_ = 0;
  uint64_t pinned_epoch_ = 0;  // topology epoch this query admitted under
  bool epoch_pinned_ = false;
  std::vector<PhaseReport> phases_;
  std::vector<exec::PbsmJoinStats> node_pbsm_;
  bool ended_ = false;

  // Workload mode (both null in single-query mode).
  WorkloadSession* session_ = nullptr;
  WorkloadSession::Ticket* ticket_ = nullptr;
  int phase_contention_ = 0;          // K sampled at the last phase turn
  int64_t phase_shared_windows_ = 0;  // gate attaches in the open phase
};

}  // namespace paradise::core

#endif  // PARADISE_CORE_COORDINATOR_H_
