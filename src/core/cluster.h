#ifndef PARADISE_CORE_CLUSTER_H_
#define PARADISE_CORE_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "array/chunked_array.h"
#include "common/thread_pool.h"
#include "exec/exec_context.h"
#include "sim/cost_model.h"
#include "sim/fault_injector.h"
#include "sim/node_clock.h"
#include "storage/buffer_pool.h"
#include "storage/disk_volume.h"
#include "storage/large_object.h"

namespace paradise::core {

class TopologyManager;
class WorkloadSession;

/// One data server (Section 2.2): its own disks, buffer pool, large-object
/// stores, and virtual clock. Table fragments and raster tiles live here;
/// operators run "on" a node by charging its clock.
class Node {
 public:
  /// Data volumes per node: the paper's testbed had 4 data disks per node
  /// (plus a log disk). The LOB and temp volumes come on top of these.
  static constexpr int kDataVolumes = 4;

  Node(uint32_t id, size_t buffer_pool_frames);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  uint32_t id() const { return id_; }
  sim::NodeClock* clock() { return &clock_; }
  storage::BufferPool* pool() { return pool_.get(); }

  /// Permanent storage for base-table tiles/large attributes.
  storage::LargeObjectStore* lob_store() { return lob_store_.get(); }
  /// Storage for large attributes created mid-query (clipped or
  /// lowered-resolution rasters). Like every volume it only grows.
  storage::LargeObjectStore* temp_store() { return temp_store_.get(); }

  /// Data volume `i`, for 0 <= i < kDataVolumes.
  storage::DiskVolume* data_volume(int i) { return volumes_[i].get(); }

  /// Reads tiles stored on this node, charging this node's clock.
  array::LocalTileSource* local_tile_source() { return local_source_.get(); }

  /// Wires (or unwires, with nullptr) a fault injector into every volume.
  void SetFaultInjector(sim::FaultInjector* injector);

 private:
  const uint32_t id_;
  sim::NodeClock clock_;
  std::vector<std::unique_ptr<storage::DiskVolume>> volumes_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<storage::LargeObjectStore> lob_store_;
  std::unique_ptr<storage::LargeObjectStore> temp_store_;
  std::unique_ptr<array::LocalTileSource> local_source_;
};

/// The simulated shared-nothing cluster plus the coordinator's clock. The
/// paper's testbed: nodes with 4 data disks + 1 log disk each, linked by
/// switched 100 Mbit Ethernet — all folded into the CostModel.
class Cluster {
 public:
  struct Options {
    /// 32 MB buffer pool per node, as configured in Section 3.2.
    size_t buffer_pool_frames = (32 << 20) / storage::kPageSize;
  };

  explicit Cluster(int num_nodes);
  Cluster(int num_nodes, Options options);
  ~Cluster();

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Node& node(int i) { return *nodes_[i]; }
  const sim::CostModel& cost_model() const { return cost_model_; }

  sim::NodeClock* coordinator_clock() { return &coordinator_clock_; }

  /// Messages needed to ship `bytes`: tuples travel in 8 KB batches.
  static int64_t BatchMessages(int64_t bytes);

  /// Charges a tuple batch transfer of `bytes` from node `from` to node
  /// `to` (sender and receiver links both carry it; messages are charged
  /// per 8 KB batch). `from == to` is free (shared memory transport).
  /// With a fault injector wired, a batch may be dropped (sender waits out
  /// the ack timeout, both links carry the retransmission) or duplicated
  /// (receiver pays to receive and discard the extra copy).
  void ChargeTransfer(uint32_t from, uint32_t to, int64_t bytes);

  /// Charges node `from` shipping `bytes` of results to the coordinator,
  /// batched like ChargeTransfer; the sender's link and the coordinator's
  /// both carry it. No faults are injected on this path.
  void ChargeToCoordinator(int from, int64_t bytes);

  /// Wires a fault injector into every node's volumes and this cluster's
  /// transfer path. Pass nullptr to unwire. Configure the injector before
  /// wiring; ownership stays with the caller.
  void SetFaultInjector(sim::FaultInjector* injector);
  sim::FaultInjector* fault_injector() const { return fault_injector_; }

  // -- Node failure -------------------------------------------------------

  bool alive(int i) const { return alive_[static_cast<size_t>(i)]; }
  int num_alive() const;
  /// Ids of the nodes currently alive, ascending.
  std::vector<int> alive_node_ids() const;

  /// Simulated node crash: the buffer pool is lost. The volumes survive,
  /// and nothing else is volatile, so a restart rebuilds nothing: the
  /// node comes back with a cold pool.
  void CrashNode(int i);

  /// Declares a node permanently failed; RunPhase skips dead nodes.
  void MarkNodeDead(int i);

  /// Reinstates a node previously removed/marked dead (rolling-restart
  /// rejoin). The node comes back cold; whoever removed it is
  /// responsible for migrating data back onto it.
  void MarkNodeAlive(int i);

  // -- Elastic membership -------------------------------------------------

  /// Appends a new empty node (same per-node configuration as the rest
  /// of the cluster) and returns its id. Existing Node references stay
  /// valid. Callers normally go through TopologyManager::AddNode, which
  /// also extends table grids and plans rebalancing migration.
  int AddNode();

  /// The epoch-versioned membership/migration layer (always present).
  TopologyManager* topology() { return topology_.get(); }

  /// Flushes every node's buffer pool and resets all clocks — the paper's
  /// cold-buffer-pool protocol between benchmark queries.
  void ResetForQuery();

  /// Sum of all node phase clocks... see QueryCoordinator for phase logic.
  std::vector<sim::ResourceUsage> EndPhaseAllNodes();

  /// The worker pool phase fragments execute on (lazily created, sized by
  /// PARADISE_THREADS or the hardware concurrency). Modeled time comes
  /// from the virtual clocks, so the pool size changes wall-clock only.
  common::ThreadPool* thread_pool();

  /// Rebuilds the pool with exactly `n` threads (tests pin 1 thread to
  /// debug, then N to check the executor is deterministic).
  void SetNumThreads(int n);

  /// Attaches (or, with nullptr, detaches) the admission/scheduling
  /// session for a concurrent workload. While attached, QueryCoordinators
  /// constructed on bound stream threads run in workload mode. Ownership
  /// stays with the caller (the workload driver).
  void set_workload_session(WorkloadSession* session) {
    workload_session_ = session;
  }
  WorkloadSession* workload_session() const { return workload_session_; }

 private:
  sim::CostModel cost_model_;
  Options options_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> alive_;
  std::unique_ptr<TopologyManager> topology_;
  sim::NodeClock coordinator_clock_;
  std::unique_ptr<common::ThreadPool> thread_pool_;

  sim::FaultInjector* fault_injector_ = nullptr;
  WorkloadSession* workload_session_ = nullptr;
  // Per-(from, to) link batch ordinals keying transfer fault decisions.
  std::mutex transfer_mu_;
  std::unordered_map<uint64_t, int64_t> transfer_ordinals_;
};

}  // namespace paradise::core

#endif  // PARADISE_CORE_CLUSTER_H_
