#include "core/cluster.h"

#include "common/logging.h"
#include "core/topology.h"

namespace paradise::core {

namespace {
// Volume-id layout per node: data volumes first, then the LOB volume and
// the temp volume. Volume ids are node-local.
constexpr uint32_t kLobVolumeOffset = 100;
constexpr uint32_t kTempVolumeOffset = 101;
}  // namespace

Node::Node(uint32_t id, size_t buffer_pool_frames)
    : id_(id),
      pool_(std::make_unique<storage::BufferPool>(buffer_pool_frames)) {
  for (int i = 0; i < kDataVolumes; ++i) {
    volumes_.push_back(std::make_unique<storage::DiskVolume>(
        static_cast<uint32_t>(i), &clock_));
  }
  auto lob_volume =
      std::make_unique<storage::DiskVolume>(kLobVolumeOffset, &clock_);
  auto temp_volume =
      std::make_unique<storage::DiskVolume>(kTempVolumeOffset, &clock_);
  for (auto& v : volumes_) pool_->AttachVolume(v.get());
  pool_->AttachVolume(lob_volume.get());
  pool_->AttachVolume(temp_volume.get());
  lob_store_ = std::make_unique<storage::LargeObjectStore>(pool_.get(),
                                                           lob_volume.get());
  temp_store_ = std::make_unique<storage::LargeObjectStore>(pool_.get(),
                                                            temp_volume.get());
  volumes_.push_back(std::move(lob_volume));
  volumes_.push_back(std::move(temp_volume));
  local_source_ =
      std::make_unique<array::LocalTileSource>(lob_store_.get(), &clock_);
}

void Node::SetFaultInjector(sim::FaultInjector* injector) {
  for (auto& v : volumes_) v->SetFaultInjector(injector, id_);
}

Cluster::Cluster(int num_nodes) : Cluster(num_nodes, Options{}) {}

Cluster::Cluster(int num_nodes, Options options) : options_(options) {
  PARADISE_CHECK(num_nodes > 0);
  for (int i = 0; i < num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(static_cast<uint32_t>(i),
                                            options.buffer_pool_frames));
  }
  alive_.assign(nodes_.size(), true);
  topology_ = std::make_unique<TopologyManager>(this);
}

Cluster::~Cluster() = default;

int Cluster::AddNode() {
  int id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(static_cast<uint32_t>(id),
                                          options_.buffer_pool_frames));
  alive_.push_back(true);
  if (fault_injector_ != nullptr) {
    nodes_.back()->SetFaultInjector(fault_injector_);
  }
  return id;
}

int64_t Cluster::BatchMessages(int64_t bytes) { return (bytes + 8191) / 8192; }

void Cluster::ChargeTransfer(uint32_t from, uint32_t to, int64_t bytes) {
  if (from == to || bytes <= 0) return;  // shared-memory transport
  int64_t messages = BatchMessages(bytes);
  nodes_[from]->clock()->ChargeNet(messages, bytes);
  nodes_[to]->clock()->ChargeNet(messages, bytes);
  if (fault_injector_ == nullptr) return;
  int64_t ordinal;
  {
    std::lock_guard<std::mutex> g(transfer_mu_);
    ordinal =
        transfer_ordinals_[(static_cast<uint64_t>(from) << 32) | to]++;
  }
  sim::TransferFault fault = fault_injector_->OnTransfer(from, to, ordinal);
  for (int i = 0; i < fault.dropped; ++i) {
    // Lost batch: the sender waits out the ack timeout, then both links
    // carry the retransmission.
    nodes_[from]->clock()->ChargeIdle(fault_injector_->drop_timeout_seconds());
    nodes_[from]->clock()->ChargeNet(messages, bytes);
    nodes_[to]->clock()->ChargeNet(messages, bytes);
  }
  if (fault.duplicated) {
    // Spurious duplicate: the receiver pays to receive and discard it.
    nodes_[to]->clock()->ChargeNet(messages, bytes);
    nodes_[to]->clock()->ChargeCpu(sim::cpu_cost::kTupleOverhead);
  }
}

void Cluster::ChargeToCoordinator(int from, int64_t bytes) {
  if (bytes <= 0) return;
  int64_t messages = BatchMessages(bytes);
  nodes_[from]->clock()->ChargeNet(messages, bytes);
  coordinator_clock_.ChargeNet(messages, bytes);
}

void Cluster::SetFaultInjector(sim::FaultInjector* injector) {
  fault_injector_ = injector;
  for (auto& n : nodes_) n->SetFaultInjector(injector);
  std::lock_guard<std::mutex> g(transfer_mu_);
  transfer_ordinals_.clear();
}

int Cluster::num_alive() const {
  int count = 0;
  for (bool a : alive_) count += a ? 1 : 0;
  return count;
}

std::vector<int> Cluster::alive_node_ids() const {
  std::vector<int> ids;
  ids.reserve(alive_.size());
  for (size_t i = 0; i < alive_.size(); ++i) {
    if (alive_[i]) ids.push_back(static_cast<int>(i));
  }
  return ids;
}

void Cluster::CrashNode(int i) {
  nodes_[static_cast<size_t>(i)]->pool()->DiscardAll();
}

void Cluster::MarkNodeDead(int i) {
  PARADISE_CHECK_MSG(num_alive() > 1, "cannot lose the last node");
  alive_[static_cast<size_t>(i)] = false;
}

void Cluster::MarkNodeAlive(int i) {
  alive_[static_cast<size_t>(i)] = true;
}

void Cluster::ResetForQuery() {
  for (auto& n : nodes_) {
    PARADISE_CHECK(n->pool()->FlushAll().ok());
    n->pool()->DiscardAll();  // cold buffer pool, as in Section 3.2
    n->clock()->Reset();
  }
  coordinator_clock_.Reset();
}

common::ThreadPool* Cluster::thread_pool() {
  if (thread_pool_ == nullptr) {
    thread_pool_ = std::make_unique<common::ThreadPool>(
        common::ThreadPool::DefaultNumThreads());
  }
  return thread_pool_.get();
}

void Cluster::SetNumThreads(int n) {
  thread_pool_ = std::make_unique<common::ThreadPool>(n);
}

std::vector<sim::ResourceUsage> Cluster::EndPhaseAllNodes() {
  std::vector<sim::ResourceUsage> usages;
  usages.reserve(nodes_.size());
  for (auto& n : nodes_) usages.push_back(n->clock()->EndPhase());
  return usages;
}

}  // namespace paradise::core
