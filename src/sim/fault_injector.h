#ifndef PARADISE_SIM_FAULT_INJECTOR_H_
#define PARADISE_SIM_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

namespace paradise::sim {

/// Bounded-retry policy for transient faults, the same everywhere. Backoff
/// and timeouts are *modeled* time charged to the virtual clocks
/// (NodeClock::ChargeIdle), never host sleeps, so a faulted run's
/// query_seconds() is bit-identical across executor thread counts.
struct RetryPolicy {
  static constexpr int kMaxAttempts = 4;  // total tries, including the first
  static constexpr double kInitialBackoffSeconds = 0.002;  // before retry 0
  static constexpr double kBackoffMultiplier = 2.0;  // growth per retry
  static constexpr double kDetectTimeoutSeconds = 0.25;  // missed heartbeat

  /// Modeled wait before retry number `retry` (0-based).
  static double BackoffSeconds(int retry) {
    double b = kInitialBackoffSeconds;
    for (int i = 0; i < retry; ++i) b *= kBackoffMultiplier;
    return b;
  }
};

/// What an injected disk-read fault does.
enum class DiskFaultKind : uint8_t {
  kNone = 0,
  kTransientError,  // read fails with kUnavailable; a retry succeeds
  kTornRead,        // read "succeeds" but returns corrupted page bytes
};

/// Outcome of the transfer-fault hook for one network batch.
struct TransferFault {
  int dropped = 0;         // times the batch was lost and retransmitted
  bool duplicated = false; // receiver got a spurious second copy
};

/// A node-crash event, fired at a phase barrier by the coordinator.
struct CrashEvent {
  uint32_t node = 0;
  bool permanent = false;  // false: restart the node; true: mark dead
};

/// A crash fired mid-tile-migration by the TopologyManager: either side
/// of the transfer dies after the tile's runs landed but before cutover.
struct MigrationCrashEvent {
  bool target_side = false;  // false: the migration source crashes
  bool permanent = false;    // false: restart the node; true: mark dead
};

/// Seeded, deterministic fault source for the simulated cluster.
///
/// Determinism contract: probabilistic decisions are pure hashes of
/// (seed, fault kind, stable keys) where the keys are maintained under the
/// same locks that already serialize the faulted resource (a volume's
/// per-page read ordinal, a link pair's batch ordinal). The *multiset* of
/// decisions in a phase is therefore independent of thread schedule, and
/// because every fault's cost is charged to per-node virtual clocks, the
/// modeled time it induces is bit-identical for any executor thread count.
///
/// Configure (rates, schedules) before wiring into a Cluster; the hook
/// methods are then safe to call concurrently.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // -- Configuration (call before the run) --------------------------------

  void set_transient_read_rate(double p) { transient_read_rate_ = p; }
  void set_torn_read_rate(double p) { torn_read_rate_ = p; }
  void set_transfer_drop_rate(double p) { transfer_drop_rate_ = p; }
  void set_transfer_duplicate_rate(double p) { transfer_duplicate_rate_ = p; }
  /// Modeled sender wait before retransmitting a dropped batch, the same
  /// for every injector.
  static constexpr double drop_timeout_seconds() { return 0.02; }

  /// Schedules a fault on the `ordinal`-th read (0-based) of page `page`
  /// of volume `volume` on node `node`.
  void InjectDiskFault(uint32_t node, uint32_t volume, uint32_t page,
                       int64_t ordinal, DiskFaultKind kind) {
    scheduled_disk_[DiskKey{node, volume, page, ordinal}] = kind;
  }

  /// Schedules a node crash to fire at phase barrier `barrier` (0 = query
  /// start, k = after the k-th phase of the query).
  void ScheduleCrash(int barrier, uint32_t node, bool permanent) {
    scheduled_crashes_.emplace(barrier, CrashEvent{node, permanent});
  }

  /// Schedules a crash during the `ordinal`-th executed tile/stripe
  /// migration (0-based, global across streams — the TopologyManager
  /// maintains the counter single-threaded under migration pumping).
  void ScheduleMigrationCrash(int64_t ordinal, bool target_side,
                              bool permanent) {
    scheduled_migration_[ordinal] =
        MigrationCrashEvent{target_side, permanent};
  }

  /// Probabilistic chaos mode: each executed migration move crashes with
  /// probability `p` (side and permanence drawn from independent hash
  /// bits of the move ordinal). Used by the nightly churn/chaos harness.
  void set_migration_crash_rate(double p) { migration_crash_rate_ = p; }

  // -- Hooks (called by the wired components) -----------------------------

  /// Decides the fate of one disk read. `ordinal` is the per-page read
  /// count maintained by the volume under its own mutex.
  DiskFaultKind OnDiskRead(uint32_t node, uint32_t volume, uint32_t page,
                           int64_t ordinal) {
    if (!scheduled_disk_.empty()) {
      auto it = scheduled_disk_.find(DiskKey{node, volume, page, ordinal});
      if (it != scheduled_disk_.end() && it->second != DiskFaultKind::kNone) {
        Count(it->second);
        return it->second;
      }
    }
    if (transient_read_rate_ > 0.0 &&
        UnitUniform(0x7261'6e64, node, volume, page, ordinal) <
            transient_read_rate_) {
      Count(DiskFaultKind::kTransientError);
      return DiskFaultKind::kTransientError;
    }
    if (torn_read_rate_ > 0.0 &&
        UnitUniform(0x746f'726e, node, volume, page, ordinal) <
            torn_read_rate_) {
      Count(DiskFaultKind::kTornRead);
      return DiskFaultKind::kTornRead;
    }
    return DiskFaultKind::kNone;
  }

  /// Decides the fate of one network batch on the (from, to) link.
  /// `ordinal` is the per-link batch count maintained by the cluster.
  TransferFault OnTransfer(uint32_t from, uint32_t to, int64_t ordinal) {
    TransferFault f;
    if (transfer_drop_rate_ > 0.0 &&
        UnitUniform(0x6472'6f70, from, to, 0, ordinal) < transfer_drop_rate_) {
      f.dropped = 1;
      dropped_batches_.fetch_add(1, std::memory_order_relaxed);
    }
    if (transfer_duplicate_rate_ > 0.0 &&
        UnitUniform(0x6475'7065, from, to, 0, ordinal) <
            transfer_duplicate_rate_) {
      f.duplicated = true;
      duplicated_batches_.fetch_add(1, std::memory_order_relaxed);
    }
    return f;
  }

  /// Consumes a crash scheduled (or chaos-drawn) for the `ordinal`-th
  /// migration move. Called single-threaded by the TopologyManager.
  std::optional<MigrationCrashEvent> TakeMigrationCrash(int64_t ordinal) {
    auto it = scheduled_migration_.find(ordinal);
    if (it != scheduled_migration_.end()) {
      MigrationCrashEvent ev = it->second;
      scheduled_migration_.erase(it);
      migration_crashes_.fetch_add(1, std::memory_order_relaxed);
      return ev;
    }
    if (migration_crash_rate_ > 0.0 &&
        UnitUniform(0x6d69'6772, 0, 0, 0, ordinal) < migration_crash_rate_) {
      MigrationCrashEvent ev;
      ev.target_side = UnitUniform(0x6d69'6772, 1, 0, 0, ordinal) < 0.5;
      ev.permanent = UnitUniform(0x6d69'6772, 2, 0, 0, ordinal) < 0.5;
      migration_crashes_.fetch_add(1, std::memory_order_relaxed);
      return ev;
    }
    return std::nullopt;
  }

  /// Consumes (at most one per call) a crash scheduled for `barrier`.
  /// Called single-threaded by the coordinator at phase barriers.
  std::optional<CrashEvent> TakeCrashAtBarrier(int barrier) {
    auto it = scheduled_crashes_.find(barrier);
    if (it == scheduled_crashes_.end()) return std::nullopt;
    CrashEvent ev = it->second;
    scheduled_crashes_.erase(it);
    crashes_.fetch_add(1, std::memory_order_relaxed);
    return ev;
  }

  // -- Observability ------------------------------------------------------

  struct Stats {
    int64_t transient_read_faults = 0;
    int64_t torn_read_faults = 0;
    int64_t dropped_batches = 0;
    int64_t duplicated_batches = 0;
    int64_t crashes = 0;
    int64_t migration_crashes = 0;
  };
  Stats stats() const {
    Stats s;
    s.transient_read_faults =
        transient_read_faults_.load(std::memory_order_relaxed);
    s.torn_read_faults = torn_read_faults_.load(std::memory_order_relaxed);
    s.dropped_batches = dropped_batches_.load(std::memory_order_relaxed);
    s.duplicated_batches = duplicated_batches_.load(std::memory_order_relaxed);
    s.crashes = crashes_.load(std::memory_order_relaxed);
    s.migration_crashes =
        migration_crashes_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct DiskKey {
    uint32_t node, volume, page;
    int64_t ordinal;
    friend auto operator<=>(const DiskKey&, const DiskKey&) = default;
  };

  void Count(DiskFaultKind kind) {
    if (kind == DiskFaultKind::kTransientError) {
      transient_read_faults_.fetch_add(1, std::memory_order_relaxed);
    } else if (kind == DiskFaultKind::kTornRead) {
      torn_read_faults_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // splitmix64 finalizer: the avalanche stage used to derive independent
  // streams from the seed and the decision keys.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Deterministic uniform draw in [0, 1) keyed by (seed, salt, a, b, c, d).
  double UnitUniform(uint64_t salt, uint64_t a, uint64_t b, uint64_t c,
                     uint64_t d) const {
    uint64_t h = Mix(seed_ ^ Mix(salt));
    h = Mix(h ^ Mix(a));
    h = Mix(h ^ Mix(b));
    h = Mix(h ^ Mix(c));
    h = Mix(h ^ Mix(d));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  const uint64_t seed_;
  double transient_read_rate_ = 0.0;
  double torn_read_rate_ = 0.0;
  double transfer_drop_rate_ = 0.0;
  double transfer_duplicate_rate_ = 0.0;
  double migration_crash_rate_ = 0.0;

  std::map<DiskKey, DiskFaultKind> scheduled_disk_;
  std::multimap<int, CrashEvent> scheduled_crashes_;
  std::map<int64_t, MigrationCrashEvent> scheduled_migration_;

  std::atomic<int64_t> transient_read_faults_{0};
  std::atomic<int64_t> torn_read_faults_{0};
  std::atomic<int64_t> dropped_batches_{0};
  std::atomic<int64_t> duplicated_batches_{0};
  std::atomic<int64_t> crashes_{0};
  std::atomic<int64_t> migration_crashes_{0};
};

}  // namespace paradise::sim

#endif  // PARADISE_SIM_FAULT_INJECTOR_H_
