#ifndef PARADISE_SIM_NODE_CLOCK_H_
#define PARADISE_SIM_NODE_CLOCK_H_

#include <mutex>

#include "sim/cost_model.h"

namespace paradise::sim {

/// Per-node virtual clock. Accumulates resource usage for the current
/// pipeline phase and for the whole query/run. Thread-safe: a node's work
/// may be charged from the worker thread executing its operators and from
/// remote pull requests landing on it.
class NodeClock {
 public:
  NodeClock() = default;

  NodeClock(const NodeClock&) = delete;
  NodeClock& operator=(const NodeClock&) = delete;

  void ChargeDiskRead(int64_t bytes, int64_t seeks) {
    std::lock_guard<std::mutex> g(mu_);
    phase_.disk_bytes_read += bytes;
    phase_.disk_seeks += seeks;
  }
  void ChargeDiskWrite(int64_t bytes, int64_t seeks) {
    std::lock_guard<std::mutex> g(mu_);
    phase_.disk_bytes_written += bytes;
    phase_.disk_seeks += seeks;
  }
  void ChargeNet(int64_t messages, int64_t bytes) {
    std::lock_guard<std::mutex> g(mu_);
    phase_.net_messages += messages;
    phase_.net_bytes += bytes;
  }
  void ChargeCpu(double ops) {
    std::lock_guard<std::mutex> g(mu_);
    phase_.cpu_ops += ops;
  }
  /// Modeled wall-clock waiting with no resource consumption: retry
  /// backoff, retransmit timeouts, failure-detection timeouts.
  void ChargeIdle(double seconds) {
    std::lock_guard<std::mutex> g(mu_);
    phase_.idle_seconds += seconds;
  }
  /// Folds a task-local accumulator into this clock in one locked step.
  /// Intra-node parallel operators give each task its own NodeClock and
  /// merge the per-task usage here in task order after the barrier, so the
  /// addition order (and thus the floating-point CPU total) is a function
  /// of the task decomposition alone, never of the thread schedule.
  void ChargeUsage(const ResourceUsage& usage) {
    std::lock_guard<std::mutex> g(mu_);
    phase_.Add(usage);
  }

  /// Ends the current phase: folds phase usage into the total and returns
  /// the phase usage (the coordinator takes max-over-nodes of its seconds).
  ResourceUsage EndPhase() {
    std::lock_guard<std::mutex> g(mu_);
    ResourceUsage phase = phase_;
    total_.Add(phase_);
    phase_.Clear();
    return phase;
  }

  /// Drops whatever sits in the open phase *without* folding it into the
  /// total. This is the end-of-query unwind for a query abandoned
  /// mid-phase: its half-accumulated charges must not be attributed to the
  /// next query sharing this clock.
  void DiscardPhase() {
    std::lock_guard<std::mutex> g(mu_);
    phase_.Clear();
  }

  ResourceUsage phase_usage() const {
    std::lock_guard<std::mutex> g(mu_);
    return phase_;
  }
  ResourceUsage total_usage() const {
    std::lock_guard<std::mutex> g(mu_);
    return total_;
  }

  void Reset() {
    std::lock_guard<std::mutex> g(mu_);
    phase_.Clear();
    total_.Clear();
  }

 private:
  mutable std::mutex mu_;
  ResourceUsage phase_;
  ResourceUsage total_;
};

}  // namespace paradise::sim

#endif  // PARADISE_SIM_NODE_CLOCK_H_
