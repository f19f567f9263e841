#ifndef PARADISE_STORAGE_DISK_VOLUME_H_
#define PARADISE_STORAGE_DISK_VOLUME_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sim/fault_injector.h"
#include "sim/node_clock.h"
#include "storage/page.h"

namespace paradise::storage {

/// A simulated raw disk: an in-memory array of pages standing in for one of
/// the node's SCSI drives. Every physical read/write charges the owning
/// node's clock; consecutive page numbers are charged as sequential
/// transfer (no seek), anything else pays a positioning cost. The memory
/// behind a volume is the *durable* medium for recovery tests — the buffer
/// pool above it is the volatile part.
class DiskVolume {
 public:
  /// `clock` may be null (cost-free volume, used by unit tests).
  DiskVolume(uint32_t volume_id, sim::NodeClock* clock)
      : volume_id_(volume_id), clock_(clock) {}

  DiskVolume(const DiskVolume&) = delete;
  DiskVolume& operator=(const DiskVolume&) = delete;

  uint32_t volume_id() const { return volume_id_; }

  /// Allocates one page at the end of the volume. A volume only grows:
  /// no page is ever freed or reused.
  PageNo AllocatePage();

  /// Allocates `count` physically consecutive pages and returns the first.
  PageNo AllocateRun(uint32_t count);

  /// The only read path: reads `count` consecutive pages starting at
  /// `first` into `outs[0..count)` (a demand read is a run of one).
  /// Charged atomically as one positioning cost (zero if the run continues
  /// the previous access) plus `count` sequential transfers — the
  /// readahead path's whole point. Fault injection is consulted once per
  /// page in page order with the page's own read ordinal, so a batch fetch
  /// makes exactly the fault decisions the same pages would see read one
  /// at a time. Per-page outcomes land in `statuses[0..count)`: with a
  /// fault injector wired, a page may fail with kUnavailable (transient
  /// error — charged, retryable) or come back torn (corruption confined to
  /// its `outs` copy; the durable medium is intact, so a retry after
  /// checksum detection succeeds). Returns non-OK only for a bad range.
  ///
  /// `charge == false` suppresses the clock charges only — the run rides a
  /// transfer another query already paid for (scan sharing). Fault
  /// ordinals and the head-position continuity (`last_accessed_`) advance
  /// exactly as for a charged read, so sharing never changes which faults
  /// fire or how the next access is charged.
  Status ReadRun(PageNo first, uint32_t count, Page* const* outs,
                 Status* statuses, bool charge = true);

  /// The only write path: writes `count` consecutive pages starting at
  /// `first` from `pages[0..count)`, stamping each durable copy's
  /// checksum. Mirrors ReadRun's charging: one positioning cost (zero if
  /// the run continues the previous access) plus `count` sequential
  /// transfers — what the writeback batcher buys over `count` one-page
  /// runs. Writes have no fault-injection hook, so batching changes no
  /// fault ordinals. Returns non-OK only for a bad range.
  Status WriteRun(PageNo first, uint32_t count, const Page* const* pages);

  /// Number of pages ever allocated (all of them still in use).
  uint32_t num_pages() const;

  sim::NodeClock* clock() const { return clock_; }

  /// Wires a fault injector; `node_id` keys this volume's fault decisions.
  /// Pass nullptr to unwire.
  void SetFaultInjector(sim::FaultInjector* injector, uint32_t node_id);

 private:
  /// Copies the durable page into `out`, applying any injected fault for
  /// this page's next read ordinal. Requires mu_ held; does not charge.
  Status ReadPageLocked(PageNo page_no, Page* out);

  const uint32_t volume_id_;
  sim::NodeClock* const clock_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Page>> pages_;
  PageNo last_accessed_ = kInvalidPageNo;

  // Fault injection state (all under mu_). The per-page read ordinal makes
  // fault decisions a pure function of access history, not thread schedule.
  sim::FaultInjector* fault_injector_ = nullptr;
  uint32_t fault_node_id_ = 0;
  std::unordered_map<PageNo, int64_t> read_ordinals_;
};

}  // namespace paradise::storage

#endif  // PARADISE_STORAGE_DISK_VOLUME_H_
