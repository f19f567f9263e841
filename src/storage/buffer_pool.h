#ifndef PARADISE_STORAGE_BUFFER_POOL_H_
#define PARADISE_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sim/fault_injector.h"
#include "storage/disk_volume.h"
#include "storage/page.h"

namespace paradise::storage {

class BufferPool;

namespace internal {

/// One buffer frame. Owned by a shard; the pointer is stable for the
/// frame's lifetime (frames are heap-allocated), so PageGuard can hold it
/// across shard-table rehashes.
struct Frame {
  PageId id;
  Page page;
  int pin_count = 0;
  bool dirty = false;
  bool in_use = false;
  bool hot = false;         // segment flag: promoted on re-reference
  bool referenced = false;  // false until the first Pin (readahead lands
                            // unreferenced so first use does not promote)
  uint32_t shard = 0;       // owning shard index
  std::list<Frame*>::iterator lru_it;  // position in cold/hot list
  bool in_lru = false;
};

}  // namespace internal

/// RAII pin on a buffered page. Unpins on destruction; call MarkDirty()
/// after modifying the frame.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, internal::Frame* frame, Page* page, PageId id)
      : pool_(pool), frame_(frame), page_(page), id_(id) {}

  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  bool valid() const { return page_ != nullptr; }
  Page* page() { return page_; }
  const Page* page() const { return page_; }
  PageId id() const { return id_; }
  void MarkDirty();
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  internal::Frame* frame_ = nullptr;
  Page* page_ = nullptr;
  PageId id_;
};

/// Scan-sharing gate, armed on a node's pool for the duration of one scan
/// phase. While armed, a deterministic fraction (`free_eighths`/8) of the
/// readahead windows Prefetch issues are *attached* to another query's
/// in-flight scan of the same pages: the pages are still read from the
/// volume (faults fire, bytes land), but the disk transfer is not charged
/// — that query already paid for it. Selection is by window ordinal, not
/// by thread schedule, so which windows ride free is bit-identical at any
/// thread count.
///
/// Single-writer contract: arm a gate only for phases whose readahead on
/// this pool is issued by one thread (a node's own scan closure). The
/// counters are unsynchronized by design — that is what keeps the ordinal
/// sequence deterministic.
struct ScanShareGate {
  int free_eighths = 0;          // windows riding free, in eighths
  int64_t ordinal = 0;           // windows issued while armed
  int64_t attached_windows = 0;  // windows that rode free
  int64_t attached_pages = 0;    // pages those windows carried
};

/// Buffer pool over a set of volumes, one per node (Paradise used a 32 MB
/// pool per node; the pool size here is in frames). The pool is the
/// volatile layer: a simulated crash is DiscardAll() without FlushAll().
///
/// The pool is sharded: page ids hash to shards, each with its own mutex,
/// hash table and eviction state, so concurrent executor threads (and
/// remote pulls landing on this node) do not serialize on one lock.
/// Consecutive page numbers within a kRunPages-aligned group map to the
/// same shard, so a readahead window is served under a single shard lock.
///
/// Eviction is scan-resistant: a two-segment LRU with midpoint insertion
/// (à la InnoDB). A page's first touch lands in the cold segment; only a
/// re-reference promotes it to hot. Victims come from the cold segment
/// first, so a one-pass table scan can evict at most the cold segment and
/// never flushes hot index or mapping pages.
class BufferPool {
 public:
  /// Consecutive pages within an aligned group of this size share a shard;
  /// this is also the natural readahead window (16 pages = 128 KB).
  static constexpr uint32_t kRunPages = 16;

  /// Hot segment target, in eighths of a shard's capacity (5/8 hot, 3/8
  /// cold — InnoDB's default midpoint).
  static constexpr size_t kHotEighths = 5;

  /// Every shard keeps at least this many frames, so pools under 128
  /// frames have one shard with exact single-LRU semantics.
  static constexpr size_t kMinFramesPerShard = 64;
  /// Upper bound on the shard count.
  static constexpr size_t kMaxShards = 8;

  /// The shard count is the largest power of two <= min(kMaxShards,
  /// capacity_frames / kMinFramesPerShard), and at least 1. It depends on
  /// the pool size alone, so which pages a pool keeps never depends on
  /// the host.
  explicit BufferPool(size_t capacity_frames);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  void AttachVolume(DiskVolume* volume);

  /// Pins the page, reading it from its volume on a miss. Every fetched
  /// page's checksum is verified; a mismatch is retried (torn transfer)
  /// under sim::RetryPolicy, each retry charging exponential backoff to
  /// the volume's clock as modeled idle time, and, if it persists,
  /// surfaces as kCorruption rather than a silent wrong answer.
  StatusOr<PageGuard> Pin(PageId id);

  /// Allocates a fresh page on `volume` and pins it (no disk read).
  StatusOr<PageGuard> NewPage(uint32_t volume);

  /// Advisory readahead: loads `[first, first+count)` into the pool
  /// without pinning. Pages already resident are skipped; the misses are
  /// grouped into maximal consecutive runs and fetched from the volume in
  /// one ReadRun each — charged as one positioning cost plus N sequential
  /// transfers. Loaded pages land unpinned in the cold segment, so
  /// readahead can never push hot pages out. Failures are retried under
  /// sim::RetryPolicy and then dropped (the later Pin surfaces the error);
  /// fault ordinals stay per-page, consulted in page order.
  void Prefetch(PageId first, uint32_t count);

  /// Pins the consecutive range `[first, first+count)`, using Prefetch to
  /// batch the misses. Guards are returned in page order.
  StatusOr<std::vector<PageGuard>> PinRange(PageId first, uint32_t count);

  /// Arms (or, with nullptr, disarms) a scan-sharing gate consulted by
  /// Prefetch. See ScanShareGate for the protocol and the single-writer
  /// contract. The caller keeps ownership and must disarm before the gate
  /// goes out of scope.
  void ArmScanShareGate(ScanShareGate* gate) { scan_gate_ = gate; }

  /// Writes every dirty frame back, grouped per volume into maximal runs
  /// of consecutive page numbers: one WriteRun (one positioning cost plus
  /// sequential transfers) per run instead of one random write per page.
  /// All shards are locked for the duration so the dirty set is a single
  /// consistent snapshot and runs may span shard boundaries.
  Status FlushAll();

  /// Simulated crash: every unflushed frame is lost.
  void DiscardAll();

  struct Stats {
    int64_t hits = 0;    // includes pins served from readahead
    int64_t misses = 0;  // demand fetches only (readahead loads excluded)
    int64_t evictions = 0;
    int64_t dirty_writebacks = 0;
    int64_t read_retries = 0;        // re-reads after a transient error
    int64_t checksum_failures = 0;   // fetches that failed verification
    int64_t readahead_batches = 0;   // charged ReadRun calls by Prefetch
    int64_t readahead_pages = 0;     // pages those charged runs loaded
    int64_t scan_shared_windows = 0; // readahead runs attached to another
                                     // query's in-flight scan (uncharged)
    int64_t scan_shared_pages = 0;   // pages those attached runs carried
    int64_t promotions = 0;          // cold -> hot on re-reference
    int64_t writeback_runs = 0;      // WriteRun calls (flush + eviction)
    int64_t writeback_pages = 0;     // dirty pages those runs carried

    double hit_rate() const {
      int64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
    void Add(const Stats& o) {
      hits += o.hits;
      misses += o.misses;
      evictions += o.evictions;
      dirty_writebacks += o.dirty_writebacks;
      read_retries += o.read_retries;
      checksum_failures += o.checksum_failures;
      readahead_batches += o.readahead_batches;
      readahead_pages += o.readahead_pages;
      scan_shared_windows += o.scan_shared_windows;
      scan_shared_pages += o.scan_shared_pages;
      promotions += o.promotions;
      writeback_runs += o.writeback_runs;
      writeback_pages += o.writeback_pages;
    }
  };
  /// Aggregated over all shards, as one consistent snapshot: every shard
  /// mutex is held simultaneously (index order, as in FlushAll) while the
  /// counters are summed, so a snapshot taken while another query runs
  /// can never tear across shards — e.g. observe a writeback run on one
  /// shard but not the pages it carried on another.
  Stats stats() const;

  size_t capacity() const { return capacity_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  friend class PageGuard;

  struct Shard {
    mutable std::mutex mu;
    uint32_t index = 0;
    size_t capacity = 0;
    std::vector<std::unique_ptr<internal::Frame>> frames;
    std::vector<internal::Frame*> free_frames;
    std::unordered_map<PageId, internal::Frame*, PageIdHash> table;
    // Two-segment LRU; front = next eviction candidate. Lists hold only
    // unpinned in-use frames.
    std::list<internal::Frame*> cold;
    std::list<internal::Frame*> hot;
    Stats stats;
  };

  Shard& shard_for(PageId id) {
    PageId group{id.volume, id.page_no / kRunPages};
    return *shards_[PageIdHash()(group) & shard_mask_];
  }

  void Unpin(internal::Frame* frame);
  void MarkDirtyFrame(internal::Frame* frame);

  /// Copies the volume pointer under config_mu_. Returns null if the
  /// volume is unknown.
  DiskVolume* LookupVolume(uint32_t volume) const;

  /// Writes the dirty frames in `frames` (all on `volume`, caller holds
  /// their shards' mutexes) as maximal consecutive WriteRuns and clears
  /// their dirty flags. Run stats land on the shard of each run's first
  /// frame. Sorts `frames` by page number in place.
  Status WriteClusteredLocked(DiskVolume* volume,
                              std::vector<internal::Frame*>& frames);

  // All of the below require the shard's mutex.
  StatusOr<internal::Frame*> FindVictimLocked(Shard& s);
  Status EvictLocked(Shard& s, internal::Frame* f);
  void RemoveFromListLocked(Shard& s, internal::Frame* f);
  /// Pushes an unpinned frame onto its segment's MRU end and rebalances
  /// the hot segment toward its kHotEighths/8 target.
  void PushUnpinnedLocked(Shard& s, internal::Frame* f);
  /// Verified read with bounded retries. `first_attempt` > 0 resumes the
  /// retry budget after an attempt already made elsewhere (the readahead
  /// batch); `last` carries that attempt's failure.
  Status ReadPageVerifiedLocked(Shard& s, DiskVolume* volume,
                                PageNo page_no, Page* out, int first_attempt,
                                Status last);
  /// One readahead window, entirely within shard `s` (the caller aligns
  /// windows to kRunPages groups). Takes the shard mutex itself.
  void PrefetchWindow(Shard& s, DiskVolume* volume, PageId first,
                      uint32_t count);

  const size_t capacity_;
  size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Scan-sharing gate, or null when disarmed. Written only between phase
  // barriers (no Prefetch in flight); readers are the phase's own scan
  // thread, ordered by the thread pool's batch handoff.
  ScanShareGate* scan_gate_ = nullptr;

  // Guards volume registration; always taken either standalone or nested
  // inside a shard mutex, never the other way.
  mutable std::mutex config_mu_;
  std::unordered_map<uint32_t, DiskVolume*> volumes_;
};

}  // namespace paradise::storage

#endif  // PARADISE_STORAGE_BUFFER_POOL_H_
