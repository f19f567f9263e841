#ifndef PARADISE_STORAGE_HEAP_FILE_H_
#define PARADISE_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

namespace paradise::storage {

/// Record identifier within a heap file: page + slot.
struct Oid {
  PageNo page = kInvalidPageNo;
  uint16_t slot = 0;

  friend bool operator==(const Oid&, const Oid&) = default;
};

/// A file of untyped records over slotted pages — SHORE's "file of objects".
/// Records are identified by a stable Oid (page, slot). Mutations are not
/// logged: a change is durable once its page is flushed. A file only
/// grows: a dropped table keeps its pages, which its volume never reuses.
///
/// Concurrency: guarded by a single mutex per file. Parallelism in Paradise
/// comes from partitioning *across* files/nodes, not from concurrent
/// writers inside one fragment.
class HeapFile {
 public:
  HeapFile(uint32_t file_id, BufferPool* pool, uint32_t volume_id);

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  uint32_t file_id() const { return file_id_; }

  /// Largest record a slotted page can hold; bigger payloads belong in the
  /// LargeObjectStore (cf. the 70%-of-a-page rule, Section 2.5.1).
  static size_t MaxRecordSize();

  StatusOr<Oid> Insert(const ByteBuffer& record);
  StatusOr<ByteBuffer> Get(const Oid& oid) const;
  Status Delete(const Oid& oid);
  Status Update(const Oid& oid, const ByteBuffer& record);

  /// Sequential scan. Visits records in (page, slot) order. The iterator
  /// keeps the current page pinned between Next() calls (one pool pin per
  /// page instead of one per record) and issues batched readahead for the
  /// upcoming window of pages, so a scan is charged one positioning cost
  /// plus sequential transfers per consecutive run. Move-only.
  class Iterator {
   public:
    explicit Iterator(const HeapFile* file) : file_(file) {}
    Iterator(Iterator&&) = default;
    Iterator& operator=(Iterator&&) = default;
    /// Returns false at end of file or when a page cannot be pinned (e.g.
    /// a persistent checksum mismatch); status() tells the two apart.
    /// `record` points into the pinned page, with no copy, and stays valid
    /// until the next call.
    bool Next(Oid* oid, std::span<const uint8_t>* record);
    /// OK unless the scan stopped on an error, which stays here.
    const Status& status() const { return status_; }

   private:
    /// Pages of upcoming readahead per batch; kept at the pool's shard-run
    /// granularity so each window is served under one shard lock.
    static constexpr size_t kReadaheadPages = 16;

    const HeapFile* file_;
    size_t page_index_ = 0;
    uint16_t slot_ = 0;
    PageGuard guard_;                // pin on pages_[guard_index_]
    size_t guard_index_ = SIZE_MAX;  // which page the guard covers
    size_t prefetched_until_ = 0;    // pages_[0..this) already prefetched
    Status status_;
  };
  Iterator NewIterator() const { return Iterator(this); }

  size_t num_pages() const;

 private:
  friend class Iterator;

  const uint32_t file_id_;
  BufferPool* const pool_;
  const uint32_t volume_id_;

  mutable std::mutex mu_;
  std::vector<PageNo> pages_;
};

}  // namespace paradise::storage

#endif  // PARADISE_STORAGE_HEAP_FILE_H_
