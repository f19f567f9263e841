#ifndef PARADISE_STORAGE_HEAP_FILE_H_
#define PARADISE_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"

namespace paradise::storage {

class Transaction;

/// A file of untyped records over slotted pages — SHORE's "file of objects".
/// Records are identified by a stable Oid (page, slot). All mutations are
/// write-ahead logged when a LogManager is attached; pages carry LSNs so
/// recovery can decide whether a change reached disk.
///
/// Concurrency: guarded by a single mutex per file. Parallelism in Paradise
/// comes from partitioning *across* files/nodes, not from concurrent
/// writers inside one fragment.
class HeapFile {
 public:
  /// `log` may be null (unlogged file, e.g. query temporaries — matching
  /// the paper's per-operator temporary files, Section 2.5.2).
  HeapFile(uint32_t file_id, BufferPool* pool, uint32_t volume_id,
           LogManager* log);

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  uint32_t file_id() const { return file_id_; }

  /// Largest record a slotted page can hold; bigger payloads belong in the
  /// LargeObjectStore (cf. the 70%-of-a-page rule, Section 2.5.1).
  static size_t MaxRecordSize();

  StatusOr<Oid> Insert(Transaction* txn, const ByteBuffer& record);
  StatusOr<ByteBuffer> Get(const Oid& oid) const;
  Status Delete(Transaction* txn, const Oid& oid);
  Status Update(Transaction* txn, const Oid& oid, const ByteBuffer& record);

  /// Current LSN stamped on a page (recovery's redo test).
  StatusOr<Lsn> PageLsn(PageNo page_no) const;

  /// Physical reapplication used by redo/undo; bypasses logging and stamps
  /// the page with `lsn`.
  Status ApplyInsert(const Oid& oid, const ByteBuffer& record, Lsn lsn);
  Status ApplyDelete(const Oid& oid, Lsn lsn);
  Status ApplyUpdate(const Oid& oid, const ByteBuffer& record, Lsn lsn);

  /// Sequential scan. Visits records in (page, slot) order. The iterator
  /// keeps the current page pinned between Next() calls (one pool pin per
  /// page instead of one per record) and issues batched readahead for the
  /// upcoming window of pages, so a scan is charged one positioning cost
  /// plus sequential transfers per consecutive run. Move-only; destroy the
  /// iterator before Destroy()ing the file.
  class Iterator {
   public:
    explicit Iterator(const HeapFile* file) : file_(file) {}
    Iterator(Iterator&&) = default;
    Iterator& operator=(Iterator&&) = default;
    /// Returns false at end of file or when a page cannot be pinned (e.g.
    /// a persistent checksum mismatch); status() tells the two apart.
    bool Next(Oid* oid, ByteBuffer* record);
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

  int64_t num_records() const;

  /// Recomputes the record count from the pages (the in-memory counter is
  /// not crash-consistent; recovery calls this after redo/undo).
  Status RecountRecords();
  size_t num_pages() const;
  const std::vector<PageNo>& pages() const { return pages_; }

  /// Drops every page back to the volume free list (temporary tables and
  /// per-operator files are deleted this way, Section 2.5.2).
  void Destroy(DiskVolume* volume);

 private:
  friend class Iterator;

  StatusOr<Oid> FindSpaceLocked(size_t record_size);

  const uint32_t file_id_;
  BufferPool* const pool_;
  const uint32_t volume_id_;
  LogManager* const log_;

  mutable std::mutex mu_;
  std::vector<PageNo> pages_;
  int64_t num_records_ = 0;
};

}  // namespace paradise::storage

#endif  // PARADISE_STORAGE_HEAP_FILE_H_
