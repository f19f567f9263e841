#ifndef PARADISE_STORAGE_LARGE_OBJECT_H_
#define PARADISE_STORAGE_LARGE_OBJECT_H_

#include <cstdint>
#include <mutex>

#include "common/bytes.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

namespace paradise::storage {

/// Handle to a large object: a run of physically consecutive pages on one
/// volume. Tiles of chunked arrays are stored this way (Section 2.5.1), so
/// reading a whole tile is one seek plus sequential transfer.
struct LobId {
  uint32_t volume = 0;
  PageNo first_page = kInvalidPageNo;
  uint32_t num_pages = 0;
  uint32_t length = 0;  // payload bytes

  bool valid() const { return first_page != kInvalidPageNo; }
  friend bool operator==(const LobId&, const LobId&) = default;
};

/// Stores byte blobs larger than a record across dedicated page runs.
/// SHORE's "objects can be arbitrarily large" facility. An object is never
/// freed: its pages stay allocated for the volume's lifetime.
class LargeObjectStore {
 public:
  LargeObjectStore(BufferPool* pool, DiskVolume* volume)
      : pool_(pool), volume_(volume) {}

  LargeObjectStore(const LargeObjectStore&) = delete;
  LargeObjectStore& operator=(const LargeObjectStore&) = delete;

  StatusOr<LobId> Write(const uint8_t* data, size_t size);
  StatusOr<LobId> Write(const ByteBuffer& data) {
    return Write(data.data(), data.size());
  }

  StatusOr<ByteBuffer> Read(const LobId& id) const;

  /// Reads only `[offset, offset+length)`, touching only the pages that
  /// range covers — the "fetch only the needed subarray" behaviour. Pages
  /// are pinned in batched windows (BufferPool::PinRange), so a cold read
  /// of a run costs one positioning charge plus sequential transfers.
  StatusOr<ByteBuffer> ReadRange(const LobId& id, size_t offset,
                                 size_t length) const;

  /// Advisory readahead of the object's whole page run into the pool.
  void Prefetch(const LobId& id) const {
    pool_->Prefetch(PageId{id.volume, id.first_page}, id.num_pages);
  }

  size_t pool_capacity() const { return pool_->capacity(); }

 private:
  static constexpr size_t kBytesPerPage = Page::kPayloadSize;
  /// Pages pinned at once by ReadRange; bounds pin pressure on small pools
  /// while still batching two shard-run groups per window.
  static constexpr uint32_t kPinWindowPages = 32;

  BufferPool* const pool_;
  DiskVolume* const volume_;
};

}  // namespace paradise::storage

#endif  // PARADISE_STORAGE_LARGE_OBJECT_H_
