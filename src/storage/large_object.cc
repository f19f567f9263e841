#include "storage/large_object.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace paradise::storage {

StatusOr<LobId> LargeObjectStore::Write(const uint8_t* data, size_t size) {
  uint32_t pages =
      std::max<uint32_t>(1, static_cast<uint32_t>(
                                (size + kBytesPerPage - 1) / kBytesPerPage));
  PageNo first = volume_->AllocateRun(pages);
  size_t written = 0;
  for (uint32_t i = 0; i < pages; ++i) {
    PARADISE_ASSIGN_OR_RETURN(
        PageGuard guard,
        pool_->Pin(PageId{volume_->volume_id(), first + i}));
    size_t n = std::min(kBytesPerPage, size - written);
    std::memcpy(guard.page()->payload(), data + written, n);
    written += n;
    guard.MarkDirty();
  }
  return LobId{volume_->volume_id(), first, pages, static_cast<uint32_t>(size)};
}

StatusOr<ByteBuffer> LargeObjectStore::Read(const LobId& id) const {
  return ReadRange(id, 0, id.length);
}

StatusOr<ByteBuffer> LargeObjectStore::ReadRange(const LobId& id,
                                                 size_t offset,
                                                 size_t length) const {
  if (offset + length > id.length) {
    return Status::OutOfRange("LOB range read past end");
  }
  ByteBuffer out(length);
  if (length == 0) return out;
  uint32_t first_index = static_cast<uint32_t>(offset / kBytesPerPage);
  uint32_t last_index =
      static_cast<uint32_t>((offset + length - 1) / kBytesPerPage);
  size_t read = 0;
  // Pin the covered pages in batched windows: each window is one
  // positioning cost plus sequential transfers on a cold read. The window
  // is clamped against the pool so tiny pools never see more pins at once
  // than they can hold.
  uint32_t window_pages = std::min<uint32_t>(
      kPinWindowPages,
      std::max<uint32_t>(1, static_cast<uint32_t>(pool_->capacity() / 4)));
  for (uint32_t window = first_index; window <= last_index;
       window += window_pages) {
    uint32_t count =
        std::min<uint32_t>(window_pages, last_index - window + 1);
    PARADISE_ASSIGN_OR_RETURN(
        std::vector<PageGuard> guards,
        pool_->PinRange(PageId{id.volume, id.first_page + window}, count));
    for (uint32_t k = 0; k < count; ++k) {
      size_t page_start = static_cast<size_t>(window + k) * kBytesPerPage;
      size_t in_page = offset + read > page_start ? offset + read - page_start
                                                  : 0;
      size_t n = std::min(kBytesPerPage - in_page, length - read);
      std::memcpy(out.data() + read, guards[k].page()->payload() + in_page, n);
      read += n;
    }
  }
  PARADISE_CHECK(read == length);
  return out;
}

}  // namespace paradise::storage
