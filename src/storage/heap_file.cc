#include "storage/heap_file.h"

#include <span>
#include <string>

#include "common/logging.h"
#include "storage/slotted_page.h"

namespace paradise::storage {

namespace {

Status MalformedPage(PageNo page) {
  return Status::Corruption("malformed slot directory on page " +
                            std::to_string(page));
}

/// The live record at `oid` on its pinned page: NotFound for a free slot,
/// Corruption for a malformed page.
StatusOr<std::span<const uint8_t>> FindRecord(const SlottedPage& sp,
                                              const Oid& oid) {
  std::span<const uint8_t> record;
  switch (sp.Find(oid.slot, &record)) {
    case SlottedPage::Lookup::kLive:
      return record;
    case SlottedPage::Lookup::kFree:
      return Status::NotFound("no record at oid");
    case SlottedPage::Lookup::kMalformed:
      break;
  }
  return MalformedPage(oid.page);
}

}  // namespace

HeapFile::HeapFile(uint32_t file_id, BufferPool* pool, uint32_t volume_id)
    : file_id_(file_id), pool_(pool), volume_id_(volume_id) {}

size_t HeapFile::MaxRecordSize() {
  return Page::kPayloadSize - SlottedPage::kSlotDirStart - 4;
}

StatusOr<Oid> HeapFile::Insert(const ByteBuffer& record) {
  if (record.size() > MaxRecordSize()) {
    return Status::InvalidArgument("record too large for slotted page");
  }
  std::lock_guard<std::mutex> g(mu_);

  // Find a page with room: the last page, else a fresh one.
  PageGuard guard;
  if (!pages_.empty()) {
    PARADISE_ASSIGN_OR_RETURN(PageGuard last,
                              pool_->Pin(PageId{volume_id_, pages_.back()}));
    SlottedPage sp(last.page());
    if (sp.NeedsInit()) {
      sp.Init();
      last.MarkDirty();
    }
    if (sp.TotalFree() >= record.size()) guard = std::move(last);
  }
  if (!guard.valid()) {
    PARADISE_ASSIGN_OR_RETURN(guard, pool_->NewPage(volume_id_));
    SlottedPage sp(guard.page());
    sp.Init();
    guard.MarkDirty();
    pages_.push_back(guard.id().page_no);
  }

  SlottedPage sp(guard.page());
  int slot = sp.InsertRecord(record.data(), static_cast<uint16_t>(record.size()));
  PARADISE_CHECK_MSG(slot >= 0, "page chosen for insert had no room");
  guard.MarkDirty();
  return Oid{guard.id().page_no, static_cast<uint16_t>(slot)};
}

StatusOr<ByteBuffer> HeapFile::Get(const Oid& oid) const {
  std::lock_guard<std::mutex> g(mu_);
  PARADISE_ASSIGN_OR_RETURN(PageGuard guard,
                            pool_->Pin(PageId{volume_id_, oid.page}));
  SlottedPage sp(guard.page());
  PARADISE_ASSIGN_OR_RETURN(std::span<const uint8_t> record,
                            FindRecord(sp, oid));
  return ByteBuffer(record.begin(), record.end());
}

Status HeapFile::Delete(const Oid& oid) {
  std::lock_guard<std::mutex> g(mu_);
  PARADISE_ASSIGN_OR_RETURN(PageGuard guard,
                            pool_->Pin(PageId{volume_id_, oid.page}));
  SlottedPage sp(guard.page());
  PARADISE_RETURN_IF_ERROR(FindRecord(sp, oid).status());
  sp.DeleteRecord(oid.slot);
  guard.MarkDirty();
  return Status::OK();
}

Status HeapFile::Update(const Oid& oid, const ByteBuffer& record) {
  std::lock_guard<std::mutex> g(mu_);
  PARADISE_ASSIGN_OR_RETURN(PageGuard guard,
                            pool_->Pin(PageId{volume_id_, oid.page}));
  SlottedPage sp(guard.page());
  PARADISE_ASSIGN_OR_RETURN(std::span<const uint8_t> stored,
                            FindRecord(sp, oid));
  if (stored.size() != record.size()) {
    return Status::InvalidArgument(
        "in-place update requires equal size; delete+insert instead");
  }
  PARADISE_CHECK(sp.UpdateRecord(oid.slot, record.data(),
                                 static_cast<uint16_t>(record.size())));
  guard.MarkDirty();
  return Status::OK();
}

bool HeapFile::Iterator::Next(Oid* oid, std::span<const uint8_t>* record) {
  if (!status_.ok()) return false;
  std::lock_guard<std::mutex> g(file_->mu_);
  while (page_index_ < file_->pages_.size()) {
    PageNo page_no = file_->pages_[page_index_];
    if (guard_index_ != page_index_ || !guard_.valid()) {
      // Batched readahead for the upcoming window: group the page numbers
      // into maximal consecutive runs so each run is one positioning cost
      // plus sequential transfers (and one shard visit) in the pool.
      if (page_index_ >= prefetched_until_) {
        size_t end = std::min(file_->pages_.size(),
                              page_index_ + kReadaheadPages);
        size_t i = page_index_;
        while (i < end) {
          PageNo run_first = file_->pages_[i];
          uint32_t run_len = 1;
          while (i + run_len < end &&
                 file_->pages_[i + run_len] == run_first + run_len) {
            ++run_len;
          }
          file_->pool_->Prefetch(PageId{file_->volume_id_, run_first},
                                 run_len);
          i += run_len;
        }
        prefetched_until_ = end;
      }
      auto guard_or = file_->pool_->Pin(PageId{file_->volume_id_, page_no});
      if (!guard_or.ok()) {
        status_ = guard_or.status();
        guard_.Release();
        return false;
      }
      guard_ = std::move(guard_or).value();
      guard_index_ = page_index_;
    }
    SlottedPage sp(guard_.page());
    if (sp.NeedsInit()) {
      ++page_index_;
      slot_ = 0;
      guard_.Release();
      continue;
    }
    while (slot_ < sp.SlotCount()) {
      const uint16_t s = slot_++;
      const SlottedPage::Lookup found = sp.Find(s, record);
      if (found == SlottedPage::Lookup::kFree) continue;
      if (found == SlottedPage::Lookup::kMalformed) {
        status_ = MalformedPage(page_no);
        guard_.Release();
        return false;
      }
      *oid = Oid{page_no, s};
      return true;
    }
    ++page_index_;
    slot_ = 0;
    guard_.Release();
  }
  guard_.Release();
  return false;
}

size_t HeapFile::num_pages() const {
  std::lock_guard<std::mutex> g(mu_);
  return pages_.size();
}

}  // namespace paradise::storage
