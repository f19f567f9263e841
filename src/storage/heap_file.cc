#include "storage/heap_file.h"

#include "common/logging.h"
#include "storage/slotted_page.h"

namespace paradise::storage {

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
  ++num_records_;
  return Oid{guard.id().page_no, static_cast<uint16_t>(slot)};
}

StatusOr<ByteBuffer> HeapFile::Get(const Oid& oid) const {
  std::lock_guard<std::mutex> g(mu_);
  PARADISE_ASSIGN_OR_RETURN(PageGuard guard,
                            pool_->Pin(PageId{volume_id_, oid.page}));
  SlottedPage sp(guard.page());
  if (!sp.SlotInUse(oid.slot)) {
    return Status::NotFound("no record at oid");
  }
  const uint8_t* data = sp.RecordData(oid.slot);
  return ByteBuffer(data, data + sp.SlotLength(oid.slot));
}

Status HeapFile::Delete(const Oid& oid) {
  std::lock_guard<std::mutex> g(mu_);
  PARADISE_ASSIGN_OR_RETURN(PageGuard guard,
                            pool_->Pin(PageId{volume_id_, oid.page}));
  SlottedPage sp(guard.page());
  if (!sp.SlotInUse(oid.slot)) {
    return Status::NotFound("no record at oid");
  }
  sp.DeleteRecord(oid.slot);
  guard.MarkDirty();
  --num_records_;
  return Status::OK();
}

Status HeapFile::Update(const Oid& oid, const ByteBuffer& record) {
  std::lock_guard<std::mutex> g(mu_);
  PARADISE_ASSIGN_OR_RETURN(PageGuard guard,
                            pool_->Pin(PageId{volume_id_, oid.page}));
  SlottedPage sp(guard.page());
  if (!sp.SlotInUse(oid.slot)) {
    return Status::NotFound("no record at oid");
  }
  if (sp.SlotLength(oid.slot) != record.size()) {
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
      uint16_t s = slot_++;
      if (!sp.SlotInUse(s)) continue;
      *oid = Oid{page_no, s};
      *record = std::span<const uint8_t>(sp.RecordData(s), sp.SlotLength(s));
      return true;
    }
    ++page_index_;
    slot_ = 0;
    guard_.Release();
  }
  guard_.Release();
  return false;
}

Status HeapFile::RecountRecords() {
  std::lock_guard<std::mutex> g(mu_);
  int64_t n = 0;
  for (PageNo p : pages_) {
    PARADISE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Pin(PageId{volume_id_, p}));
    SlottedPage sp(guard.page());
    if (!sp.NeedsInit()) n += sp.LiveRecords();
  }
  num_records_ = n;
  return Status::OK();
}

int64_t HeapFile::num_records() const {
  std::lock_guard<std::mutex> g(mu_);
  return num_records_;
}

size_t HeapFile::num_pages() const {
  std::lock_guard<std::mutex> g(mu_);
  return pages_.size();
}

}  // namespace paradise::storage
