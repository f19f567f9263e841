#ifndef PARADISE_STORAGE_SLOTTED_PAGE_H_
#define PARADISE_STORAGE_SLOTTED_PAGE_H_

#include <cstdint>
#include <cstring>
#include <span>

#include "common/logging.h"
#include "storage/page.h"

namespace paradise::storage {

/// View over a Page's payload interpreted as a slotted record page.
///
/// Layout (within Page::payload()):
///   [0..2)  u16 slot_count
///   [2..4)  u16 data_tail   -- records occupy [data_tail, kPayloadSize)
///   [4..4+4*slot_count) slot directory: {u16 offset, u16 length}
///                        offset == 0 marks an empty slot
/// Records are appended downward from the end; deletes leave holes that
/// Compact() squeezes out when needed.
class SlottedPage {
 public:
  explicit SlottedPage(Page* page) : page_(page) {}

  static constexpr uint16_t kSlotDirStart = 4;
  static constexpr uint16_t kEmptyOffset = 0;

  void Init() {
    SetSlotCount(0);
    SetDataTail(static_cast<uint16_t>(Page::kPayloadSize));
  }

  /// True if the page header looks uninitialized (fresh from allocation).
  bool NeedsInit() const { return DataTail() == 0; }

  uint16_t SlotCount() const { return GetU16(0); }
  uint16_t DataTail() const { return GetU16(2); }

  /// What a reader finds at a slot. A page can pass its checksum and still
  /// be malformed (written unstamped, or damaged in a way the checksum
  /// missed), so readers look a record up only through Find.
  enum class Lookup : uint8_t { kLive, kFree, kMalformed };

  /// kMalformed when the slot directory runs past the payload, or when the
  /// live record at `slot` does not lie between the directory's end and
  /// the payload's end; kFree for an empty slot or one past the directory;
  /// otherwise kLive, with `record` set to the record's bytes.
  Lookup Find(uint16_t slot, std::span<const uint8_t>* record) const {
    const size_t dir_end =
        kSlotDirStart + 4 * static_cast<size_t>(SlotCount());
    if (dir_end > Page::kPayloadSize) return Lookup::kMalformed;
    if (!SlotInUse(slot)) return Lookup::kFree;
    const size_t offset = SlotOffset(slot);
    const size_t length = SlotLength(slot);
    if (offset < dir_end || offset + length > Page::kPayloadSize) {
      return Lookup::kMalformed;
    }
    *record = std::span<const uint8_t>(page_->payload() + offset, length);
    return Lookup::kLive;
  }

  /// Free bytes recoverable by compaction (holes + contiguous).
  size_t TotalFree() const {
    size_t used = 0;
    for (uint16_t s = 0; s < SlotCount(); ++s) {
      if (SlotInUse(s)) used += SlotLength(s);
    }
    size_t dir_end = kSlotDirStart + 4 * static_cast<size_t>(SlotCount());
    size_t avail = Page::kPayloadSize - dir_end - used;
    return avail > 4 ? avail - 4 : 0;
  }

  /// Inserts a record, compacting if necessary. Returns the slot, or -1 if
  /// the page genuinely cannot hold it.
  int InsertRecord(const uint8_t* data, uint16_t len) {
    // Reuse an empty slot if present (no directory growth needed then).
    int free_slot = -1;
    for (uint16_t s = 0; s < SlotCount(); ++s) {
      if (!SlotInUse(s)) {
        free_slot = s;
        break;
      }
    }
    size_t needed = len + (free_slot < 0 ? 4u : 0u);
    size_t dir_end = kSlotDirStart + 4 * static_cast<size_t>(SlotCount());
    size_t contiguous = DataTail() > dir_end ? DataTail() - dir_end : 0;
    if (contiguous < needed) {
      Compact();
      dir_end = kSlotDirStart + 4 * static_cast<size_t>(SlotCount());
      contiguous = DataTail() > dir_end ? DataTail() - dir_end : 0;
      if (contiguous < needed) return -1;
    }
    uint16_t slot;
    if (free_slot >= 0) {
      slot = static_cast<uint16_t>(free_slot);
    } else {
      slot = SlotCount();
      SetSlotCount(slot + 1);
    }
    uint16_t off = static_cast<uint16_t>(DataTail() - len);
    std::memcpy(page_->payload() + off, data, len);
    SetDataTail(off);
    SetSlot(slot, off, len);
    return slot;
  }

  void DeleteRecord(uint16_t slot) {
    PARADISE_CHECK(SlotInUse(slot));
    SetSlot(slot, kEmptyOffset, 0);
    // Shrink the directory if trailing slots are empty.
    uint16_t count = SlotCount();
    while (count > 0 && SlotOffset(count - 1) == kEmptyOffset) --count;
    SetSlotCount(count);
  }

  /// In-place overwrite; requires the same length.
  bool UpdateRecord(uint16_t slot, const uint8_t* data, uint16_t len) {
    if (!SlotInUse(slot) || SlotLength(slot) != len) return false;
    std::memcpy(page_->payload() + SlotOffset(slot), data, len);
    return true;
  }

  /// Squeezes deleted-record holes out of the data area.
  void Compact() {
    uint8_t tmp[Page::kPayloadSize];
    uint16_t tail = static_cast<uint16_t>(Page::kPayloadSize);
    for (uint16_t s = 0; s < SlotCount(); ++s) {
      if (!SlotInUse(s)) continue;
      uint16_t len = SlotLength(s);
      tail = static_cast<uint16_t>(tail - len);
      std::memcpy(tmp + tail, page_->payload() + SlotOffset(s), len);
      SetSlot(s, tail, len);
    }
    std::memcpy(page_->payload() + tail, tmp + tail, Page::kPayloadSize - tail);
    SetDataTail(tail);
  }

 private:
  bool SlotInUse(uint16_t slot) const {
    return slot < SlotCount() && SlotOffset(slot) != kEmptyOffset;
  }
  uint16_t SlotOffset(uint16_t slot) const {
    return GetU16(kSlotDirStart + 4 * slot);
  }
  uint16_t SlotLength(uint16_t slot) const {
    return GetU16(kSlotDirStart + 4 * slot + 2);
  }

  uint16_t GetU16(size_t at) const {
    uint16_t v;
    std::memcpy(&v, page_->payload() + at, 2);
    return v;
  }
  void SetU16(size_t at, uint16_t v) {
    std::memcpy(page_->payload() + at, &v, 2);
  }
  void SetSlotCount(uint16_t v) { SetU16(0, v); }
  void SetDataTail(uint16_t v) { SetU16(2, v); }
  void SetSlot(uint16_t slot, uint16_t off, uint16_t len) {
    SetU16(kSlotDirStart + 4 * slot, off);
    SetU16(kSlotDirStart + 4 * slot + 2, len);
  }

  Page* page_;
};

}  // namespace paradise::storage

#endif  // PARADISE_STORAGE_SLOTTED_PAGE_H_
