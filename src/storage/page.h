#ifndef PARADISE_STORAGE_PAGE_H_
#define PARADISE_STORAGE_PAGE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>

namespace paradise::storage {

/// Fixed page size, matching SHORE-era systems.
inline constexpr size_t kPageSize = 8192;

/// Pages are allocated in fixed-size extents (Section 2.2).
inline constexpr uint32_t kPagesPerExtent = 8;

using PageNo = uint32_t;
inline constexpr PageNo kInvalidPageNo = 0xffffffff;

/// Identifies a page within one node's set of volumes.
struct PageId {
  uint32_t volume = 0;
  PageNo page_no = kInvalidPageNo;

  friend bool operator==(const PageId&, const PageId&) = default;
};

struct PageIdHash {
  size_t operator()(const PageId& id) const {
    return std::hash<uint64_t>()(
        (static_cast<uint64_t>(id.volume) << 32) | id.page_no);
  }
};

/// Raw page frame. Interpretation (slotted page, index node, LOB data) is
/// up to the layer using it. Header layout: bytes [0, 8) hold the page LSN
/// used by recovery, bytes [8, 12) a checksum stamped by the volume on
/// write and verified by the buffer pool on fetch, bytes [12, 16) pad the
/// payload to 8-byte alignment. A stored checksum of 0 means "never
/// stamped" (a fresh page), so reads of unwritten pages always verify.
class Page {
 public:
  Page() { data_.fill(0); }

  uint8_t* data() { return data_.data(); }
  const uint8_t* data() const { return data_.data(); }

  uint64_t lsn() const {
    uint64_t v;
    std::memcpy(&v, data_.data(), sizeof(v));
    return v;
  }
  void set_lsn(uint64_t lsn) { std::memcpy(data_.data(), &lsn, sizeof(lsn)); }

  uint32_t stored_checksum() const {
    uint32_t v;
    std::memcpy(&v, data_.data() + kChecksumOffset, sizeof(v));
    return v;
  }
  void set_stored_checksum(uint32_t sum) {
    std::memcpy(data_.data() + kChecksumOffset, &sum, sizeof(sum));
  }

  /// Lane-parallel FNV-style checksum over the LSN and payload (the
  /// checksum word and pad are excluded). The page is read as rows of
  /// kChecksumLanes 32-bit words; word i of every row feeds lane i, whose
  /// step xors the word in, multiplies by the FNV prime and xorshifts.
  /// The lanes are independent, so the compiler vectorizes the row loop
  /// (PostgreSQL lays out its data-page checksum the same way). The
  /// excluded header words enter as zeros, and the lanes fold in order
  /// through the same step. Every step and the fold are bijections in the
  /// value they absorb, so a change confined to one 32-bit word always
  /// changes the folded value. Never returns 0: the folded value 0 maps to
  /// 1 so that 0 stays reserved for "never stamped" (the one merge: a
  /// one-word change that moves the fold between 0 and 1 escapes).
  uint32_t ComputeChecksum() const {
    uint32_t row[kChecksumLanes];
    uint32_t lanes[kChecksumLanes];
    std::memcpy(row, data_.data(), kChecksumRowBytes);
    row[kChecksumOffset / 4] = 0;      // the checksum word
    row[kChecksumOffset / 4 + 1] = 0;  // the pad
    for (size_t l = 0; l < kChecksumLanes; ++l) {
      lanes[l] = ChecksumStep(kFnvOffsetBasis + static_cast<uint32_t>(l),
                              row[l]);
    }
    for (size_t r = 1; r < kPageSize / kChecksumRowBytes; ++r) {
      std::memcpy(row, data_.data() + r * kChecksumRowBytes,
                  kChecksumRowBytes);
      for (size_t l = 0; l < kChecksumLanes; ++l) {
        lanes[l] = ChecksumStep(lanes[l], row[l]);
      }
    }
    uint32_t h = kFnvOffsetBasis;
    for (size_t l = 0; l < kChecksumLanes; ++l) h = ChecksumStep(h, lanes[l]);
    return h == 0 ? 1 : h;
  }

  void StampChecksum() { set_stored_checksum(ComputeChecksum()); }

  /// True iff the page was never stamped or its contents match the stamp.
  bool VerifyChecksum() const {
    uint32_t stored = stored_checksum();
    return stored == 0 || stored == ComputeChecksum();
  }

  /// Payload area after the header (LSN + checksum + pad).
  static constexpr size_t kChecksumOffset = 8;
  static constexpr size_t kHeaderSize = 16;
  static constexpr size_t kPayloadSize = kPageSize - kHeaderSize;
  uint8_t* payload() { return data_.data() + kHeaderSize; }
  const uint8_t* payload() const { return data_.data() + kHeaderSize; }

 private:
  static constexpr size_t kChecksumLanes = 32;
  static constexpr size_t kChecksumRowBytes = kChecksumLanes * 4;
  static_assert(kPageSize % kChecksumRowBytes == 0);
  static_assert(kHeaderSize == kChecksumOffset + 8);
  static constexpr uint32_t kFnvOffsetBasis = 2166136261u;
  static constexpr uint32_t kFnvPrime = 16777619u;

  /// One lane step: xor, multiply by the odd prime, xorshift. Each part is
  /// a bijection on 32-bit values, so the step is one in `word` for a
  /// fixed `h` and in `h` for a fixed `word`.
  static uint32_t ChecksumStep(uint32_t h, uint32_t word) {
    h = (h ^ word) * kFnvPrime;
    return h ^ (h >> 17);
  }

  std::array<uint8_t, kPageSize> data_;
};

}  // namespace paradise::storage

#endif  // PARADISE_STORAGE_PAGE_H_
