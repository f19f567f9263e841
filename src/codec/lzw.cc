#include "codec/lzw.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

namespace paradise::codec {

namespace {

constexpr uint32_t kClearCode = 256;
constexpr uint32_t kEndCode = 257;
constexpr uint32_t kFirstCode = 258;
constexpr uint32_t kCodeBits = 12;
constexpr uint32_t kMaxCodes = 1u << kCodeBits;           // 4096
constexpr uint32_t kMaxEntries = kMaxCodes - kFirstCode;  // 3838

/// Packs fixed-width codes MSB-first into a byte vector.
class BitPacker {
 public:
  explicit BitPacker(std::vector<uint8_t>* out) : out_(out) {}

  void Put(uint32_t code) {
    acc_ = (acc_ << kCodeBits) | code;
    bits_ += kCodeBits;
    while (bits_ >= 8) {
      bits_ -= 8;
      out_->push_back(static_cast<uint8_t>(acc_ >> bits_));
    }
  }

  void Flush() {
    if (bits_ > 0) {
      out_->push_back(static_cast<uint8_t>(acc_ << (8 - bits_)));
      bits_ = 0;
    }
  }

 private:
  std::vector<uint8_t>* out_;
  uint64_t acc_ = 0;
  uint32_t bits_ = 0;
};

/// Unpacks fixed-width codes written by BitPacker from a 64-bit buffer
/// holding the next unread bits MSB-aligned.
class BitUnpacker {
 public:
  BitUnpacker(const uint8_t* data, size_t size)
      : next_(data), end_(data + size) {}

  /// False once fewer than kCodeBits bits remain.
  bool Get(uint32_t* code) {
    if (bits_ < kCodeBits) {
      // Top up with whole bytes: at least six, so one refill serves at
      // least four codes.
      for (; bits_ <= 56 && next_ < end_; bits_ += 8) {
        acc_ |= uint64_t{*next_++} << (56 - bits_);
      }
      if (bits_ < kCodeBits) return false;
    }
    *code = static_cast<uint32_t>(acc_ >> (64 - kCodeBits));
    acc_ <<= kCodeBits;
    bits_ -= kCodeBits;
    return true;
  }

 private:
  const uint8_t* next_;
  const uint8_t* const end_;
  uint64_t acc_ = 0;
  uint32_t bits_ = 0;
};

/// The encoder's dictionary: an open-addressed, linearly probed table from
/// (prefix code, next byte) to code. A slot holds
/// generation << 32 | prefix << 20 | next byte << 12 | code, and a slot
/// stamped with an older generation reads as empty, so Clear() empties the
/// table in O(1).
class EncoderDictionary {
 public:
  static constexpr uint32_t kNotFound = kMaxCodes;

  /// Sized for the entries `input_size` bytes can add (at most one per
  /// byte, and kMaxEntries between CLEARs) at a load factor of at most 1/2.
  explicit EncoderDictionary(size_t input_size) {
    const size_t entries = std::min<size_t>(input_size, kMaxEntries);
    while ((size_t{1} << bits_) < 2 * entries) ++bits_;
    slots_.assign(size_t{1} << bits_, 0);
  }

  /// Returns the code of (prefix, next), or kNotFound after noting the
  /// empty slot where Add() will put it.
  uint32_t Find(uint32_t prefix, uint8_t next) {
    const uint32_t key = (prefix << 8) | next;
    const uint64_t tag = (generation_ << 20) | key;
    const size_t mask = slots_.size() - 1;
    size_t i = (key * 0x9e3779b1u) >> (32 - bits_);
    for (;; i = (i + 1) & mask) {
      const uint64_t slot = slots_[i];
      if ((slot >> kCodeBits) == tag) {
        return static_cast<uint32_t>(slot & (kMaxCodes - 1));
      }
      if ((slot >> 32) != generation_) {
        free_slot_ = i;
        free_tag_ = tag;
        return kNotFound;
      }
    }
  }

  /// Enters the pair the last Find() missed as `code`.
  void Add(uint32_t code) {
    slots_[free_slot_] = (free_tag_ << kCodeBits) | code;
  }

  void Clear() { ++generation_; }

 private:
  uint32_t bits_ = 4;  // log2 of the slot count
  std::vector<uint64_t> slots_;
  uint64_t generation_ = 1;  // zero-filled slots read as empty
  size_t free_slot_ = 0;
  uint64_t free_tag_ = 0;
};

/// Where a dictionary code's string sits in the decoder's output: the bytes
/// it covered in the step that defined it. Decoding the code copies them
/// again. A string is at most kMaxEntries + 1 bytes, so its length fits the
/// 12 bits left over.
struct Phrase {
  uint64_t offset : 52;
  uint64_t length : 12;
};

/// Decodes `data` into `*out`, which arrives sized to its initial room and
/// grows as needed, but never past `limit` bytes: a stream that would
/// decode to more is kCorruption. On success `*out` is cut to the decoded
/// length.
Status Decode(const uint8_t* data, size_t size, size_t limit,
              std::vector<uint8_t>* out) {
  BitUnpacker unpacker(data, size);
  // Left uninitialized: phrases[code] is read only for a code below
  // next_code, and each of those was set in the step that defined it.
  std::array<Phrase, kMaxCodes> phrases;
  uint32_t next_code = kFirstCode;
  bool after_clear = true;  // the next code starts a new dictionary
  uint8_t* base = out->data();
  size_t room = out->size();
  size_t n = 0;  // bytes decoded so far
  // The previous code's string, base[prev_offset, prev_offset + prev_length):
  // together with the first byte decoded after it, the next entry.
  size_t prev_offset = 0;
  size_t prev_length = 0;

  uint32_t code = 0;
  while (unpacker.Get(&code)) {
    if (code == kEndCode) {
      out->resize(n);
      return Status::OK();
    }
    if (code == kClearCode) {
      next_code = kFirstCode;
      after_clear = true;
      continue;
    }
    if (code >= next_code && !(code == next_code && !after_clear)) {
      return Status::Corruption("LZW: code beyond dictionary");
    }
    if (after_clear && code >= 256) {
      return Status::Corruption("LZW: first code not literal");
    }
    // A literal is one byte; a dictionary code copies its earlier string;
    // the KwKwK code (the one this step defines) is the previous string
    // plus that string's own first byte.
    const bool kwkwk = code == next_code;
    const size_t length = code < 256 ? 1
                          : kwkwk    ? prev_length + 1
                                     : phrases[code].length;
    if (length > room - n) {
      if (length > limit - n) {
        return Status::Corruption("LZW: output longer than expected");
      }
      out->resize(std::min(limit, std::max(2 * room, n + length)));
      base = out->data();
      room = out->size();
    }
    if (code < 256) {
      base[n] = static_cast<uint8_t>(code);
    } else {
      // The source string ends at or before base + n.
      const uint8_t* src = base + (kwkwk ? prev_offset : phrases[code].offset);
      const size_t copy = kwkwk ? prev_length : length;
      if (copy <= 16 && room - n >= 16) {
        // Most strings are short: move a fixed 16 bytes; the bytes past
        // `copy` land inside the buffer and later codes overwrite them.
        uint8_t chunk[16];
        std::memcpy(chunk, src, 16);
        std::memcpy(base + n, chunk, 16);
      } else {
        std::memcpy(base + n, src, copy);
      }
      if (kwkwk) base[n + prev_length] = base[prev_offset];
    }
    if (!after_clear && next_code < kMaxCodes) {
      phrases[next_code++] = Phrase{prev_offset, prev_length + 1};
    }
    after_clear = false;
    prev_offset = n;
    prev_length = length;
    n += length;
  }
  return Status::Corruption("LZW: missing END code");
}

}  // namespace

std::vector<uint8_t> LzwCompress(const uint8_t* data, size_t size) {
  std::vector<uint8_t> out;
  out.reserve(size / 2 + 16);
  BitPacker packer(&out);
  packer.Put(kClearCode);

  if (size == 0) {
    packer.Put(kEndCode);
    packer.Flush();
    return out;
  }

  EncoderDictionary dict(size);
  uint32_t next_code = kFirstCode;
  uint32_t cur = data[0];
  for (size_t i = 1; i < size; ++i) {
    const uint8_t c = data[i];
    const uint32_t code = dict.Find(cur, c);
    if (code != EncoderDictionary::kNotFound) {
      cur = code;
      continue;
    }
    packer.Put(cur);
    if (next_code < kMaxCodes) {
      dict.Add(next_code++);
    } else {
      packer.Put(kClearCode);
      dict.Clear();
      next_code = kFirstCode;
    }
    cur = c;
  }
  packer.Put(cur);
  packer.Put(kEndCode);
  packer.Flush();
  return out;
}

StatusOr<std::vector<uint8_t>> LzwDecompress(const uint8_t* data,
                                             size_t size) {
  // Tiles compress about 2:1, so four times the stream usually holds the
  // output without growing.
  std::vector<uint8_t> out(4 * size);
  PARADISE_RETURN_IF_ERROR(
      Decode(data, size, std::numeric_limits<size_t>::max(), &out));
  return out;
}

StatusOr<std::vector<uint8_t>> LzwDecompressExact(const uint8_t* data,
                                                  size_t size,
                                                  size_t expected_size) {
  std::vector<uint8_t> out(expected_size);
  PARADISE_RETURN_IF_ERROR(Decode(data, size, expected_size, &out));
  if (out.size() != expected_size) {
    return Status::Corruption("LZW: output shorter than expected");
  }
  return out;
}

}  // namespace paradise::codec
