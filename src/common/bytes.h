#ifndef PARADISE_COMMON_BYTES_H_
#define PARADISE_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"

namespace paradise {

using ByteBuffer = std::vector<uint8_t>;

/// Appends fixed-width little-endian values and length-prefixed blobs to a
/// byte buffer. Used by tuple serialization and page layouts.
class ByteWriter {
 public:
  explicit ByteWriter(ByteBuffer* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16(uint16_t v) { PutRaw(&v, 2); }
  void PutU32(uint32_t v) { PutRaw(&v, 4); }
  void PutU64(uint64_t v) { PutRaw(&v, 8); }
  void PutI32(int32_t v) { PutRaw(&v, 4); }
  void PutI64(int64_t v) { PutRaw(&v, 8); }
  void PutDouble(double v) { PutRaw(&v, 8); }

  void PutBytes(const void* data, size_t n) {
    PutU32(static_cast<uint32_t>(n));
    PutRaw(data, n);
  }
  void PutString(const std::string& s) { PutBytes(s.data(), s.size()); }

  void PutRaw(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + n);
  }

 private:
  ByteBuffer* out_;
};

/// Reads values written by ByteWriter. Bounds violations abort (they would
/// indicate page/log corruption that CHECKs elsewhere should have caught).
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit ByteReader(const ByteBuffer& buf)
      : ByteReader(buf.data(), buf.size()) {}

  uint8_t GetU8() { return data_[Advance(1)]; }
  uint16_t GetU16() { return GetRaw<uint16_t>(); }
  uint32_t GetU32() { return GetRaw<uint32_t>(); }
  uint64_t GetU64() { return GetRaw<uint64_t>(); }
  int32_t GetI32() { return GetRaw<int32_t>(); }
  int64_t GetI64() { return GetRaw<int64_t>(); }
  double GetDouble() { return GetRaw<double>(); }

  std::string GetString() {
    uint32_t n = GetU32();
    size_t at = Advance(n);
    return std::string(reinterpret_cast<const char*>(data_ + at), n);
  }

  ByteBuffer GetBlob() {
    uint32_t n = GetU32();
    size_t at = Advance(n);
    return ByteBuffer(data_ + at, data_ + at + n);
  }

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  T GetRaw() {
    size_t at = Advance(sizeof(T));
    T v;
    std::memcpy(&v, data_ + at, sizeof(T));
    return v;
  }

  size_t Advance(size_t n) {
    PARADISE_CHECK_MSG(pos_ + n <= size_, "byte reader overrun");
    size_t at = pos_;
    pos_ += n;
    return at;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace paradise

#endif  // PARADISE_COMMON_BYTES_H_
