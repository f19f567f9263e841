#ifndef PARADISE_COMMON_BYTES_H_
#define PARADISE_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

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

/// Reads values written by ByteWriter. The bytes may be malformed even
/// when read back from a page whose checksum verifies, so a read past the
/// end, or a decoder's Fail(), marks the reader failed instead of
/// aborting: every read from then on yields zero bytes, and the caller
/// tests failed() once after decoding a whole record.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit ByteReader(const ByteBuffer& buf)
      : ByteReader(buf.data(), buf.size()) {}

  uint8_t GetU8() { return GetRaw<uint8_t>(); }
  uint16_t GetU16() { return GetRaw<uint16_t>(); }
  uint32_t GetU32() { return GetRaw<uint32_t>(); }
  uint64_t GetU64() { return GetRaw<uint64_t>(); }
  int32_t GetI32() { return GetRaw<int32_t>(); }
  int64_t GetI64() { return GetRaw<int64_t>(); }
  double GetDouble() { return GetRaw<double>(); }

  std::string GetString() {
    uint32_t n = GetU32();
    const uint8_t* at = Take(n);
    if (at == nullptr) return std::string();
    return std::string(reinterpret_cast<const char*>(at), n);
  }

  ByteBuffer GetBlob() {
    uint32_t n = GetU32();
    const uint8_t* at = Take(n);
    if (at == nullptr) return ByteBuffer();
    return ByteBuffer(at, at + n);
  }

  /// Advances past `n` bytes; false if the reader has failed.
  bool Skip(size_t n) {
    Take(n);
    return !failed_;
  }

  /// True if `count` items of at least `item_bytes` each can still be
  /// read; else fails the reader. A decoder checks a stored count with it
  /// before sizing a container by that count.
  bool Fits(uint64_t count, size_t item_bytes) {
    if (failed_) return false;
    if (count <= remaining() / item_bytes) return true;
    Fail();
    return false;
  }

  /// Marks the bytes malformed (an unknown tag, say): the reader fails and
  /// reads nothing more.
  void Fail() {
    failed_ = true;
    pos_ = size_;
  }
  bool failed() const { return failed_; }

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  T GetRaw() {
    T v{};
    const uint8_t* at = Take(sizeof(T));
    if (at != nullptr) std::memcpy(&v, at, sizeof(T));
    return v;
  }

  /// The next `n` bytes, or null once the reader has failed.
  const uint8_t* Take(size_t n) {
    if (failed_) return nullptr;
    if (n > size_ - pos_) {
      Fail();
      return nullptr;
    }
    const uint8_t* at = data_ + pos_;
    pos_ += n;
    return at;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
  bool failed_ = false;
};

}  // namespace paradise

#endif  // PARADISE_COMMON_BYTES_H_
