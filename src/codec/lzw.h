#ifndef PARADISE_CODEC_LZW_H_
#define PARADISE_CODEC_LZW_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace paradise::codec {

/// Lossless LZW compression [Wel84], as Paradise applies to array tiles
/// before they are written to disk (Section 2.5.1).
///
/// Format: a stream of 12-bit codes, MSB-first bit packing. Codes 0-255 are
/// literals, 256 is CLEAR (dictionary reset), 257 is END, 258+ are dictionary
/// entries. The encoder emits CLEAR whenever the dictionary fills, so inputs
/// of any size compress with bounded memory.
std::vector<uint8_t> LzwCompress(const uint8_t* data, size_t size);

inline std::vector<uint8_t> LzwCompress(const std::vector<uint8_t>& in) {
  return LzwCompress(in.data(), in.size());
}

/// Inverse of LzwCompress. Returns kCorruption on malformed input.
StatusOr<std::vector<uint8_t>> LzwDecompress(const uint8_t* data, size_t size);

inline StatusOr<std::vector<uint8_t>> LzwDecompress(
    const std::vector<uint8_t>& in) {
  return LzwDecompress(in.data(), in.size());
}

/// LzwDecompress for a stream whose decoded length is known, such as a
/// stored tile's: decodes into one buffer of `expected_size` bytes, never
/// writes past it, and returns kCorruption if the stream is malformed or
/// decodes to any other length.
StatusOr<std::vector<uint8_t>> LzwDecompressExact(const uint8_t* data,
                                                  size_t size,
                                                  size_t expected_size);

}  // namespace paradise::codec

#endif  // PARADISE_CODEC_LZW_H_
