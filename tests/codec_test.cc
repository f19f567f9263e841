#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "codec/lzw.h"
#include "common/rng.h"

namespace paradise::codec {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

void ExpectRoundTrip(const std::vector<uint8_t>& data) {
  std::vector<uint8_t> packed = LzwCompress(data);
  auto unpacked = LzwDecompress(packed);
  ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
  EXPECT_EQ(*unpacked, data);
}

TEST(LzwTest, EmptyInput) { ExpectRoundTrip({}); }

TEST(LzwTest, SingleByte) { ExpectRoundTrip({42}); }

TEST(LzwTest, SimpleString) { ExpectRoundTrip(Bytes("TOBEORNOTTOBEORTOBEORNOT")); }

TEST(LzwTest, KwKwKCase) {
  // The classic corner case: the decoder sees a code equal to next_code.
  ExpectRoundTrip(Bytes("aaaaaaaaaaaaaaaaaaaaaa"));
  ExpectRoundTrip(Bytes("abababababababababab"));
}

TEST(LzwTest, AllByteValues) {
  std::vector<uint8_t> data;
  for (int rep = 0; rep < 4; ++rep) {
    for (int b = 0; b < 256; ++b) data.push_back(static_cast<uint8_t>(b));
  }
  ExpectRoundTrip(data);
}

TEST(LzwTest, CompressesRepetitiveData) {
  std::vector<uint8_t> data(64 * 1024, 0);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((i / 512) & 0xff);  // long runs
  }
  std::vector<uint8_t> packed = LzwCompress(data);
  EXPECT_LT(packed.size(), data.size() / 4);
  auto unpacked = LzwDecompress(packed);
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(*unpacked, data);
}

TEST(LzwTest, RandomDataDoesNotCorrupt) {
  Rng rng(123);
  std::vector<uint8_t> data(50000);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  // Random data typically expands (12-bit codes for 8-bit literals).
  std::vector<uint8_t> packed = LzwCompress(data);
  auto unpacked = LzwDecompress(packed);
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(*unpacked, data);
}

TEST(LzwTest, DictionaryResetOnLargeInput) {
  // Force multiple CLEAR cycles: > 4096 distinct phrases.
  Rng rng(7);
  std::vector<uint8_t> data;
  data.reserve(300000);
  for (int i = 0; i < 300000; ++i) {
    data.push_back(static_cast<uint8_t>(rng.NextUint(7) * 37));
  }
  ExpectRoundTrip(data);
}

TEST(LzwTest, SmoothRasterLikeDataCompressesWell) {
  // 16-bit smooth field, little-endian bytes — what tiles look like.
  std::vector<uint8_t> data;
  for (int i = 0; i < 32768; ++i) {
    uint16_t v = static_cast<uint16_t>(2000 + 100 * ((i / 64) % 8));
    data.push_back(static_cast<uint8_t>(v & 0xff));
    data.push_back(static_cast<uint8_t>(v >> 8));
  }
  std::vector<uint8_t> packed = LzwCompress(data);
  EXPECT_LT(packed.size(), data.size() / 2);
  ExpectRoundTrip(data);
}

TEST(LzwTest, DecompressRejectsGarbage) {
  std::vector<uint8_t> garbage = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  auto result = LzwDecompress(garbage);
  EXPECT_FALSE(result.ok());
}

TEST(LzwTest, DecompressRejectsTruncation) {
  std::vector<uint8_t> packed = LzwCompress(Bytes("hello hello hello hello"));
  packed.resize(packed.size() / 2);
  auto result = LzwDecompress(packed);
  // Either corruption is detected or the END marker is missing.
  EXPECT_FALSE(result.ok());
}

/// Parameterized roundtrip sweep over sizes and alphabet widths.
class LzwSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LzwSweepTest, RoundTrip) {
  auto [size, alphabet] = GetParam();
  Rng rng(static_cast<uint64_t>(size) * 1000003 + alphabet);
  std::vector<uint8_t> data(static_cast<size_t>(size));
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.NextUint(static_cast<uint64_t>(alphabet)));
  }
  ExpectRoundTrip(data);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlphabets, LzwSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 100, 4095, 4096, 4097,
                                         65536),
                       ::testing::Values(1, 2, 16, 256)));

// ---------- Adversarial inputs ----------

/// Packs 12-bit codes MSB-first, mirroring the encoder's BitPacker, so
/// tests can hand-craft malformed code streams.
std::vector<uint8_t> PackCodes(const std::vector<uint32_t>& codes) {
  std::vector<uint8_t> out;
  uint64_t acc = 0;
  uint32_t bits = 0;
  for (uint32_t code : codes) {
    acc = (acc << 12) | code;
    bits += 12;
    while (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<uint8_t>(acc >> bits));
    }
  }
  if (bits > 0) out.push_back(static_cast<uint8_t>(acc << (8 - bits)));
  return out;
}

/// A sequence in which no ordered byte pair repeats: block x holds the
/// pairs (x, y) for y > x, so every adjacent 2-gram — (x, y), (y, x), and
/// the block junctions — is unique. With no repeated 2-gram the encoder
/// adds exactly one dictionary entry per input byte, making the position
/// of the dictionary-full CLEAR predictable.
std::vector<uint8_t> DistinctPairStream(int blocks) {
  std::vector<uint8_t> data;
  for (int x = 0; x < blocks; ++x) {
    for (int y = x + 1; y < 256; ++y) {
      data.push_back(static_cast<uint8_t>(x));
      data.push_back(static_cast<uint8_t>(y));
    }
  }
  return data;
}

TEST(LzwAdversarialTest, DictionaryFullWraparoundExactBoundaries) {
  // One entry per byte: the 3838-entry dictionary fills at byte 3839 and
  // again ~3838 bytes later. Sizes straddling the second CLEAR emission
  // catch off-by-ones in the reset handshake on both sides.
  std::vector<uint8_t> base = DistinctPairStream(16);
  ASSERT_GT(base.size(), 7680u);
  for (size_t size = 7674; size <= 7680; ++size) {
    std::vector<uint8_t> data(base.begin(), base.begin() + size);
    ExpectRoundTrip(data);
  }
}

/// How often `code` occurs among a stream's 12-bit codes, so tests can
/// see how many CLEARs the encoder emitted.
size_t CountCode(const std::vector<uint8_t>& packed, uint32_t code) {
  size_t count = 0;
  uint64_t acc = 0;
  uint32_t bits = 0;
  for (uint8_t b : packed) {
    acc = (acc << 8) | b;
    bits += 8;
    if (bits >= 12) {
      bits -= 12;
      if (((acc >> bits) & 0xfff) == code) ++count;
    }
  }
  return count;
}

TEST(LzwAdversarialTest, KwKwKAcrossDictionaryReset) {
  // A single-byte run produces the KwKwK case on nearly every code, but
  // its n-th code covers n bytes, so a 300,000-byte run fills only ~774
  // entries and never resets the dictionary on its own. Filling the
  // dictionary first with distinct pairs puts the run's KwKwK codes right
  // after a CLEAR.
  std::vector<uint8_t> data = DistinctPairStream(16);
  data.resize(4000);
  data.insert(data.end(), 300000, 0xa5);
  // The stream's own leading CLEAR plus the dictionary-full one.
  EXPECT_EQ(CountCode(LzwCompress(data), 256), 2u);
  ExpectRoundTrip(data);
}

TEST(LzwAdversarialTest, AllZeroTileCompressesAndRoundTrips) {
  // A 96x96 16-bit tile of zeros — what an empty raster region stores.
  std::vector<uint8_t> tile(96 * 96 * 2, 0);
  std::vector<uint8_t> packed = LzwCompress(tile);
  EXPECT_LT(packed.size(), tile.size() / 20);
  ExpectRoundTrip(tile);
}

TEST(LzwAdversarialTest, IncompressibleRandomTileBoundedExpansion) {
  Rng rng(0xc0dec);
  std::vector<uint8_t> tile(96 * 96 * 2);
  for (auto& b : tile) b = static_cast<uint8_t>(rng.Next());
  std::vector<uint8_t> packed = LzwCompress(tile);
  // Worst case is 12 output bits per input byte plus framing.
  EXPECT_LE(packed.size(), tile.size() * 3 / 2 + 16);
  ExpectRoundTrip(tile);
}

TEST(LzwAdversarialTest, KwKwKImmediateUseDecodes) {
  // Hand-packed positive control: code 258 used while being defined.
  auto out = LzwDecompress(PackCodes({65, 258, 257}));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, Bytes("AAA"));
}

TEST(LzwAdversarialTest, CodeBeyondDictionaryIsCorruption) {
  // 300 is far past next_code (258) when it appears.
  EXPECT_FALSE(LzwDecompress(PackCodes({65, 300, 257})).ok());
  // One past the KwKwK code is equally invalid.
  EXPECT_FALSE(LzwDecompress(PackCodes({65, 259, 257})).ok());
}

TEST(LzwAdversarialTest, FirstCodeMustBeALiteral) {
  EXPECT_FALSE(LzwDecompress(PackCodes({258, 257})).ok());
  // Also right after an explicit CLEAR.
  EXPECT_FALSE(LzwDecompress(PackCodes({256, 258, 257})).ok());
}

TEST(LzwAdversarialTest, MissingEndCodeIsCorruption) {
  EXPECT_FALSE(LzwDecompress(PackCodes({65})).ok());
  EXPECT_FALSE(LzwDecompress(std::vector<uint8_t>{}).ok());
  std::vector<uint8_t> half_code = {0x04};
  EXPECT_FALSE(LzwDecompress(half_code).ok());
}

TEST(LzwAdversarialTest, TrailingBytesAfterEndAreIgnored) {
  std::vector<uint8_t> packed = LzwCompress(Bytes("abcabcabc"));
  packed.push_back(0xde);
  packed.push_back(0xad);
  auto out = LzwDecompress(packed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, Bytes("abcabcabc"));
}

// ---------- Stream pin ----------

/// A tile like the loader's: 16-bit pixels of a smooth field quantized to
/// 64 levels, with every other pixel perturbed as over-sampled pixels are.
/// Integer-only, so the bytes are the same on every platform.
std::vector<uint8_t> SmoothRasterTile(uint32_t rows, uint32_t cols,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> tile;
  tile.reserve(static_cast<size_t>(rows) * cols * 2);
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      uint32_t v = (2000 + 13 * r + 7 * c) & ~0x3fu;
      if ((r + c) % 2 == 1) {
        v += static_cast<uint32_t>(rng.Next() & 0x3) << 2;
      }
      tile.push_back(static_cast<uint8_t>(v & 0xff));
      tile.push_back(static_cast<uint8_t>(v >> 8));
    }
  }
  return tile;
}

struct CorpusEntry {
  std::string name;
  std::vector<uint8_t> data;
};

/// Fixed inputs covering the encoder's cases: loader-sized (2 KB) and
/// default-sized (32 KB) smooth tiles, incompressible noise, long KwKwK
/// chains, inputs that cross one or several dictionary-full CLEARs (the
/// pairs straddle the second one), and the empty and 1-byte edge cases.
std::vector<CorpusEntry> Corpus() {
  std::vector<CorpusEntry> corpus;
  corpus.push_back({"smooth_2k", SmoothRasterTile(32, 32, 1)});
  corpus.push_back({"smooth_32k", SmoothRasterTile(128, 128, 2)});
  Rng noise_rng(3);
  std::vector<uint8_t> noise(32 * 1024);
  for (auto& b : noise) b = static_cast<uint8_t>(noise_rng.Next());
  corpus.push_back({"noise_32k", std::move(noise)});
  corpus.push_back({"run_300k", std::vector<uint8_t>(300000, 0xa5)});
  Rng seven_rng(7);
  std::vector<uint8_t> seven(300000);
  for (auto& b : seven) b = static_cast<uint8_t>(seven_rng.NextUint(7) * 37);
  corpus.push_back({"seven_symbols_300k", std::move(seven)});
  std::vector<uint8_t> pairs = DistinctPairStream(16);
  for (size_t size = 7674; size <= 7680; ++size) {
    corpus.push_back({"pairs_" + std::to_string(size),
                      std::vector<uint8_t>(pairs.begin(),
                                           pairs.begin() + size)});
  }
  corpus.push_back({"empty", {}});
  corpus.push_back({"one_byte", {42}});
  return corpus;
}

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (uint8_t b : bytes) h = (h ^ b) * 1099511628211ull;
  return h;
}

TEST(LzwStreamPinTest, EncoderOutputBytesArePinned) {
  // Round trips alone would accept an encoder that assigns codes
  // differently; stored LOB sizes, page counts and so modeled I/O depend
  // on the exact bytes, so they are pinned here. `clears` counts CLEAR
  // codes, the stream's leading one included: it shows which inputs reach
  // a dictionary-full reset (a single-byte run's n-th code covers n bytes,
  // so 300,000 bytes fill only ~774 entries).
  struct Pin {
    size_t length;
    uint64_t fnv;
    size_t clears;
  };
  const std::vector<Pin> want = {
      {933, 0xb1ff1d7c9ef10ec6ull, 1},     // smooth_2k
      {11004, 0x6b8892ef8d9001d3ull, 2},   // smooth_32k
      {47825, 0x4250bb14eabb7697ull, 9},   // noise_32k
      {1166, 0xd4f47d72d56751efull, 1},    // run_300k
      {135096, 0xf29e0d44d03d0b57ull, 24}, // seven_symbols_300k
      {11516, 0xa7eddc2a66358d20ull, 2},   // pairs_7674
      {11517, 0x05d8f10b5ff358a6ull, 2},   // pairs_7675
      {11519, 0x17c8bac812484347ull, 2},   // pairs_7676
      {11520, 0x253113f6c01d26bfull, 2},   // pairs_7677
      {11522, 0x6b76d823938ffabbull, 2},   // pairs_7678
      {11525, 0x98121e7d11295c8cull, 3},   // pairs_7679
      {11526, 0xc1f93783b4fcd7d2ull, 3},   // pairs_7680
      {3, 0x63e15d18ba8c38f1ull, 1},       // empty
      {5, 0x664bd0803f84745dull, 1},       // one_byte
  };
  std::vector<CorpusEntry> corpus = Corpus();
  ASSERT_EQ(corpus.size(), want.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    std::vector<uint8_t> packed = LzwCompress(corpus[i].data);
    EXPECT_EQ(packed.size(), want[i].length) << corpus[i].name;
    EXPECT_EQ(Fnv1a(packed), want[i].fnv)
        << corpus[i].name << " fnv 0x" << std::hex << Fnv1a(packed);
    EXPECT_EQ(CountCode(packed, 256), want[i].clears) << corpus[i].name;
  }
}

// ---------- Differential decoder ----------

/// The chain-walking decoder LzwDecompress used before it decoded by
/// copying from its own output: each code is expanded by walking its
/// prefix chain backwards and reversing the bytes. Kept as an oracle.
StatusOr<std::vector<uint8_t>> ReferenceDecompress(const uint8_t* data,
                                                   size_t size) {
  struct Entry {
    uint32_t prefix;
    uint8_t first;
    uint8_t last;
  };
  std::vector<Entry> dict(4096);
  std::vector<uint8_t> out;
  auto emit = [&](uint32_t code) {
    size_t start = out.size();
    for (; code >= 258; code = dict[code].prefix) {
      out.push_back(dict[code].last);
    }
    out.push_back(static_cast<uint8_t>(code));
    std::reverse(out.begin() + static_cast<std::ptrdiff_t>(start), out.end());
    return out[start];
  };
  auto first_of = [&](uint32_t code) {
    return code >= 258 ? dict[code].first : static_cast<uint8_t>(code);
  };
  uint32_t next_code = 258, prev = 256, bits = 0;
  uint64_t acc = 0;
  size_t pos = 0;
  while (true) {
    while (bits < 12 && pos < size) {
      acc = (acc << 8) | data[pos++];
      bits += 8;
    }
    if (bits < 12) return Status::Corruption("LZW: missing END code");
    bits -= 12;
    uint32_t code = static_cast<uint32_t>((acc >> bits) & 0xfff);
    if (code == 257) return out;
    if (code == 256) {
      next_code = 258;
      prev = 256;
      continue;
    }
    if (code >= next_code && !(code == next_code && prev != 256)) {
      return Status::Corruption("LZW: code beyond dictionary");
    }
    if (prev == 256) {
      if (code >= 256) {
        return Status::Corruption("LZW: first code not literal");
      }
      out.push_back(static_cast<uint8_t>(code));
      prev = code;
      continue;
    }
    uint8_t first;
    if (code == next_code) {  // KwKwK
      first = emit(prev);
      out.push_back(first);
    } else {
      first = emit(code);
    }
    if (next_code < 4096) {
      dict[next_code++] = Entry{prev, first_of(prev), first};
    }
    prev = code;
  }
}

/// Decodes with both decoders and requires the same Status or bytes.
/// LzwDecompressExact must return the same bytes when given the decoded
/// length, and kCorruption for a malformed stream or any other length.
void ExpectSameDecode(const std::vector<uint8_t>& stream, size_t len,
                      const std::string& what) {
  auto want = ReferenceDecompress(stream.data(), len);
  auto got = LzwDecompress(stream.data(), len);
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (!want.ok()) {
    ASSERT_EQ(got.status().ToString(), want.status().ToString()) << what;
    auto exact = LzwDecompressExact(stream.data(), len, 2048);
    ASSERT_EQ(exact.status().code(), StatusCode::kCorruption) << what;
    return;
  }
  ASSERT_EQ(*got, *want) << what;
  auto exact = LzwDecompressExact(stream.data(), len, want->size());
  ASSERT_TRUE(exact.ok()) << what << ": " << exact.status().ToString();
  ASSERT_EQ(*exact, *want) << what;
  for (size_t wrong : {want->size() - 1, want->size() + 1}) {
    if (wrong == std::numeric_limits<size_t>::max()) continue;  // empty
    exact = LzwDecompressExact(stream.data(), len, wrong);
    ASSERT_EQ(exact.status().code(), StatusCode::kCorruption)
        << what << ": expected size " << wrong;
  }
}

TEST(LzwDifferentialTest, CorpusStreamsDecodeLikeTheReference) {
  for (const CorpusEntry& e : Corpus()) {
    std::vector<uint8_t> packed = LzwCompress(e.data);
    ExpectSameDecode(packed, packed.size(), e.name);
    auto ref = ReferenceDecompress(packed.data(), packed.size());
    ASSERT_TRUE(ref.ok()) << e.name;
    EXPECT_EQ(*ref, e.data) << e.name;
  }
}

TEST(LzwAdversarialTest, BitFlipFuzzNeverCrashes) {
  // Every single-bit corruption and every truncation of a real compressed
  // tile must decode exactly as the reference decoder does: the same
  // Status, or the same (wrong) bytes, and never UB. The ASan/UBSan CI job
  // runs this test to enforce the "never UB" half.
  std::vector<uint8_t> tile;
  for (int i = 0; i < 4096; ++i) {
    tile.push_back(static_cast<uint8_t>((i / 7) % 200));
  }
  std::vector<uint8_t> packed = LzwCompress(tile);
  for (size_t pos = 0; pos < packed.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = packed;
      mutated[pos] ^= static_cast<uint8_t>(1u << bit);
      ExpectSameDecode(mutated, mutated.size(),
                       "flip " + std::to_string(pos) + ":" +
                           std::to_string(bit));
    }
  }
  for (size_t len = 0; len <= packed.size(); ++len) {
    ExpectSameDecode(packed, len, "truncate " + std::to_string(len));
  }
}

/// A random code sequence that tracks the decoder's next code so most
/// codes are valid, KwKwK (the code being defined) or just out of range,
/// with occasional CLEAR, early END, arbitrary 12-bit codes, and a
/// missing END. One sequence in 64 is long enough to fill the dictionary.
std::vector<uint32_t> RandomCodeSequence(Rng* rng) {
  const size_t n = rng->NextUint(64) == 0 ? 3800 + rng->NextUint(600)
                                          : 1 + rng->NextUint(120);
  std::vector<uint32_t> codes;
  uint32_t next_code = 258;
  bool after_clear = true;
  for (size_t i = 0; i < n; ++i) {
    uint64_t roll = rng->NextUint(1000);
    uint32_t code;
    if (roll < 700) {  // valid: a literal, or an entry already defined
      uint32_t defined = after_clear ? 0 : next_code - 258;
      uint64_t pick = rng->NextUint(256 + defined);
      code = static_cast<uint32_t>(pick < 256 ? pick : pick + 2);
    } else if (roll < 900) {  // KwKwK
      code = next_code;
    } else if (roll < 950) {  // just past the dictionary
      code = next_code + 1 + static_cast<uint32_t>(rng->NextUint(3));
    } else if (roll < 970) {
      code = 256;
    } else if (roll < 975) {
      code = 257;
    } else {
      code = static_cast<uint32_t>(rng->NextUint(4096));
    }
    code &= 0xfff;
    codes.push_back(code);
    if (code == 256) {
      next_code = 258;
      after_clear = true;
    } else if (code != 257) {
      if (!after_clear && next_code < 4096) ++next_code;
      after_clear = false;
    }
  }
  if (rng->NextUint(10) != 0) codes.push_back(257);
  return codes;
}

TEST(LzwDifferentialTest, RandomCodeSequencesDecodeLikeTheReference) {
  Rng rng(0xd1ff);
  for (int i = 0; i < 12000; ++i) {
    std::vector<uint8_t> stream = PackCodes(RandomCodeSequence(&rng));
    // Sometimes cut the stream mid-code or leave stray bytes after it.
    uint64_t tail = rng.NextUint(8);
    if (tail == 0 && !stream.empty()) stream.pop_back();
    if (tail == 1) stream.push_back(static_cast<uint8_t>(rng.Next()));
    ExpectSameDecode(stream, stream.size(), "sequence " + std::to_string(i));
  }
}

}  // namespace
}  // namespace paradise::codec
