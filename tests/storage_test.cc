#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <span>
#include <vector>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/disk_volume.h"
#include "storage/heap_file.h"
#include "storage/large_object.h"
#include "storage/slotted_page.h"

namespace paradise::storage {
namespace {

ByteBuffer MakeRecord(const std::string& s) {
  return ByteBuffer(s.begin(), s.end());
}

TEST(DiskVolumeTest, AllocateReadWrite) {
  sim::NodeClock clock;
  DiskVolume vol(0, &clock);
  PageNo p0 = vol.AllocatePage();
  PageNo p1 = vol.AllocatePage();
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);
  Page page;
  page.payload()[0] = 0xab;
  const Page* pages[] = {&page};
  ASSERT_TRUE(vol.WriteRun(p0, 1, pages).ok());
  Page read;
  Page* outs[] = {&read};
  Status st;
  ASSERT_TRUE(vol.ReadRun(p0, 1, outs, &st).ok());
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(read.payload()[0], 0xab);
  EXPECT_FALSE(vol.ReadRun(999, 1, outs, &st).ok());
}

TEST(DiskVolumeTest, SequentialVsRandomCharging) {
  sim::NodeClock clock;
  DiskVolume vol(0, &clock);
  PageNo first = vol.AllocateRun(100);
  Page page;
  Page* outs[] = {&page};
  Status st;
  // Sequential pass of one-page runs: 1 seek + 100 transfers.
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(vol.ReadRun(first + i, 1, outs, &st).ok());
  }
  sim::ResourceUsage seq = clock.EndPhase();
  EXPECT_EQ(seq.disk_seeks, 1);
  EXPECT_EQ(seq.disk_bytes_read, 100 * static_cast<int64_t>(kPageSize));
  // Random pass: one seek per page.
  for (uint32_t i = 0; i < 100; i += 2) {
    ASSERT_TRUE(vol.ReadRun(first + (99 - i), 1, outs, &st).ok());
  }
  sim::ResourceUsage random = clock.EndPhase();
  EXPECT_EQ(random.disk_seeks, 50);
}

// ---------- Page checksum ----------

/// A stamped page with a distinct pattern in the LSN and every payload
/// byte. Its stamp is neither 0 nor 1, so the 0 -> 1 remap cannot merge
/// it with the sum of a one-word change and detection below is exact.
Page PatternedStampedPage() {
  Page page;
  page.set_lsn(0x0123456789abcdefULL);
  for (size_t i = 0; i < Page::kPayloadSize; ++i) {
    page.payload()[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  page.StampChecksum();
  return page;
}

TEST(PageChecksumTest, EverySingleBitFlipInLsnAndPayloadIsCaught) {
  Page page = PatternedStampedPage();
  ASSERT_TRUE(page.VerifyChecksum());
  ASSERT_GT(page.stored_checksum(), 1u);
  std::vector<size_t> covered;
  for (size_t i = 0; i < Page::kChecksumOffset; ++i) covered.push_back(i);
  for (size_t i = Page::kHeaderSize; i < kPageSize; ++i) covered.push_back(i);
  int64_t escaped = 0;
  for (size_t byte : covered) {
    for (int bit = 0; bit < 8; ++bit) {
      page.data()[byte] ^= static_cast<uint8_t>(1u << bit);
      if (page.VerifyChecksum()) {
        ADD_FAILURE() << "flip of byte " << byte << " bit " << bit
                      << " verified";
        ++escaped;
      }
      page.data()[byte] ^= static_cast<uint8_t>(1u << bit);
    }
    if (escaped > 10) break;
  }
  EXPECT_EQ(escaped, 0);
  EXPECT_TRUE(page.VerifyChecksum());
}

TEST(PageChecksumTest, AnyOneReplacedPayloadWordIsCaught) {
  Page page = PatternedStampedPage();
  ASSERT_GT(page.stored_checksum(), 1u);
  constexpr size_t kWords = Page::kPayloadSize / 4;
  Rng rng(/*seed=*/20261017);
  std::vector<size_t> positions = {0, 1, 31, 32, kWords - 1};
  while (positions.size() < 400) positions.push_back(rng.NextUint(kWords));
  for (size_t w : positions) {
    uint8_t* word = page.payload() + 4 * w;
    uint32_t original;
    std::memcpy(&original, word, 4);
    // Single-bit-apart, byte-rotated, all-zero, all-one and random values.
    std::vector<uint32_t> values = {original ^ 0x80000000u,
                                    std::rotl(original, 8), 0u, 0xffffffffu};
    for (int k = 0; k < 8; ++k) {
      values.push_back(static_cast<uint32_t>(rng.Next()));
    }
    for (uint32_t v : values) {
      if (v == original) continue;
      std::memcpy(word, &v, 4);
      EXPECT_FALSE(page.VerifyChecksum())
          << "payload word " << w << " set to " << v << " verified";
    }
    std::memcpy(word, &original, 4);
  }
  EXPECT_TRUE(page.VerifyChecksum());
}

TEST(PageChecksumTest, PadBytesAreNotCovered) {
  Page page = PatternedStampedPage();
  const uint32_t stamp = page.stored_checksum();
  // Flips accumulate: any pad content verifies against the same stamp.
  for (size_t byte = Page::kChecksumOffset + 4; byte < Page::kHeaderSize;
       ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      page.data()[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_TRUE(page.VerifyChecksum()) << "pad byte " << byte;
      EXPECT_EQ(page.ComputeChecksum(), stamp);
    }
  }
}

TEST(PageChecksumTest, ZeroPageVerifiesUnstampedAndIsGuardedOnceStamped) {
  Page page;
  EXPECT_EQ(page.stored_checksum(), 0u);
  EXPECT_TRUE(page.VerifyChecksum());
  // An all-zero page still gets a nonzero stamp, which then guards it.
  EXPECT_NE(page.ComputeChecksum(), 0u);
  page.StampChecksum();
  EXPECT_TRUE(page.VerifyChecksum());
  page.payload()[100] = 1;
  EXPECT_FALSE(page.VerifyChecksum());
}

TEST(SlottedPageTest, InsertDeleteCompact) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  std::string big(1000, 'x');
  std::vector<int> slots;
  while (true) {
    int s = sp.InsertRecord(reinterpret_cast<const uint8_t*>(big.data()),
                            static_cast<uint16_t>(big.size()));
    if (s < 0) break;
    slots.push_back(s);
  }
  EXPECT_EQ(slots.size(), 8u);  // 8184 payload / ~1004 per record
  // Delete every other record, then a new insert must trigger compaction.
  for (size_t i = 0; i < slots.size(); i += 2) {
    sp.DeleteRecord(static_cast<uint16_t>(slots[i]));
  }
  std::string big2(3000, 'y');
  int s = sp.InsertRecord(reinterpret_cast<const uint8_t*>(big2.data()),
                          static_cast<uint16_t>(big2.size()));
  ASSERT_GE(s, 0);
  auto record_at = [&sp](int slot) {
    std::span<const uint8_t> record;
    EXPECT_EQ(sp.Find(static_cast<uint16_t>(slot), &record),
              SlottedPage::Lookup::kLive);
    return std::string(record.begin(), record.end());
  };
  EXPECT_EQ(record_at(s), big2);
  // Survivors intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    EXPECT_EQ(record_at(slots[i]), big);
  }
}

TEST(BufferPoolTest, HitMissEviction) {
  sim::NodeClock clock;
  DiskVolume vol(0, &clock);
  BufferPool pool(4);
  pool.AttachVolume(&vol);
  std::vector<PageNo> pages;
  for (int i = 0; i < 8; ++i) {
    auto guard = pool.NewPage(0);
    ASSERT_TRUE(guard.ok());
    guard->page()->payload()[0] = static_cast<uint8_t>(i);
    guard->MarkDirty();
    pages.push_back(guard->id().page_no);
  }
  // All 8 pages written; only 4 frames — evictions flushed dirty pages.
  EXPECT_GE(pool.stats().evictions, 4);
  // Re-read the first page: must come from disk with its data intact.
  auto guard = pool.Pin(PageId{0, pages[0]});
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->page()->payload()[0], 0);
  // Pin it again: hit.
  int64_t misses = pool.stats().misses;
  auto guard2 = pool.Pin(PageId{0, pages[0]});
  ASSERT_TRUE(guard2.ok());
  EXPECT_EQ(pool.stats().misses, misses);
}

TEST(BufferPoolTest, AllPinnedExhaustion) {
  DiskVolume vol(0, nullptr);
  BufferPool pool(2);
  pool.AttachVolume(&vol);
  auto g1 = pool.NewPage(0);
  auto g2 = pool.NewPage(0);
  ASSERT_TRUE(g1.ok() && g2.ok());
  auto g3 = pool.NewPage(0);
  EXPECT_FALSE(g3.ok());
  EXPECT_EQ(g3.status().code(), StatusCode::kResourceExhausted);
  g1->Release();
  auto g4 = pool.NewPage(0);
  EXPECT_TRUE(g4.ok());
}

TEST(BufferPoolTest, DiscardLosesUnflushed) {
  DiskVolume vol(0, nullptr);
  BufferPool pool(8);
  pool.AttachVolume(&vol);
  PageNo page_no;
  {
    auto guard = pool.NewPage(0);
    ASSERT_TRUE(guard.ok());
    guard->page()->payload()[0] = 0x77;
    guard->MarkDirty();
    page_no = guard->id().page_no;
  }
  pool.DiscardAll();  // crash: nothing flushed
  auto guard = pool.Pin(PageId{0, page_no});
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->page()->payload()[0], 0);  // lost
}

TEST(BufferPoolTest, FlushMakesDurable) {
  DiskVolume vol(0, nullptr);
  BufferPool pool(8);
  pool.AttachVolume(&vol);
  PageNo page_no;
  {
    auto guard = pool.NewPage(0);
    ASSERT_TRUE(guard.ok());
    guard->page()->payload()[0] = 0x77;
    guard->MarkDirty();
    page_no = guard->id().page_no;
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  pool.DiscardAll();
  auto guard = pool.Pin(PageId{0, page_no});
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->page()->payload()[0], 0x77);
}

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest()
      : vol_(0, nullptr), pool_(64), file_(1, &pool_, 0) {
    pool_.AttachVolume(&vol_);
  }
  /// Records a full scan of the file visits.
  int64_t ScannedRecords() const {
    int64_t n = 0;
    auto it = file_.NewIterator();
    Oid oid;
    std::span<const uint8_t> rec;
    while (it.Next(&oid, &rec)) ++n;
    EXPECT_TRUE(it.status().ok()) << it.status().ToString();
    return n;
  }

  DiskVolume vol_;
  BufferPool pool_;
  HeapFile file_;
};

TEST_F(HeapFileTest, InsertGetDelete) {
  auto oid = file_.Insert(MakeRecord("hello"));
  ASSERT_TRUE(oid.ok());
  auto rec = file_.Get(*oid);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(std::string(rec->begin(), rec->end()), "hello");
  ASSERT_TRUE(file_.Delete(*oid).ok());
  EXPECT_FALSE(file_.Get(*oid).ok());
  EXPECT_EQ(ScannedRecords(), 0);
}

TEST_F(HeapFileTest, ManyRecordsSpanPages) {
  std::vector<Oid> oids;
  for (int i = 0; i < 5000; ++i) {
    auto oid = file_.Insert(MakeRecord("record-" + std::to_string(i)));
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  EXPECT_GT(file_.num_pages(), 5u);
  EXPECT_EQ(ScannedRecords(), 5000);
  for (int i = 0; i < 5000; i += 97) {
    auto rec = file_.Get(oids[static_cast<size_t>(i)]);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(std::string(rec->begin(), rec->end()),
              "record-" + std::to_string(i));
  }
}

TEST_F(HeapFileTest, ScanVisitsEverything) {
  std::set<std::string> inserted;
  for (int i = 0; i < 1000; ++i) {
    std::string s = "row-" + std::to_string(i);
    ASSERT_TRUE(file_.Insert(MakeRecord(s)).ok());
    inserted.insert(s);
  }
  std::set<std::string> seen;
  auto it = file_.NewIterator();
  Oid oid;
  std::span<const uint8_t> rec;
  while (it.Next(&oid, &rec)) seen.insert(std::string(rec.begin(), rec.end()));
  EXPECT_EQ(seen, inserted);
}

TEST_F(HeapFileTest, UpdateInPlace) {
  auto oid = file_.Insert(MakeRecord("aaaa"));
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(file_.Update(*oid, MakeRecord("bbbb")).ok());
  auto rec = file_.Get(*oid);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(std::string(rec->begin(), rec->end()), "bbbb");
  // Different size is rejected.
  EXPECT_FALSE(file_.Update(*oid, MakeRecord("ccc")).ok());
}

TEST_F(HeapFileTest, RejectOversizeRecord) {
  ByteBuffer big(HeapFile::MaxRecordSize() + 1, 0);
  EXPECT_FALSE(file_.Insert(big).ok());
  ByteBuffer max(HeapFile::MaxRecordSize(), 7);
  EXPECT_TRUE(file_.Insert(max).ok());
}

TEST_F(HeapFileTest, DeleteFreesSlotForReuse) {
  auto a = file_.Insert(MakeRecord("one"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(file_.Delete(*a).ok());
  auto b = file_.Insert(MakeRecord("two"));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->page, b->page);
  EXPECT_EQ(a->slot, b->slot);  // slot reused
}

TEST(LargeObjectTest, WriteReadRange) {
  sim::NodeClock clock;
  DiskVolume vol(0, &clock);
  BufferPool pool(256);
  pool.AttachVolume(&vol);
  LargeObjectStore store(&pool, &vol);
  Rng rng(11);
  ByteBuffer data(100000);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  auto id = store.Write(data);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id->length, 100000u);
  EXPECT_EQ(id->num_pages, (100000 + Page::kPayloadSize - 1) / Page::kPayloadSize);
  auto all = store.Read(*id);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, data);
  // Range read crossing page boundaries.
  auto range = store.ReadRange(*id, 8000, 10000);
  ASSERT_TRUE(range.ok());
  EXPECT_TRUE(std::equal(range->begin(), range->end(), data.begin() + 8000));
  // Past-the-end rejected.
  EXPECT_FALSE(store.ReadRange(*id, 99999, 10).ok());
}

TEST(LargeObjectTest, RangeReadTouchesOnlyNeededPages) {
  sim::NodeClock clock;
  DiskVolume vol(0, &clock);
  BufferPool pool(256);
  pool.AttachVolume(&vol);
  LargeObjectStore store(&pool, &vol);
  ByteBuffer data(40 * Page::kPayloadSize, 0x5a);
  auto id = store.Write(data);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  pool.DiscardAll();
  clock.Reset();
  auto range = store.ReadRange(*id, Page::kPayloadSize * 3, Page::kPayloadSize);
  ASSERT_TRUE(range.ok());
  sim::ResourceUsage u = clock.EndPhase();
  EXPECT_EQ(u.disk_bytes_read, static_cast<int64_t>(kPageSize));
}

}  // namespace
}  // namespace paradise::storage
