#include <gtest/gtest.h>

#include <set>

#include "common/bytes.h"
#include "common/date.h"
#include "common/rng.h"
#include "common/status.h"

namespace paradise {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::NotFound("thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: thing");
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

TEST(StatusOrTest, ValueAndError) {
  StatusOr<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  StatusOr<int> bad(Status::Internal("boom"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInternal);
}

TEST(StatusOrTest, MoveOnlyPayloads) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = std::move(v).value();
  EXPECT_EQ(*taken, 7);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

StatusOr<int> Quarter(int x) {
  PARADISE_ASSIGN_OR_RETURN(int h, Half(x));
  PARADISE_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  auto q = Quarter(12);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q, 3);
  EXPECT_FALSE(Quarter(10).ok());  // 10/2 = 5 is odd
}

TEST(DateTest, RoundTripYmd) {
  for (int year : {1970, 1986, 1988, 1996, 2000, 2026}) {
    for (int month : {1, 2, 6, 12}) {
      for (int day : {1, 15, 28}) {
        Date d = Date::FromYmd(year, month, day);
        Date::Ymd ymd = d.ToYmd();
        EXPECT_EQ(ymd.year, year);
        EXPECT_EQ(ymd.month, month);
        EXPECT_EQ(ymd.day, day);
      }
    }
  }
}

TEST(DateTest, EpochAndArithmetic) {
  EXPECT_EQ(Date::FromYmd(1970, 1, 1).days_since_epoch(), 0);
  EXPECT_EQ(Date::FromYmd(1970, 1, 2).days_since_epoch(), 1);
  EXPECT_EQ(Date::FromYmd(1969, 12, 31).days_since_epoch(), -1);
  Date d = Date::FromYmd(1988, 2, 28);
  EXPECT_EQ(d.AddDays(1).ToString(), "1988-02-29");  // leap year
  EXPECT_EQ(d.AddDays(2).ToString(), "1988-03-01");
  EXPECT_EQ(Date::FromYmd(1900, 2, 28).AddDays(1).ToString(),
            "1900-03-01");  // 1900 was not a leap year
}

TEST(DateTest, ParseAndToString) {
  auto d = Date::Parse("1988-04-01");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->ToString(), "1988-04-01");
  EXPECT_EQ(d->year(), 1988);
  EXPECT_FALSE(Date::Parse("not-a-date").ok());
  EXPECT_FALSE(Date::Parse("1988-13-01").ok());
  EXPECT_FALSE(Date::Parse("1988-02-40").ok());
}

TEST(DateTest, Ordering) {
  EXPECT_LT(Date::FromYmd(1988, 4, 1), Date::FromYmd(1988, 4, 2));
  EXPECT_LT(Date::FromYmd(1987, 12, 31), Date::FromYmd(1988, 1, 1));
  EXPECT_EQ(Date::FromYmd(1988, 4, 1), Date::FromYmd(1988, 4, 1));
}

TEST(RngTest, DeterministicAndSeedSensitive) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
    EXPECT_LT(rng.NextUint(10), 10u);
  }
}

TEST(RngTest, RoughUniformity) {
  Rng rng(99);
  int buckets[10] = {0};
  for (int i = 0; i < 100000; ++i) {
    ++buckets[rng.NextUint(10)];
  }
  for (int b : buckets) {
    EXPECT_GT(b, 9000);
    EXPECT_LT(b, 11000);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  double sum = 0, sum2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(BytesTest, WriterReaderRoundTrip) {
  ByteBuffer buf;
  ByteWriter w(&buf);
  w.PutU8(0xab);
  w.PutU16(0x1234);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI32(-77);
  w.PutI64(-1LL << 40);
  w.PutDouble(3.25);
  w.PutString("paradise");
  w.PutBytes("xy", 2);

  ByteReader r(buf);
  EXPECT_EQ(r.GetU8(), 0xab);
  EXPECT_EQ(r.GetU16(), 0x1234);
  EXPECT_EQ(r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.GetI32(), -77);
  EXPECT_EQ(r.GetI64(), -1LL << 40);
  EXPECT_DOUBLE_EQ(r.GetDouble(), 3.25);
  EXPECT_EQ(r.GetString(), "paradise");
  ByteBuffer blob = r.GetBlob();
  EXPECT_EQ(std::string(blob.begin(), blob.end()), "xy");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, ReaderRecordsAnOverrunInsteadOfAborting) {
  ByteBuffer buf;
  ByteWriter w(&buf);
  w.PutU32(7);
  w.PutString("ab");
  ByteReader r(buf.data(), buf.size());
  EXPECT_EQ(r.GetU32(), 7u);
  EXPECT_EQ(r.GetString(), "ab");
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.GetU64(), 0u);  // past the end: zero, and failed
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.GetU8(), 0u);
  EXPECT_FALSE(r.Skip(0));

  // A length prefix that runs past the end yields nothing.
  ByteBuffer cut;
  ByteWriter cw(&cut);
  cw.PutU32(100);
  cw.PutRaw("abc", 3);
  ByteReader s(cut.data(), cut.size());
  EXPECT_EQ(s.GetString(), "");
  EXPECT_TRUE(s.failed());
  ByteReader b(cut.data(), cut.size());
  EXPECT_TRUE(b.GetBlob().empty());
  EXPECT_TRUE(b.failed());
}

TEST(BytesTest, FitsBoundsAStoredCountByTheBytesLeft) {
  const uint8_t bytes[10] = {};
  ByteReader r(bytes, sizeof(bytes));
  EXPECT_TRUE(r.Fits(2, 5));
  EXPECT_TRUE(r.Fits(0, 16));
  EXPECT_FALSE(r.failed());
  EXPECT_FALSE(r.Fits(0xffffffffu, 16));
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.remaining(), 0u);

  ByteReader t(bytes, sizeof(bytes));
  t.Fail();
  EXPECT_TRUE(t.failed());
  EXPECT_FALSE(t.Fits(0, 1));
}

TEST(BytesTest, PositionTracking) {
  ByteBuffer buf;
  ByteWriter w(&buf);
  w.PutU32(1);
  w.PutU32(2);
  ByteReader r(buf);
  EXPECT_EQ(r.remaining(), 8u);
  r.GetU32();
  EXPECT_EQ(r.position(), 4u);
  EXPECT_EQ(r.remaining(), 4u);
}

}  // namespace
}  // namespace paradise
