#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "exec/expr.h"
#include "exec/operators.h"
#include "exec/tuple.h"
#include "exec/value.h"
#include "sim/cost_model.h"
#include "sim/node_clock.h"

namespace paradise::exec {
namespace {

using geom::Box;
using geom::Circle;
using geom::Point;
using geom::Polygon;
using geom::Polyline;

ExecContext NullCtx() { return ExecContext{}; }

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(Value(int64_t{5}).type(), ValueType::kInt);
  EXPECT_EQ(Value(2.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value(std::string("x")).type(), ValueType::kString);
  EXPECT_EQ(Value(Date::FromYmd(1988, 4, 1)).type(), ValueType::kDate);
  EXPECT_EQ(Value(Point{1, 2}).type(), ValueType::kPoint);
  EXPECT_EQ(Value(Polygon({{0, 0}, {1, 0}, {0, 1}})).type(),
            ValueType::kPolygon);
}

TEST(ValueTest, Compare) {
  EXPECT_LT(Value(int64_t{1}).Compare(Value(int64_t{2})), 0);
  EXPECT_EQ(Value(std::string("a")).Compare(Value(std::string("a"))), 0);
  EXPECT_GT(Value(Date::FromYmd(1990, 1, 1))
                .Compare(Value(Date::FromYmd(1988, 1, 1))),
            0);
}

TEST(ValueTest, SerializeRoundTripAllTypes) {
  std::vector<Value> values = {
      Value(),
      Value(int64_t{-42}),
      Value(3.25),
      Value(std::string("paradise")),
      Value(Date::FromYmd(1997, 5, 13)),
      Value(Point{1.5, -2.5}),
      Value(Box(0, 1, 2, 3)),
      Value(Circle(Point{0, 0}, 7)),
      Value(Polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}})),
      Value(Polyline({{0, 0}, {1, 1}, {2, 0}})),
  };
  for (const Value& v : values) {
    ByteBuffer buf;
    ByteWriter w(&buf);
    v.Serialize(&w);
    ByteReader r(buf);
    Value rt = Value::Deserialize(&r);
    EXPECT_EQ(rt.type(), v.type());
    EXPECT_TRUE(rt.Equals(v)) << v.ToString() << " vs " << rt.ToString();
  }
}

TEST(ValueTest, MbrOfSpatialValues) {
  EXPECT_EQ(Value(Point{3, 4}).Mbr(), Box(3, 4, 3, 4));
  EXPECT_EQ(Value(Polygon({{0, 0}, {4, 0}, {2, 5}})).Mbr(), Box(0, 0, 4, 5));
  EXPECT_EQ(Value(Circle(Point{0, 0}, 2)).Mbr(), Box(-2, -2, 2, 2));
}

TEST(ValueTest, SharedByReference) {
  Value poly(Polygon({{0, 0}, {100, 0}, {0, 100}}));
  Value copy = poly;  // shares
  EXPECT_EQ(copy.AsPolygon().get(), poly.AsPolygon().get());
  EXPECT_LT(copy.StorageBytes(/*deep=*/false), 32u);
  EXPECT_GT(copy.StorageBytes(/*deep=*/true), 48u);
}

TEST(TupleTest, SerializeRoundTrip) {
  Tuple t({Value(int64_t{1}), Value(std::string("two")), Value(Point{3, 4})});
  ByteBuffer buf;
  ByteWriter w(&buf);
  t.Serialize(&w);
  ByteReader r(buf);
  Tuple rt = Tuple::Deserialize(&r);
  ASSERT_EQ(rt.size(), 3u);
  EXPECT_TRUE(rt.at(0).Equals(t.at(0)));
  EXPECT_TRUE(rt.at(2).Equals(t.at(2)));
}

TEST(SchemaTest, Lookup) {
  Schema s({{"id", ValueType::kString}, {"shape", ValueType::kPolygon}});
  EXPECT_EQ(s.IndexOf("shape"), 1u);
  EXPECT_TRUE(s.Has("id"));
  EXPECT_FALSE(s.Has("nope"));
  Schema joined = Schema::Join(s, s);
  EXPECT_EQ(joined.num_columns(), 4u);
  EXPECT_EQ(joined.column(2).name, "r.id");
}

TEST(ExprTest, ComparisonsAndLogic) {
  ExecContext ctx = NullCtx();
  Tuple t({Value(int64_t{5}), Value(2.5), Value(std::string("abc"))});
  auto b = [&](ExprPtr e) {
    auto r = EvalPredicate(e, t, ctx);
    EXPECT_TRUE(r.ok());
    return *r;
  };
  EXPECT_TRUE(b(Cmp(CompareOp::kEq, Col(0), Lit(Value(int64_t{5})))));
  EXPECT_TRUE(b(Cmp(CompareOp::kLt, Col(1), Lit(Value(3.0)))));
  EXPECT_FALSE(b(Cmp(CompareOp::kGt, Col(1), Lit(Value(3.0)))));
  // Mixed int/double compares numerically.
  EXPECT_TRUE(b(Cmp(CompareOp::kGt, Col(0), Lit(Value(4.5)))));
  EXPECT_TRUE(b(And(Cmp(CompareOp::kEq, Col(0), Lit(Value(int64_t{5}))),
                    Cmp(CompareOp::kEq, Col(2), Lit(Value(std::string("abc")))))));
  EXPECT_TRUE(b(Or(Cmp(CompareOp::kEq, Col(0), Lit(Value(int64_t{9}))),
                   Cmp(CompareOp::kLe, Col(1), Lit(Value(2.5))))));
  EXPECT_TRUE(b(Not(Cmp(CompareOp::kEq, Col(0), Lit(Value(int64_t{9}))))));
}

TEST(ExprTest, SpatialOverlapsAndDistance) {
  ExecContext ctx = NullCtx();
  Polygon sq({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  Tuple t({Value(sq), Value(Point{5, 5}), Value(Polyline({{-5, 5}, {15, 5}}))});
  auto overlaps = Overlaps(Col(0), Col(2));
  auto r = EvalPredicate(overlaps, t, ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  auto contains = Overlaps(Col(0), Col(1));
  r = EvalPredicate(contains, t, ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  auto d = DistanceBetween(Col(1), Col(2))->Eval(t, ctx);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->AsDouble(), 0.0);
  auto within = WithinCircle(Col(0), Circle(Point{15, 5}, 6));
  r = EvalPredicate(within, t, ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  auto not_within = WithinCircle(Col(0), Circle(Point{15, 5}, 4));
  r = EvalPredicate(not_within, t, ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(ExprTest, AreaAndMakeBox) {
  ExecContext ctx = NullCtx();
  Tuple t({Value(Polygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}})),
           Value(Point{5, 5})});
  auto area = AreaOf(Col(0))->Eval(t, ctx);
  ASSERT_TRUE(area.ok());
  EXPECT_DOUBLE_EQ(area->AsDouble(), 100.0);
  auto box = MakeBoxAround(Col(1), 4.0)->Eval(t, ctx);
  ASSERT_TRUE(box.ok());
  EXPECT_EQ(box->AsBox(), Box(3, 3, 7, 7));
}

TEST(ExprTest, ErrorsPropagate) {
  ExecContext ctx = NullCtx();
  Tuple t({Value(int64_t{1})});
  EXPECT_FALSE(Col(5)->Eval(t, ctx).ok());
  EXPECT_FALSE(AreaOf(Col(0))->Eval(t, ctx).ok());
}

TupleVec MakeInts(std::vector<int64_t> v) {
  TupleVec out;
  for (int64_t x : v) out.push_back(Tuple({Value(x)}));
  return out;
}

TEST(OperatorTest, FilterAndProject) {
  ExecContext ctx = NullCtx();
  TupleVec in = MakeInts({1, 2, 3, 4, 5, 6});
  auto even =
      Filter(in, Cmp(CompareOp::kEq, Col(0), Lit(Value(int64_t{4}))), ctx);
  ASSERT_TRUE(even.ok());
  EXPECT_EQ(even->size(), 1u);
  auto proj = Project(in, {Col(0), Col(0)}, ctx);
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ((*proj)[0].size(), 2u);
}

TEST(OperatorTest, SortStableMultiKey) {
  ExecContext ctx = NullCtx();
  TupleVec in;
  in.push_back(Tuple({Value(int64_t{2}), Value(std::string("b"))}));
  in.push_back(Tuple({Value(int64_t{1}), Value(std::string("z"))}));
  in.push_back(Tuple({Value(int64_t{2}), Value(std::string("a"))}));
  SortTuples(&in, {{0, true}, {1, false}}, ctx);
  EXPECT_EQ(in[0].at(0).AsInt(), 1);
  EXPECT_EQ(in[1].at(1).AsString(), "b");  // desc secondary
  EXPECT_EQ(in[2].at(1).AsString(), "a");
}

// ---------- Filter step: what a scan reads off stored bytes ----------

ByteBuffer Serialized(const Value& v) {
  ByteBuffer buf;
  ByteWriter w(&buf);
  v.Serialize(&w);
  return buf;
}

ByteBuffer Serialized(const Tuple& t) {
  ByteBuffer buf;
  buf.reserve(128);
  ByteWriter w(&buf);
  t.Serialize(&w);
  return buf;
}

void ExpectSameBits(const Box& got, const Box& want) {
  auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
  EXPECT_EQ(bits(got.xmin), bits(want.xmin));
  EXPECT_EQ(bits(got.ymin), bits(want.ymin));
  EXPECT_EQ(bits(got.xmax), bits(want.xmax));
  EXPECT_EQ(bits(got.ymax), bits(want.ymax));
}

/// Point chains whose MBRs depend on the order the points fold in: signed
/// zeros (std::min keeps the first of -0.0 and 0.0) and NaNs (which no
/// comparison admits), plus empty and one-point chains.
std::vector<std::vector<Point>> AwkwardChains() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<Point>> chains = {
      {},
      {{1, 2}},
      {{-0.0, -0.0}},
      {{nan, nan}},
      {{nan, 3}},
      {{0.0, -0.0}, {-0.0, 0.0}},
      {{-0.0, 0.0}, {0.0, -0.0}},
      {{nan, 1}, {2, nan}},
      {{1, 1}, {nan, 5}, {-3, 2}},
      {{5, 5}, {5, 5}, {5, 5}},
      {{0, 0}, {4, 0}, {4, 4}, {0, 4}},
  };
  const double pool[] = {-0.0, 0.0, nan, 1.0, -1.0, 2.5, -7.25, 1e300};
  Rng rng(30);
  for (int i = 0; i < 300; ++i) {
    std::vector<Point> chain(rng.NextUint(7));
    for (Point& p : chain) {
      p.x = rng.NextBool(0.5) ? pool[rng.NextUint(8)] : rng.NextDouble(-9, 9);
      p.y = rng.NextBool(0.5) ? pool[rng.NextUint(8)] : rng.NextDouble(-9, 9);
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

TEST(StoredShapeTest, MatchesTheDecodedPolylineBitForBit) {
  for (const std::vector<Point>& chain : AwkwardChains()) {
    const Value v = Value(Polyline(chain));
    const ByteBuffer buf = Serialized(v);
    ByteReader r(buf.data(), buf.size());
    const std::optional<StoredShape> shape = Value::ReadStoredShape(&r);
    ASSERT_TRUE(shape.has_value()) << v.ToString();
    EXPECT_TRUE(r.AtEnd());
    ByteReader d(buf);
    const Value decoded = Value::Deserialize(&d);
    ExpectSameBits(shape->mbr, decoded.Mbr());
    EXPECT_EQ(shape->segments, SpatialSegmentCount(decoded)) << v.ToString();
  }
}

TEST(StoredShapeTest, OtherTypesAndTruncatedBytesAreUndecided) {
  for (const Value& v :
       {Value(), Value(int64_t{3}), Value(std::string("s")),
        Value(Point{1, 2}), Value(Box(0, 0, 1, 1)),
        Value(Circle(Point{0, 0}, 1)),
        Value(Polygon({{0, 0}, {1, 0}, {0, 1}}))}) {
    const ByteBuffer buf = Serialized(v);
    ByteReader r(buf.data(), buf.size());
    EXPECT_FALSE(Value::ReadStoredShape(&r).has_value()) << v.ToString();
  }
  const ByteBuffer buf = Serialized(Value(Polyline({{0, 0}, {1, 1}})));
  for (size_t len = 0; len < buf.size(); ++len) {
    ByteReader r(buf.data(), len);
    EXPECT_FALSE(Value::ReadStoredShape(&r).has_value()) << len;
    EXPECT_TRUE(r.failed()) << len;
  }
}

TEST(StoredShapeTest, SkipSerializedFailsWhereDeserializeDoes) {
  const std::vector<Value> values = {
      Value(),
      Value(int64_t{-42}),
      Value(3.25),
      Value(std::string("paradise")),
      Value(std::string()),
      Value(Date::FromYmd(1997, 5, 13)),
      Value(Point{1.5, -2.5}),
      Value(Box(0, 1, 2, 3)),
      Value(Circle(Point{0, 0}, 7)),
      Value(Polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}})),
      Value(Polyline({{0, 0}, {1, 1}, {2, 0}})),
      Value(Polyline(std::vector<Point>{})),
  };
  for (const Value& v : values) {
    const ByteBuffer buf = Serialized(v);
    ByteReader r(buf.data(), buf.size());
    EXPECT_TRUE(Value::SkipSerialized(&r)) << v.ToString();
    EXPECT_TRUE(r.AtEnd()) << v.ToString();
    for (size_t len = 0; len < buf.size(); ++len) {
      ByteReader cut(buf.data(), len);
      EXPECT_FALSE(Value::SkipSerialized(&cut)) << v.ToString() << " " << len;
      ByteReader full(buf.data(), len);
      Value::Deserialize(&full);
      EXPECT_TRUE(full.failed()) << v.ToString() << " " << len;
    }
  }
  const uint8_t unknown_tag[] = {0xee, 0, 0, 0, 0};
  ByteReader r(unknown_tag, sizeof(unknown_tag));
  EXPECT_FALSE(Value::SkipSerialized(&r));
  EXPECT_TRUE(r.failed());
  // A polyline claiming more points than the bytes hold fails before any
  // container is sized by the count.
  ByteBuffer huge = Serialized(Value(Polyline({{0, 0}, {1, 1}})));
  huge[1] = 0xff;
  huge[2] = 0xff;
  huge[3] = 0xff;
  huge[4] = 0x7f;
  ByteReader skip(huge.data(), huge.size());
  EXPECT_FALSE(Value::SkipSerialized(&skip));
  ByteReader decode(huge.data(), huge.size());
  Value::Deserialize(&decode);
  EXPECT_TRUE(decode.failed());
}

TEST(OverlapsFilterStepTest, RecognizesAColumnOverlappingALiteral) {
  const ExprPtr box = Lit(Value(Box(0, 0, 1, 1)));
  const ExprPtr cmp = Cmp(CompareOp::kGt, Col(0), Lit(Value(int64_t{3})));
  auto has_step = [](const ExprPtr& e) {
    return OverlapsFilterStep::Of(*e).has_value();
  };
  EXPECT_TRUE(has_step(Overlaps(Col(1), box)));
  EXPECT_TRUE(has_step(Overlaps(Col(1), Lit(Value(Circle(Point{0, 0}, 1))))));
  // Other forms take the full decode and Eval.
  EXPECT_FALSE(has_step(Overlaps(box, Col(1))));
  EXPECT_FALSE(has_step(And(Overlaps(Col(1), box), cmp)));
  EXPECT_FALSE(has_step(And(cmp, Overlaps(Col(1), box))));
  EXPECT_FALSE(has_step(Or(Overlaps(Col(1), box), cmp)));
  EXPECT_FALSE(has_step(Not(Overlaps(Col(1), box))));
  EXPECT_FALSE(has_step(Overlaps(Col(1), Col(2))));
  EXPECT_FALSE(has_step(Overlaps(box, box)));
  EXPECT_FALSE(has_step(Overlaps(Col(1), Lit(Value(int64_t{3})))));
  EXPECT_FALSE(has_step(WithinCircle(Col(1), Circle(Point{0, 0}, 1))));
  EXPECT_FALSE(has_step(cmp));
}

TEST(OverlapsFilterStepTest, RejectsOnlyAnMbrMissWithEvalsCharge) {
  const Tuple row({Value(int64_t{7}),
                   Value(Polyline({{0, 0}, {2, 1}, {3, 3}})),
                   Value(std::string("tail"))});
  const ByteBuffer stored = Serialized(row);
  struct Case {
    ExprPtr pred;
    bool rejected;
  };
  const Polygon far({{10, 10}, {12, 10}, {11, 12}});
  const std::vector<Case> cases = {
      {Overlaps(Col(1), Lit(Value(Box(5, 5, 6, 6)))), true},
      {Overlaps(Col(1), Lit(Value(far))), true},
      {Overlaps(Col(1), Lit(Value(Circle(Point{-3, -3}, 1)))), true},
      // Touching the MBR's corner is a hit for the prune.
      {Overlaps(Col(1), Lit(Value(Box(3, 3, 4, 4)))), false},
      // Inside the MBR but off the chain: Eval's exact test decides.
      {Overlaps(Col(1), Lit(Value(Box(2.5, 0, 2.9, 0.5)))), false},
      // An empty box meets nothing.
      {Overlaps(Col(1), Lit(Value(Box()))), true},
      // Column 3 is past the tuple's end: Eval reports the error.
      {Overlaps(Col(3), Lit(Value(Box(5, 5, 6, 6)))), false},
      // Column 0 is not a polyline.
      {Overlaps(Col(0), Lit(Value(Box(5, 5, 6, 6)))), false},
  };
  for (const Case& c : cases) {
    const std::optional<OverlapsFilterStep> step =
        OverlapsFilterStep::Of(*c.pred);
    ASSERT_TRUE(step.has_value());
    ByteReader r(stored.data(), stored.size());
    const std::optional<double> reject = step->RejectCharge(&r);
    EXPECT_EQ(reject.has_value(), c.rejected);
    if (!reject.has_value()) continue;
    sim::NodeClock clock;
    ExecContext ctx;
    ctx.clock = &clock;
    auto keep = EvalPredicate(c.pred, row, ctx);
    ASSERT_TRUE(keep.ok());
    EXPECT_FALSE(*keep);
    EXPECT_EQ(clock.phase_usage().cpu_ops, *reject);
  }
  // Bytes that end early anywhere in the tuple, even after the column,
  // leave the row to the full decode, which reports them.
  const std::optional<OverlapsFilterStep> step =
      OverlapsFilterStep::Of(*Overlaps(Col(1), Lit(Value(Box(5, 5, 6, 6)))));
  for (size_t len = 0; len < stored.size(); ++len) {
    ByteReader r(stored.data(), len);
    EXPECT_FALSE(step->RejectCharge(&r).has_value()) << len;
  }
}

}  // namespace
}  // namespace paradise::exec
