#include <gtest/gtest.h>

#include "exec/expr.h"
#include "exec/operators.h"
#include "exec/tuple.h"
#include "exec/value.h"

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

}  // namespace
}  // namespace paradise::exec
