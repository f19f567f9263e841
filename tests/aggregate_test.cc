#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/aggregate.h"

namespace paradise::exec {
namespace {

using geom::Point;
using geom::Polyline;

ExecContext NullCtx() { return ExecContext{}; }

TupleVec MakeGroups(Rng* rng, int n, int64_t groups) {
  TupleVec out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Tuple({Value(rng->NextInt(0, groups - 1)),
                         Value(rng->NextDouble(0, 100))}));
  }
  return out;
}

TEST(AggregateTest, CountSumAvgMinMax) {
  ExecContext ctx = NullCtx();
  TupleVec in;
  for (int i = 1; i <= 10; ++i) {
    in.push_back(Tuple({Value(int64_t{0}), Value(static_cast<double>(i))}));
  }
  std::vector<AggregatePtr> aggs = {MakeCount(), MakeSum(Col(1)),
                                    MakeAvg(Col(1)), MakeMin(Col(1)),
                                    MakeMax(Col(1))};
  auto partials = AggregateLocal(in, {0}, aggs, ctx);
  ASSERT_TRUE(partials.ok());
  auto result = AggregateGlobal(*partials, 1, aggs, ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  const Tuple& t = (*result)[0];
  EXPECT_EQ(t.at(1).AsInt(), 10);          // count
  EXPECT_DOUBLE_EQ(t.at(2).AsDouble(), 55);  // sum
  EXPECT_DOUBLE_EQ(t.at(3).AsDouble(), 5.5); // avg
  EXPECT_DOUBLE_EQ(t.at(4).AsDouble(), 1);   // min
  EXPECT_DOUBLE_EQ(t.at(5).AsDouble(), 10);  // max
}

TEST(AggregateTest, TwoPhaseEqualsSinglePhase) {
  // The defining property of local/global decomposition: partitioning the
  // input arbitrarily and merging partials gives the same answer as one
  // big local pass.
  ExecContext ctx = NullCtx();
  Rng rng(17);
  TupleVec in = MakeGroups(&rng, 2000, 7);
  std::vector<AggregatePtr> aggs = {MakeCount(), MakeSum(Col(1)),
                                    MakeAvg(Col(1)), MakeMin(Col(1)),
                                    MakeMax(Col(1))};
  // Single "node".
  auto p_all = AggregateLocal(in, {0}, aggs, ctx);
  ASSERT_TRUE(p_all.ok());
  auto single = AggregateGlobal(*p_all, 1, aggs, ctx);
  ASSERT_TRUE(single.ok());
  // Split across 5 "nodes".
  std::vector<TupleVec> parts(5);
  for (size_t i = 0; i < in.size(); ++i) parts[i % 5].push_back(in[i]);
  TupleVec partials;
  for (const TupleVec& part : parts) {
    auto p = AggregateLocal(part, {0}, aggs, ctx);
    ASSERT_TRUE(p.ok());
    partials.insert(partials.end(), p->begin(), p->end());
  }
  auto merged = AggregateGlobal(partials, 1, aggs, ctx);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->size(), single->size());
  for (size_t i = 0; i < merged->size(); ++i) {
    for (size_t c = 0; c < (*merged)[i].size(); ++c) {
      const Value& a = (*merged)[i].at(c);
      const Value& b = (*single)[i].at(c);
      if (a.type() == ValueType::kDouble) {
        EXPECT_NEAR(a.AsDouble(), b.AsDouble(), 1e-9);
      } else {
        EXPECT_TRUE(a.Equals(b));
      }
    }
  }
}

TEST(AggregateTest, ClosestFindsMinimumDistance) {
  ExecContext ctx = NullCtx();
  Point q{0, 0};
  TupleVec in;
  in.push_back(Tuple({Value(int64_t{0}), Value(Polyline({{10, 0}, {10, 10}}))}));
  in.push_back(Tuple({Value(int64_t{0}), Value(Polyline({{3, 4}, {5, 8}}))}));
  in.push_back(Tuple({Value(int64_t{0}), Value(Polyline({{-7, 0}, {-7, 2}}))}));
  std::vector<AggregatePtr> aggs = {MakeClosest(Col(1), q)};
  auto partials = AggregateLocal(in, {0}, aggs, ctx);
  ASSERT_TRUE(partials.ok());
  auto result = AggregateGlobal(*partials, 1, aggs, ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  // Columns: [group, shape, distance]; the (3,4) chain is at distance 5.
  EXPECT_DOUBLE_EQ((*result)[0].at(2).AsDouble(), 5.0);
}

TEST(AggregateTest, ClosestStateSurvivesMarshalling) {
  // Closest partials are shipped between nodes as plain values; exercise
  // the save/load path against brute force.
  ExecContext ctx = NullCtx();
  Rng rng(5);
  Point q{0, 0};
  TupleVec in;
  double best = 1e300;
  for (int i = 0; i < 300; ++i) {
    Point a{rng.NextDouble(-50, 50), rng.NextDouble(-50, 50)};
    Point b{a.x + rng.NextDouble(-5, 5), a.y + rng.NextDouble(-5, 5)};
    Polyline line({a, b});
    best = std::min(best, line.DistanceTo(q));
    in.push_back(Tuple({Value(int64_t{i % 4}), Value(std::move(line))}));
  }
  std::vector<AggregatePtr> aggs = {MakeClosest(Col(1), q)};
  std::vector<TupleVec> parts(3);
  for (size_t i = 0; i < in.size(); ++i) parts[i % 3].push_back(in[i]);
  TupleVec partials;
  for (const TupleVec& p : parts) {
    auto r = AggregateLocal(p, {0}, aggs, ctx);
    ASSERT_TRUE(r.ok());
    partials.insert(partials.end(), r->begin(), r->end());
  }
  auto result = AggregateGlobal(partials, 1, aggs, ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 4u);  // one row per type group
  double min_over_groups = 1e300;
  for (const Tuple& t : *result) {
    min_over_groups = std::min(min_over_groups, t.at(2).AsDouble());
  }
  EXPECT_DOUBLE_EQ(min_over_groups, best);
}

TEST(AggregateTest, EmptyInputProducesNoGroups) {
  ExecContext ctx = NullCtx();
  std::vector<AggregatePtr> aggs = {MakeCount()};
  auto partials = AggregateLocal({}, {0}, aggs, ctx);
  ASSERT_TRUE(partials.ok());
  EXPECT_TRUE(partials->empty());
  auto result = AggregateGlobal(*partials, 1, aggs, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(AggregateTest, GroupByPointKeys) {
  // Query 12 groups by city location (a point).
  ExecContext ctx = NullCtx();
  TupleVec in;
  in.push_back(Tuple({Value(Point{1, 1}), Value(1.0)}));
  in.push_back(Tuple({Value(Point{1, 1}), Value(3.0)}));
  in.push_back(Tuple({Value(Point{2, 2}), Value(5.0)}));
  std::vector<AggregatePtr> aggs = {MakeMin(Col(1))};
  auto partials = AggregateLocal(in, {0}, aggs, ctx);
  ASSERT_TRUE(partials.ok());
  auto result = AggregateGlobal(*partials, 1, aggs, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

}  // namespace
}  // namespace paradise::exec
