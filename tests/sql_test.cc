#include <gtest/gtest.h>

#include "common/rng.h"
#include "sql/engine.h"
#include "sql/lexer.h"

namespace paradise::sql {
namespace {

using core::ParallelTable;
using core::QueryCoordinator;
using exec::Tuple;
using exec::TupleVec;
using exec::Value;
using exec::ValueType;
using geom::Point;
using geom::Polygon;

TEST(LexerTest, TokenizesEverything) {
  auto tokens = Tokenize(
      "SELECT name, area(shape) FROM landCover "
      "WHERE type = 5 AND x <= -2.5 AND s <> 'it''" );
  // (The trailing quote makes it invalid; test the valid prefix instead.)
  auto ok = Tokenize("SELECT a.b, 42, -7, 2.5, 'str' (<= >= <> < > = * )");
  ASSERT_TRUE(ok.ok());
  std::vector<TokenType> types;
  for (const Token& t : *ok) types.push_back(t.type);
  EXPECT_EQ(types[0], TokenType::kIdentifier);  // select
  EXPECT_EQ((*ok)[0].text, "select");
  EXPECT_EQ(types[2], TokenType::kDot);
  EXPECT_EQ(types[5], TokenType::kInteger);
  EXPECT_EQ((*ok)[5].int_value, 42);
  EXPECT_EQ((*ok)[7].int_value, -7);
  EXPECT_EQ(types[9], TokenType::kFloat);
  EXPECT_EQ(types[11], TokenType::kString);
  EXPECT_EQ((*ok)[11].text, "str");
  (void)tokens;
}

TEST(LexerTest, RejectsBadInput) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("a # b").ok());
  // Number literals out of range or without digits.
  for (const char* sql : {"SELECT * FROM landCover WHERE type = "
                          "99999999999999999999",
                          "SELECT * FROM landCover WHERE type = -."}) {
    EXPECT_EQ(Tokenize(sql).status().code(), StatusCode::kInvalidArgument)
        << sql;
  }
}

class SqlTest : public ::testing::Test {
 protected:
  SqlTest() : cluster_(4, Options()) {
    Rng rng(3);
    TupleVec rows;
    for (int64_t i = 0; i < 2000; ++i) {
      double x = rng.NextDouble(-90, 90);
      double y = rng.NextDouble(-90, 90);
      rows.push_back(Tuple(
          {Value("f" + std::to_string(i)), Value(i % 10),
           Value(Date::FromYmd(1988, 1, 1).AddDays(static_cast<int32_t>(i % 300))),
           Value(Polygon({{x, y}, {x + 2, y}, {x + 2, y + 2}, {x, y + 2}}))}));
    }
    catalog::TableDef def;
    def.name = "landCover";
    def.schema = exec::Schema({{"id", ValueType::kString},
                               {"type", ValueType::kInt},
                               {"observed", ValueType::kDate},
                               {"shape", ValueType::kPolygon}});
    def.partitioning = catalog::PartitioningKind::kSpatial;
    def.partition_column = 3;
    def.universe = geom::Box(-100, -100, 100, 100);
    def.indexes = {catalog::IndexDef{"lc_id", 0, false},
                   catalog::IndexDef{"lc_shape", 3, true}};
    auto table = ParallelTable::Load(&cluster_, def, rows, 16);
    EXPECT_TRUE(table.ok());
    table_ = std::move(*table);
    engine_.Register(table_.get());
  }

  static core::Cluster::Options Options() {
    core::Cluster::Options o;
    o.buffer_pool_frames = 1024;
    return o;
  }

  TupleVec Run(const std::string& sql) {
    QueryCoordinator coord(&cluster_);
    auto rows = engine_.Execute(sql, &coord);
    EXPECT_TRUE(rows.ok()) << sql << "\n  -> " << rows.status().ToString();
    return rows.ok() ? *rows : TupleVec{};
  }

  core::Cluster cluster_;
  std::unique_ptr<ParallelTable> table_;
  SqlEngine engine_;
};

TEST_F(SqlTest, SelectStar) {
  EXPECT_EQ(Run("SELECT * FROM landCover").size(), 2000u);
}

TEST_F(SqlTest, UnknownTableAndColumnAreErrors) {
  QueryCoordinator coord(&cluster_);
  EXPECT_FALSE(engine_.Execute("SELECT * FROM nope", &coord).ok());
  EXPECT_FALSE(engine_.Execute("SELECT bogus FROM landCover", &coord).ok());
  EXPECT_FALSE(engine_.Execute("SELECT * landCover", &coord).ok());
}

TEST_F(SqlTest, StringEqualityGoesThroughBTree) {
  auto plan = engine_.Explain("SELECT * FROM landCover WHERE id = 'f77'");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("B+-tree"), std::string::npos) << *plan;
  TupleVec rows = Run("SELECT * FROM landCover WHERE id = 'f77'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at(0).AsString(), "f77");
}

TEST_F(SqlTest, IntFilterCountsMatch) {
  TupleVec rows = Run("SELECT * FROM landCover WHERE type = 3");
  EXPECT_EQ(rows.size(), 200u);
  rows = Run("SELECT * FROM landCover WHERE type = 3 AND type = 4");
  EXPECT_TRUE(rows.empty());
}

TEST_F(SqlTest, DateEqualityAndBetween) {
  TupleVec one_day =
      Run("SELECT * FROM landCover WHERE observed = DATE '1988-01-11'");
  EXPECT_EQ(one_day.size(), 7u);  // i % 300 == 10, i < 2000
  TupleVec range = Run(
      "SELECT * FROM landCover WHERE observed BETWEEN DATE '1988-01-01' AND "
      "DATE '1988-01-31'");
  size_t expected = 0;
  for (int64_t i = 0; i < 2000; ++i) {
    if (i % 300 <= 30) ++expected;
  }
  EXPECT_EQ(range.size(), expected);
}

TEST_F(SqlTest, SpatialOverlapsPolygonLiteral) {
  auto plan = engine_.Explain(
      "SELECT * FROM landCover WHERE shape OVERLAPS "
      "POLYGON((0 0, 12 0, 12 12, 0 12))");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("R*-tree"), std::string::npos) << *plan;
  TupleVec rows = Run(
      "SELECT * FROM landCover WHERE shape OVERLAPS "
      "POLYGON((0 0, 30 0, 30 30, 0 30))");
  // Cross-check by scanning.
  Polygon region({{0, 0}, {30, 0}, {30, 30}, {0, 30}});
  TupleVec all = Run("SELECT * FROM landCover");
  size_t expected = 0;
  for (const Tuple& t : all) {
    if (t.at(3).AsPolygon()->Intersects(region)) ++expected;
  }
  EXPECT_EQ(rows.size(), expected);
  EXPECT_GT(rows.size(), 0u);
}

TEST_F(SqlTest, CircleSelection) {
  TupleVec rows = Run(
      "SELECT * FROM landCover WHERE shape OVERLAPS CIRCLE(0 0, 15)");
  TupleVec all = Run("SELECT * FROM landCover");
  size_t expected = 0;
  for (const Tuple& t : all) {
    if (t.at(3).AsPolygon()->DistanceTo(Point{0, 0}) <= 15) ++expected;
  }
  EXPECT_EQ(rows.size(), expected);
}

TEST_F(SqlTest, ProjectionWithFunctions) {
  TupleVec rows = Run(
      "SELECT id, area(shape) FROM landCover WHERE type = 0 ORDER BY id");
  ASSERT_EQ(rows.size(), 200u);
  EXPECT_DOUBLE_EQ(rows[0].at(1).AsDouble(), 4.0);  // 2x2 squares
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].at(0).AsString(), rows[i].at(0).AsString());
  }
  // The sort key is the ORDER BY column's place in the select list.
  rows = Run(
      "SELECT area(shape), id FROM landCover WHERE type = 0 ORDER BY id DESC");
  ASSERT_EQ(rows.size(), 200u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].at(1).AsString(), rows[i].at(1).AsString());
  }
}

TEST_F(SqlTest, DistancePredicate) {
  TupleVec rows = Run(
      "SELECT id FROM landCover WHERE distance(POINT(0 0), shape) < 10");
  TupleVec all = Run("SELECT * FROM landCover");
  size_t expected = 0;
  for (const Tuple& t : all) {
    if (t.at(3).AsPolygon()->DistanceTo(Point{0, 0}) < 10) ++expected;
  }
  EXPECT_EQ(rows.size(), expected);
}

TEST_F(SqlTest, Aggregates) {
  TupleVec rows = Run("SELECT count(*), avg(area(shape)) FROM landCover");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at(0).AsInt(), 2000);
  EXPECT_NEAR(rows[0].at(1).AsDouble(), 4.0, 1e-9);
}

TEST_F(SqlTest, GroupByAggregates) {
  TupleVec rows = Run(
      "SELECT count(*), sum(area(shape)) FROM landCover GROUP BY type");
  ASSERT_EQ(rows.size(), 10u);
  for (const Tuple& t : rows) {
    EXPECT_EQ(t.at(1).AsInt(), 200);
    EXPECT_NEAR(t.at(2).AsDouble(), 800.0, 1e-6);
  }
}

TEST_F(SqlTest, GroupByOrderByDescending) {
  TupleVec rows =
      Run("SELECT count(*) FROM landCover GROUP BY type ORDER BY type DESC");
  ASSERT_EQ(rows.size(), 10u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].at(0).AsInt(), static_cast<int64_t>(9 - i));
    EXPECT_EQ(rows[i].at(1).AsInt(), 200);
  }
  auto plan = engine_.Explain(
      "SELECT count(*) FROM landCover GROUP BY type ORDER BY type DESC");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("sort at coordinator on column 0"), std::string::npos)
      << *plan;
}

TEST_F(SqlTest, ClosestAggregate) {
  TupleVec rows = Run(
      "SELECT closest(shape, POINT(0 0)) FROM landCover GROUP BY type");
  ASSERT_EQ(rows.size(), 10u);
  // Verify one group against brute force.
  TupleVec all = Run("SELECT * FROM landCover");
  double best = 1e300;
  for (const Tuple& t : all) {
    if (t.at(1).AsInt() != rows[0].at(0).AsInt()) continue;
    best = std::min(best, t.at(3).AsPolygon()->DistanceTo(Point{0, 0}));
  }
  EXPECT_NEAR(rows[0].at(2).AsDouble(), best, 1e-9);
}

TEST_F(SqlTest, BooleanConnectives) {
  TupleVec rows = Run(
      "SELECT * FROM landCover WHERE type = 1 AND "
      "(id = 'f1' OR id = 'f11' OR id = 'f2')");
  // f1 and f11 have type 1; f2 has type 2.
  EXPECT_EQ(rows.size(), 2u);
  rows = Run("SELECT * FROM landCover WHERE NOT type = 0");
  EXPECT_EQ(rows.size(), 1800u);
}

TEST_F(SqlTest, IllTypedStatementsAreInvalidArgument) {
  const char* const kStatements[] = {
      // BETWEEN bounds that do not match the column.
      "SELECT * FROM landCover WHERE type BETWEEN 'a' AND 'b'",
      "SELECT * FROM landCover WHERE type BETWEEN 1.5 AND 2.5",
      "SELECT * FROM landCover WHERE observed BETWEEN DATE '1988-01-01' "
      "AND 5",
      "SELECT * FROM landCover WHERE id BETWEEN 1 AND 5",
      // Comparisons of mismatched types.
      "SELECT * FROM landCover WHERE id = 5",
      "SELECT * FROM landCover WHERE type < 'a'",
      // OVERLAPS on a non-spatial operand.
      "SELECT * FROM landCover WHERE shape OVERLAPS 5",
      "SELECT * FROM landCover WHERE type OVERLAPS POLYGON((0 0, 1 0, 1 1))",
      // Aggregates over the wrong type.
      "SELECT sum(id) FROM landCover",
      "SELECT avg(shape) FROM landCover",
      "SELECT min(shape) FROM landCover",
      // Sort and group keys that cannot be ordered.
      "SELECT * FROM landCover ORDER BY shape",
      "SELECT count(*) FROM landCover GROUP BY shape",
      // A sort key the projection drops.
      "SELECT id FROM landCover ORDER BY type",
      // An aggregate's sort key other than its GROUP BY column.
      "SELECT count(*) FROM landCover GROUP BY type ORDER BY observed",
      "SELECT count(*) FROM landCover ORDER BY type",
  };
  for (const char* sql : kStatements) {
    QueryCoordinator coord(&cluster_);
    auto rows = engine_.Execute(sql, &coord);
    EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument) << sql;
  }
}

TEST_F(SqlTest, BenchmarkStyleStatements) {
  // Query-6 shape: spatial selection.
  EXPECT_GT(Run("SELECT * FROM landCover WHERE shape OVERLAPS "
                "POLYGON((-50 -50, 50 -50, 50 50, -50 50))")
                .size(),
            0u);
  // Query-7 shape: circle + computed predicate.
  TupleVec q7 = Run(
      "SELECT area(shape), type FROM landCover WHERE shape OVERLAPS "
      "CIRCLE(0 0, 20) AND area(shape) < 5.0");
  for (const Tuple& t : q7) EXPECT_LT(t.at(0).AsDouble(), 5.0);
  // Query-11 shape: closest per type group.
  EXPECT_EQ(Run("SELECT closest(shape, POINT(-89.4 43.07)) FROM landCover "
                "GROUP BY type")
                .size(),
            10u);
}

}  // namespace
}  // namespace paradise::sql
