#include "sql/engine.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "sql/lexer.h"

namespace paradise::sql {

using core::Query;
using exec::CompareOp;
using exec::ExprPtr;
using exec::IsSpatial;
using exec::Value;
using exec::ValueType;
using geom::Point;

namespace {

/// A bound expression with the type it evaluates to. Every expression the
/// dialect can build has a static type (a column's schema type, a
/// literal's, or an operator's fixed result type), so operand types are
/// checked while binding and evaluation never meets a mismatch.
struct Bound {
  ExprPtr expr;
  ValueType type;
  std::optional<size_t> column = std::nullopt;  // a bare column reference
};

bool IsNumeric(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kDouble;
}

/// Types Value::Compare orders: sort and group keys, min/max inputs.
bool IsOrdered(ValueType t) {
  return IsNumeric(t) || t == ValueType::kString || t == ValueType::kDate ||
         t == ValueType::kPoint;
}

/// Comparison operands: two numbers (ints and doubles mix), or two values
/// of one ordered type.
bool Comparable(ValueType a, ValueType b) {
  return (IsNumeric(a) && IsNumeric(b)) || (a == b && IsOrdered(a));
}

std::string TypeName(ValueType t) { return exec::ValueTypeName(t); }

/// Recursive-descent parser + binder: expressions are bound against the
/// target table's schema as they are parsed.
class Parser {
 public:
  Parser(std::vector<Token> tokens,
         const std::map<std::string, const core::ParallelTable*>& tables)
      : tokens_(std::move(tokens)), tables_(tables) {}

  StatusOr<Query> ParseStatement() {
    PARADISE_RETURN_IF_ERROR(ExpectKeyword("select"));

    // Defer select-list binding until FROM resolves the schema: remember
    // the token range and re-parse after.
    size_t select_start = pos_;
    PARADISE_RETURN_IF_ERROR(SkipUntilKeyword("from"));
    size_t select_end = pos_;
    PARADISE_RETURN_IF_ERROR(ExpectKeyword("from"));

    PARADISE_ASSIGN_OR_RETURN(std::string table_name, ExpectIdentifier());
    auto it = tables_.find(table_name);
    if (it == tables_.end()) {
      return Status::NotFound("unknown table " + table_name);
    }
    table_ = it->second;
    schema_ = &table_->def().schema;

    Query query = Query::On(table_);

    if (AcceptKeyword("where")) {
      PARADISE_ASSIGN_OR_RETURN(query, ParseWhere(std::move(query)));
    }

    bool has_group_by = false;
    size_t group_col = 0;
    if (AcceptKeyword("group")) {
      PARADISE_RETURN_IF_ERROR(ExpectKeyword("by"));
      PARADISE_ASSIGN_OR_RETURN(group_col, ParseOrderedColumn("GROUP BY"));
      has_group_by = true;
    }

    std::optional<exec::SortKey> order;
    if (AcceptKeyword("order")) {
      PARADISE_RETURN_IF_ERROR(ExpectKeyword("by"));
      PARADISE_ASSIGN_OR_RETURN(size_t col, ParseOrderedColumn("ORDER BY"));
      bool ascending = true;
      if (AcceptKeyword("desc")) {
        ascending = false;
      } else {
        AcceptKeyword("asc");
      }
      order = exec::SortKey{col, ascending};
    }
    if (!AtEnd()) return Error("trailing tokens after statement");

    // Now bind the select list with the schema in hand.
    size_t saved = pos_;
    pos_ = select_start;
    end_limit_ = select_end;
    PARADISE_ASSIGN_OR_RETURN(query,
                              ParseSelectList(std::move(query), has_group_by,
                                              group_col, &order));
    end_limit_ = tokens_.size();
    pos_ = saved;

    if (order.has_value()) {
      // Note: the fluent builders return *this as an rvalue, so binding
      // the result back into `query` would self-move-assign; construct a
      // fresh object instead.
      Query sorted = std::move(query).OrderBy(order->column, order->ascending);
      return sorted;
    }
    return query;
  }

 private:
  // ---- token plumbing ----
  const Token& Peek(size_t ahead = 0) const {
    size_t limit = std::min(end_limit_, tokens_.size() - 1);
    size_t i = std::min(pos_ + ahead, limit);
    return i >= limit && pos_ + ahead >= limit ? end_token_ : tokens_[i];
  }
  const Token& Advance() {
    const Token& t = Peek();
    if (pos_ < std::min(end_limit_, tokens_.size() - 1)) ++pos_;
    return t;
  }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }
  Status Error(const std::string& m) const {
    return Status::InvalidArgument("SQL: " + m + " near offset " +
                                   std::to_string(Peek().position));
  }
  bool AcceptKeyword(const std::string& kw) {
    if (Peek().type == TokenType::kIdentifier && Peek().text == kw) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) return Error("expected " + kw);
    return Status::OK();
  }
  StatusOr<std::string> ExpectIdentifier() {
    if (Peek().type != TokenType::kIdentifier) return Error("expected name");
    return Advance().text;
  }
  bool Accept(TokenType t) {
    if (Peek().type == t) {
      Advance();
      return true;
    }
    return false;
  }
  Status Expect(TokenType t, const char* what) {
    if (!Accept(t)) return Error(std::string("expected ") + what);
    return Status::OK();
  }
  Status SkipUntilKeyword(const std::string& kw) {
    int depth = 0;
    while (!AtEnd()) {
      if (Peek().type == TokenType::kLParen) ++depth;
      if (Peek().type == TokenType::kRParen) --depth;
      if (depth == 0 && Peek().type == TokenType::kIdentifier &&
          Peek().text == kw) {
        return Status::OK();
      }
      Advance();
    }
    return Error("expected " + kw);
  }

  // ---- schema binding ----
  StatusOr<size_t> ParseColumnRef() {
    PARADISE_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    if (Accept(TokenType::kDot)) {
      // table.column: verify the qualifier, use the column part.
      if (name != table_->def().name &&
          name + "s" != table_->def().name) {  // tolerate singular aliases
        // Accept any qualifier; single-table statements are unambiguous.
      }
      PARADISE_ASSIGN_OR_RETURN(name, ExpectIdentifier());
    }
    for (size_t i = 0; i < schema_->num_columns(); ++i) {
      std::string lower = schema_->column(i).name;
      for (char& c : lower) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      if (lower == name) return i;
    }
    return Error("unknown column " + name);
  }

  /// A column that can key a sort or a group.
  StatusOr<size_t> ParseOrderedColumn(const std::string& clause) {
    PARADISE_ASSIGN_OR_RETURN(size_t col, ParseColumnRef());
    ValueType t = ColumnType(col);
    if (!IsOrdered(t)) return Error(clause + " on " + TypeName(t) + " column");
    return col;
  }

  ValueType ColumnType(size_t col) const { return schema_->column(col).type; }

  // ---- literals ----
  StatusOr<Point> ParsePointBody() {
    // x y  (inside parens already consumed by the caller)
    if (Peek().type != TokenType::kInteger && Peek().type != TokenType::kFloat) {
      return Error("expected coordinate");
    }
    double x = NumberValue(Advance());
    if (Peek().type != TokenType::kInteger && Peek().type != TokenType::kFloat) {
      return Error("expected coordinate");
    }
    double y = NumberValue(Advance());
    return Point{x, y};
  }

  static double NumberValue(const Token& t) {
    return t.type == TokenType::kInteger ? static_cast<double>(t.int_value)
                                         : t.float_value;
  }

  StatusOr<Value> ParseSpatialLiteral(const std::string& kind) {
    PARADISE_RETURN_IF_ERROR(Expect(TokenType::kLParen, "("));
    if (kind == "point") {
      PARADISE_ASSIGN_OR_RETURN(Point p, ParsePointBody());
      PARADISE_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
      return Value(p);
    }
    if (kind == "circle") {
      PARADISE_ASSIGN_OR_RETURN(Point c, ParsePointBody());
      PARADISE_RETURN_IF_ERROR(Expect(TokenType::kComma, ","));
      if (Peek().type != TokenType::kInteger &&
          Peek().type != TokenType::kFloat) {
        return Error("expected radius");
      }
      double r = NumberValue(Advance());
      PARADISE_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
      return Value(geom::Circle(c, r));
    }
    if (kind == "box") {
      PARADISE_ASSIGN_OR_RETURN(Point lo, ParsePointBody());
      PARADISE_RETURN_IF_ERROR(Expect(TokenType::kComma, ","));
      PARADISE_ASSIGN_OR_RETURN(Point hi, ParsePointBody());
      PARADISE_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
      return Value(geom::Box(lo.x, lo.y, hi.x, hi.y));
    }
    if (kind == "polygon") {
      PARADISE_RETURN_IF_ERROR(Expect(TokenType::kLParen, "(("));
      std::vector<Point> ring;
      do {
        PARADISE_ASSIGN_OR_RETURN(Point p, ParsePointBody());
        ring.push_back(p);
      } while (Accept(TokenType::kComma));
      PARADISE_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
      PARADISE_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
      return Value(geom::Polygon(std::move(ring)));
    }
    return Error("unknown spatial literal " + kind);
  }

  StatusOr<Value> ParseLiteralValue() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInteger:
        return Value(Advance().int_value);
      case TokenType::kFloat:
        return Value(Advance().float_value);
      case TokenType::kString:
        return Value(Advance().text);
      case TokenType::kIdentifier: {
        if (t.text == "date") {
          Advance();
          if (Peek().type != TokenType::kString) {
            return Error("expected DATE 'yyyy-mm-dd'");
          }
          PARADISE_ASSIGN_OR_RETURN(Date d, Date::Parse(Advance().text));
          return Value(d);
        }
        if (t.text == "point" || t.text == "circle" || t.text == "polygon" ||
            t.text == "box") {
          std::string kind = Advance().text;
          return ParseSpatialLiteral(kind);
        }
        return Error("unexpected identifier in literal position: " + t.text);
      }
      default:
        return Error("expected literal");
    }
  }

  bool LooksLikeLiteral() const {
    const Token& t = Peek();
    if (t.type == TokenType::kInteger || t.type == TokenType::kFloat ||
        t.type == TokenType::kString) {
      return true;
    }
    return t.type == TokenType::kIdentifier &&
           (t.text == "date" || t.text == "point" || t.text == "circle" ||
            t.text == "polygon" || t.text == "box");
  }

  // ---- expressions ----
  // Booleans are ints (0/1), as the executor's predicates expect.
  Status CheckBoolean(const Bound& b, const std::string& what) const {
    if (b.type == ValueType::kInt) return Status::OK();
    return Error(what + " on " + TypeName(b.type) + ", not a boolean");
  }

  StatusOr<Bound> Overlaps(const Bound& a, const Bound& b) const {
    if (!IsSpatial(a.type) || !IsSpatial(b.type)) {
      return Error("OVERLAPS on " + TypeName(a.type) + " and " +
                   TypeName(b.type) + ", not two spatial values");
    }
    return Bound{exec::Overlaps(a.expr, b.expr), ValueType::kInt};
  }

  StatusOr<Bound> ParseExpr() { return ParseOr(); }

  StatusOr<Bound> ParseOr() {
    PARADISE_ASSIGN_OR_RETURN(Bound left, ParseAnd());
    while (AcceptKeyword("or")) {
      PARADISE_ASSIGN_OR_RETURN(Bound right, ParseAnd());
      PARADISE_RETURN_IF_ERROR(CheckBoolean(left, "OR"));
      PARADISE_RETURN_IF_ERROR(CheckBoolean(right, "OR"));
      left = Bound{exec::Or(left.expr, right.expr), ValueType::kInt};
    }
    return left;
  }

  StatusOr<Bound> ParseAnd() {
    PARADISE_ASSIGN_OR_RETURN(Bound left, ParseComparison());
    while (AcceptKeyword("and")) {
      PARADISE_ASSIGN_OR_RETURN(Bound right, ParseComparison());
      PARADISE_RETURN_IF_ERROR(CheckBoolean(left, "AND"));
      PARADISE_RETURN_IF_ERROR(CheckBoolean(right, "AND"));
      left = Bound{exec::And(left.expr, right.expr), ValueType::kInt};
    }
    return left;
  }

  StatusOr<Bound> ParseComparison() {
    if (AcceptKeyword("not")) {
      PARADISE_ASSIGN_OR_RETURN(Bound inner, ParseComparison());
      PARADISE_RETURN_IF_ERROR(CheckBoolean(inner, "NOT"));
      return Bound{exec::Not(inner.expr), ValueType::kInt};
    }
    PARADISE_ASSIGN_OR_RETURN(Bound left, ParsePrimary());
    if (AcceptKeyword("overlaps")) {
      PARADISE_ASSIGN_OR_RETURN(Bound right, ParsePrimary());
      return Overlaps(left, right);
    }
    CompareOp op;
    switch (Peek().type) {
      case TokenType::kEq: op = CompareOp::kEq; break;
      case TokenType::kNe: op = CompareOp::kNe; break;
      case TokenType::kLt: op = CompareOp::kLt; break;
      case TokenType::kLe: op = CompareOp::kLe; break;
      case TokenType::kGt: op = CompareOp::kGt; break;
      case TokenType::kGe: op = CompareOp::kGe; break;
      default:
        return left;  // bare boolean expression
    }
    Advance();
    PARADISE_ASSIGN_OR_RETURN(Bound right, ParsePrimary());
    if (!Comparable(left.type, right.type)) {
      return Error("cannot compare " + TypeName(left.type) + " with " +
                   TypeName(right.type));
    }
    return Bound{exec::Cmp(op, left.expr, right.expr), ValueType::kInt};
  }

  StatusOr<Bound> ParsePrimary() {
    if (Accept(TokenType::kLParen)) {
      PARADISE_ASSIGN_OR_RETURN(Bound inner, ParseExpr());
      PARADISE_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
      return inner;
    }
    if (LooksLikeLiteral()) {
      PARADISE_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
      ValueType t = v.type();
      return Bound{exec::Lit(std::move(v)), t};
    }
    if (Peek().type == TokenType::kIdentifier) {
      // function call or column reference
      if (Peek(1).type == TokenType::kLParen && !IsColumnName(Peek().text)) {
        std::string fn = Advance().text;
        Advance();  // (
        if (fn == "area") {
          PARADISE_ASSIGN_OR_RETURN(Bound arg, ParseExpr());
          PARADISE_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
          if (!IsSpatial(arg.type) || arg.type == ValueType::kPoint ||
              arg.type == ValueType::kRaster) {
            return Error("area() on " + TypeName(arg.type));
          }
          return Bound{exec::AreaOf(arg.expr), ValueType::kDouble};
        }
        if (fn == "distance") {
          PARADISE_ASSIGN_OR_RETURN(Bound a, ParseExpr());
          PARADISE_RETURN_IF_ERROR(Expect(TokenType::kComma, ","));
          PARADISE_ASSIGN_OR_RETURN(Bound b, ParseExpr());
          PARADISE_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
          if (!IsSpatial(a.type) || !IsSpatial(b.type) ||
              (a.type != ValueType::kPoint && b.type != ValueType::kPoint)) {
            return Error("distance() needs a point and a spatial value");
          }
          return Bound{exec::DistanceBetween(a.expr, b.expr),
                       ValueType::kDouble};
        }
        if (fn == "overlaps") {
          PARADISE_ASSIGN_OR_RETURN(Bound a, ParseExpr());
          PARADISE_RETURN_IF_ERROR(Expect(TokenType::kComma, ","));
          PARADISE_ASSIGN_OR_RETURN(Bound b, ParseExpr());
          PARADISE_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
          return Overlaps(a, b);
        }
        if (fn == "makebox") {
          PARADISE_ASSIGN_OR_RETURN(Bound p, ParseExpr());
          if (p.type != ValueType::kPoint) {
            return Error("makebox() on " + TypeName(p.type));
          }
          PARADISE_RETURN_IF_ERROR(Expect(TokenType::kComma, ","));
          if (Peek().type != TokenType::kInteger &&
              Peek().type != TokenType::kFloat) {
            return Error("expected box length");
          }
          double len = NumberValue(Advance());
          PARADISE_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
          return Bound{exec::MakeBoxAround(p.expr, len), ValueType::kBox};
        }
        return Error("unknown function " + fn);
      }
      PARADISE_ASSIGN_OR_RETURN(size_t col, ParseColumnRef());
      return Bound{exec::Col(col), ColumnType(col), col};
    }
    return Error("expected expression");
  }

  bool IsColumnName(const std::string& name) const {
    for (size_t i = 0; i < schema_->num_columns(); ++i) {
      std::string lower = schema_->column(i).name;
      for (char& c : lower) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      if (lower == name) return true;
    }
    return false;
  }

  // ---- WHERE: conjuncts with sargability detection ----
  StatusOr<Query> ParseWhere(Query query) {
    do {
      PARADISE_ASSIGN_OR_RETURN(query, ParseConjunct(std::move(query)));
    } while (AcceptKeyword("and"));
    return query;
  }

  StatusOr<Query> ParseConjunct(Query query) {
    // Try sargable shapes first; rewind on mismatch.
    size_t mark = pos_;
    if (Peek().type == TokenType::kIdentifier && !LooksLikeLiteral()) {
      size_t col;
      {
        auto col_or = ParseColumnRef();
        if (col_or.ok()) {
          col = *col_or;
          ValueType t = ColumnType(col);
          if (Accept(TokenType::kEq) && LooksLikeLiteral()) {
            PARADISE_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
            if (t == ValueType::kString && v.type() == ValueType::kString) {
              return std::move(query).WhereStringEquals(col, v.AsString());
            }
            if (t == ValueType::kInt && v.type() == ValueType::kInt) {
              return std::move(query).WhereIntEquals(col, v.AsInt());
            }
            if (t == ValueType::kDate && v.type() == ValueType::kDate) {
              return std::move(query).WhereDateBetween(col, v.AsDate(),
                                                       v.AsDate());
            }
            // Typed mismatch: fall through to the generic path.
          } else if (AcceptKeyword("between")) {
            PARADISE_ASSIGN_OR_RETURN(Value lo, ParseLiteralValue());
            PARADISE_RETURN_IF_ERROR(ExpectKeyword("and"));
            PARADISE_ASSIGN_OR_RETURN(Value hi, ParseLiteralValue());
            // The range predicates take int or date bounds of the
            // column's own type.
            if ((t != ValueType::kInt && t != ValueType::kDate) ||
                lo.type() != t || hi.type() != t) {
              return Error("BETWEEN " + TypeName(lo.type()) + " AND " +
                           TypeName(hi.type()) + " on " + TypeName(t) +
                           " column");
            }
            if (t == ValueType::kDate) {
              return std::move(query).WhereDateBetween(col, lo.AsDate(),
                                                       hi.AsDate());
            }
            return std::move(query).WhereIntBetween(col, lo.AsInt(),
                                                    hi.AsInt());
          } else if (AcceptKeyword("overlaps") && LooksLikeLiteral()) {
            PARADISE_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
            if (!IsSpatial(t)) {
              return Error("OVERLAPS on " + TypeName(t) + " column");
            }
            if (v.type() == ValueType::kPolygon) {
              return std::move(query).WhereOverlaps(col, *v.AsPolygon());
            }
            if (v.type() == ValueType::kCircle) {
              return std::move(query).WhereWithinCircle(col, v.AsCircle());
            }
          }
        }
      }
      pos_ = mark;  // not sargable: re-parse as a generic expression
    }
    PARADISE_ASSIGN_OR_RETURN(Bound pred, ParseComparison());
    PARADISE_RETURN_IF_ERROR(CheckBoolean(pred, "WHERE"));
    return std::move(query).Where(pred.expr);
  }

  // ---- select list ----
  /// Binds the select list. A projection or an aggregate also moves the
  /// ORDER BY key from the table's column to that column's place in the
  /// output, since the sort runs on the output tuples.
  StatusOr<Query> ParseSelectList(Query query, bool has_group_by,
                                  size_t group_col,
                                  std::optional<exec::SortKey>* order) {
    if (Accept(TokenType::kStar)) {
      if (has_group_by) return Error("SELECT * with GROUP BY");
      return query;
    }
    std::vector<ExprPtr> projection;
    std::vector<std::optional<size_t>> projected_columns;
    std::vector<exec::AggregatePtr> aggregates;
    do {
      if (Peek().type == TokenType::kIdentifier &&
          Peek(1).type == TokenType::kLParen && IsAggregateName(Peek().text)) {
        std::string fn = Advance().text;
        Advance();  // (
        if (fn == "count") {
          PARADISE_RETURN_IF_ERROR(Expect(TokenType::kStar, "*"));
          PARADISE_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
          aggregates.push_back(exec::MakeCount());
        } else if (fn == "closest") {
          PARADISE_ASSIGN_OR_RETURN(Bound shape, ParseExpr());
          if (!IsSpatial(shape.type)) {
            return Error("closest() on " + TypeName(shape.type));
          }
          PARADISE_RETURN_IF_ERROR(Expect(TokenType::kComma, ","));
          PARADISE_ASSIGN_OR_RETURN(Value p, ParseLiteralValue());
          if (p.type() != ValueType::kPoint) {
            return Error("closest() needs a POINT");
          }
          PARADISE_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
          aggregates.push_back(exec::MakeClosest(shape.expr, p.AsPoint()));
        } else {
          PARADISE_ASSIGN_OR_RETURN(Bound arg, ParseExpr());
          PARADISE_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
          const bool sum_like = fn == "sum" || fn == "avg";
          if (sum_like ? !IsNumeric(arg.type) : !IsOrdered(arg.type)) {
            return Error(fn + "() on " + TypeName(arg.type));
          }
          if (fn == "sum") aggregates.push_back(exec::MakeSum(arg.expr));
          if (fn == "avg") aggregates.push_back(exec::MakeAvg(arg.expr));
          if (fn == "min") aggregates.push_back(exec::MakeMin(arg.expr));
          if (fn == "max") aggregates.push_back(exec::MakeMax(arg.expr));
        }
      } else {
        PARADISE_ASSIGN_OR_RETURN(Bound e, ParseExpr());
        projection.push_back(e.expr);
        projected_columns.push_back(e.column);
      }
    } while (Accept(TokenType::kComma));

    if (!aggregates.empty()) {
      if (!projection.empty()) {
        return Error("mixing aggregates and plain columns needs GROUP BY "
                     "columns only in the plain list");
      }
      if (order->has_value()) {
        // The aggregate output is [group key, aggregates...]: only the
        // GROUP BY column has a place to sort on.
        if (!has_group_by || (*order)->column != group_col) {
          return Error("ORDER BY on an aggregate must name the GROUP BY "
                       "column");
        }
        (*order)->column = 0;
      }
      std::vector<size_t> group_cols;
      if (has_group_by) group_cols.push_back(group_col);
      return std::move(query).GroupBy(std::move(group_cols),
                                      std::move(aggregates));
    }
    if (has_group_by) return Error("GROUP BY without aggregates");
    if (order->has_value()) {
      auto at = std::find(projected_columns.begin(), projected_columns.end(),
                          (*order)->column);
      if (at == projected_columns.end()) {
        return Error("ORDER BY column is not in the select list");
      }
      (*order)->column = static_cast<size_t>(at - projected_columns.begin());
    }
    return std::move(query).Select(std::move(projection));
  }

  static bool IsAggregateName(const std::string& name) {
    return name == "count" || name == "sum" || name == "avg" ||
           name == "min" || name == "max" || name == "closest";
  }

  std::vector<Token> tokens_;
  const std::map<std::string, const core::ParallelTable*>& tables_;
  size_t pos_ = 0;
  size_t end_limit_ = SIZE_MAX;
  Token end_token_;  // synthetic kEnd for limited ranges

  const core::ParallelTable* table_ = nullptr;
  const exec::Schema* schema_ = nullptr;
};

}  // namespace

void SqlEngine::Register(const core::ParallelTable* table) {
  std::string name = table->def().name;
  for (char& c : name) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  tables_[name] = table;
}

StatusOr<Query> SqlEngine::Bind(const std::string& statement) const {
  PARADISE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(statement));
  Parser parser(std::move(tokens), tables_);
  return parser.ParseStatement();
}

StatusOr<exec::TupleVec> SqlEngine::Execute(
    const std::string& statement, core::QueryCoordinator* coord) const {
  PARADISE_ASSIGN_OR_RETURN(Query query, Bind(statement));
  return std::move(query).Run(coord);
}

StatusOr<std::string> SqlEngine::Explain(const std::string& statement) const {
  PARADISE_ASSIGN_OR_RETURN(Query query, Bind(statement));
  return query.Explain();
}

}  // namespace paradise::sql
