#include "exec/expr.h"

#include <cmath>

#include "array/raster.h"
#include "common/logging.h"
#include "geom/algorithms.h"
#include "sim/cost_model.h"

namespace paradise::exec {

namespace {

using geom::Box;
using geom::Circle;
using geom::Point;

class ColumnExpr : public Expr {
 public:
  explicit ColumnExpr(size_t index) : index_(index) {}
  StatusOr<Value> Eval(const Tuple& t, const ExecContext&) const override {
    if (index_ >= t.size()) return Status::OutOfRange("column index");
    return t.at(index_);
  }

  size_t index() const { return index_; }

 private:
  size_t index_;
};

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}
  StatusOr<Value> Eval(const Tuple&, const ExecContext&) const override {
    return value_;
  }

  const Value& value() const { return value_; }

 private:
  Value value_;
};

class CompareExpr : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr a, ExprPtr b)
      : op_(op), a_(std::move(a)), b_(std::move(b)) {}
  StatusOr<Value> Eval(const Tuple& t, const ExecContext& ctx) const override {
    PARADISE_ASSIGN_OR_RETURN(Value va, a_->Eval(t, ctx));
    PARADISE_ASSIGN_OR_RETURN(Value vb, b_->Eval(t, ctx));
    ctx.ChargeCpu(sim::cpu_cost::kCompare);
    int c;
    if ((va.type() == ValueType::kInt || va.type() == ValueType::kDouble) &&
        (vb.type() == ValueType::kInt || vb.type() == ValueType::kDouble)) {
      double x = va.AsNumber(), y = vb.AsNumber();
      c = x < y ? -1 : (y < x ? 1 : 0);
    } else {
      c = va.Compare(vb);
    }
    bool r = false;
    switch (op_) {
      case CompareOp::kEq: r = c == 0; break;
      case CompareOp::kNe: r = c != 0; break;
      case CompareOp::kLt: r = c < 0; break;
      case CompareOp::kLe: r = c <= 0; break;
      case CompareOp::kGt: r = c > 0; break;
      case CompareOp::kGe: r = c >= 0; break;
    }
    return Value(static_cast<int64_t>(r ? 1 : 0));
  }

 private:
  CompareOp op_;
  ExprPtr a_, b_;
};

class AndExpr : public Expr {
 public:
  AndExpr(ExprPtr a, ExprPtr b) : a_(std::move(a)), b_(std::move(b)) {}
  StatusOr<Value> Eval(const Tuple& t, const ExecContext& ctx) const override {
    PARADISE_ASSIGN_OR_RETURN(Value va, a_->Eval(t, ctx));
    if (va.AsInt() == 0) return Value(static_cast<int64_t>(0));
    return b_->Eval(t, ctx);
  }

 private:
  ExprPtr a_, b_;
};

class OrExpr : public Expr {
 public:
  OrExpr(ExprPtr a, ExprPtr b) : a_(std::move(a)), b_(std::move(b)) {}
  StatusOr<Value> Eval(const Tuple& t, const ExecContext& ctx) const override {
    PARADISE_ASSIGN_OR_RETURN(Value va, a_->Eval(t, ctx));
    if (va.AsInt() != 0) return Value(static_cast<int64_t>(1));
    return b_->Eval(t, ctx);
  }

 private:
  ExprPtr a_, b_;
};

class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr a) : a_(std::move(a)) {}
  StatusOr<Value> Eval(const Tuple& t, const ExecContext& ctx) const override {
    PARADISE_ASSIGN_OR_RETURN(Value va, a_->Eval(t, ctx));
    return Value(static_cast<int64_t>(va.AsInt() == 0 ? 1 : 0));
  }

 private:
  ExprPtr a_;
};

class OverlapsExpr : public Expr {
 public:
  OverlapsExpr(ExprPtr a, ExprPtr b) : a_(std::move(a)), b_(std::move(b)) {}
  StatusOr<Value> Eval(const Tuple& t, const ExecContext& ctx) const override {
    PARADISE_ASSIGN_OR_RETURN(Value va, a_->Eval(t, ctx));
    PARADISE_ASSIGN_OR_RETURN(Value vb, b_->Eval(t, ctx));
    PARADISE_ASSIGN_OR_RETURN(bool hit, SpatialIntersects(va, vb, ctx));
    return Value(static_cast<int64_t>(hit ? 1 : 0));
  }

  const Expr& a() const { return *a_; }
  const Expr& b() const { return *b_; }

 private:
  ExprPtr a_, b_;
};

class WithinCircleExpr : public Expr {
 public:
  WithinCircleExpr(ExprPtr shape, Circle circle)
      : shape_(std::move(shape)), circle_(circle) {}
  StatusOr<Value> Eval(const Tuple& t, const ExecContext& ctx) const override {
    PARADISE_ASSIGN_OR_RETURN(Value vs, shape_->Eval(t, ctx));
    Value center(circle_.center);
    PARADISE_ASSIGN_OR_RETURN(double d, SpatialDistance(center, vs, ctx));
    return Value(static_cast<int64_t>(d <= circle_.radius ? 1 : 0));
  }

 private:
  ExprPtr shape_;
  Circle circle_;
};

class AreaExpr : public Expr {
 public:
  explicit AreaExpr(ExprPtr shape) : shape_(std::move(shape)) {}
  StatusOr<Value> Eval(const Tuple& t, const ExecContext& ctx) const override {
    PARADISE_ASSIGN_OR_RETURN(Value vs, shape_->Eval(t, ctx));
    ctx.ChargeCpu(sim::cpu_cost::kCompare * SpatialSegmentCount(vs));
    switch (vs.type()) {
      case ValueType::kPolygon: return Value(vs.AsPolygon()->Area());
      case ValueType::kSwissCheese: return Value(vs.AsSwissCheese()->Area());
      case ValueType::kBox: return Value(vs.AsBox().Area());
      case ValueType::kCircle: return Value(vs.AsCircle().Area());
      case ValueType::kPolyline: return Value(vs.AsPolyline()->Length());
      default:
        return Status::InvalidArgument("area() on non-areal value");
    }
  }

 private:
  ExprPtr shape_;
};

class DistanceExpr : public Expr {
 public:
  DistanceExpr(ExprPtr a, ExprPtr b) : a_(std::move(a)), b_(std::move(b)) {}
  StatusOr<Value> Eval(const Tuple& t, const ExecContext& ctx) const override {
    PARADISE_ASSIGN_OR_RETURN(Value va, a_->Eval(t, ctx));
    PARADISE_ASSIGN_OR_RETURN(Value vb, b_->Eval(t, ctx));
    PARADISE_ASSIGN_OR_RETURN(double d, SpatialDistance(va, vb, ctx));
    return Value(d);
  }

 private:
  ExprPtr a_, b_;
};

class MakeBoxExpr : public Expr {
 public:
  MakeBoxExpr(ExprPtr point, double length)
      : point_(std::move(point)), length_(length) {}
  StatusOr<Value> Eval(const Tuple& t, const ExecContext& ctx) const override {
    PARADISE_ASSIGN_OR_RETURN(Value vp, point_->Eval(t, ctx));
    if (vp.type() != ValueType::kPoint) {
      return Status::InvalidArgument("makeBox on non-point");
    }
    return Value(Box::MakeBox(vp.AsPoint(), length_));
  }

 private:
  ExprPtr point_;
  double length_;
};

class RasterClipExpr : public Expr {
 public:
  RasterClipExpr(ExprPtr raster, PolygonPtr polygon)
      : raster_(std::move(raster)), polygon_(std::move(polygon)) {}
  StatusOr<Value> Eval(const Tuple& t, const ExecContext& ctx) const override {
    PARADISE_ASSIGN_OR_RETURN(Value vr, raster_->Eval(t, ctx));
    if (vr.type() != ValueType::kRaster) {
      return Status::InvalidArgument("clip on non-raster");
    }
    const array::Raster& raster = *vr.AsRaster();
    array::TileSource* source = ctx.SourceFor(raster.handle.owner_node);
    if (source == nullptr) return Status::Internal("no tile source");
    PARADISE_ASSIGN_OR_RETURN(
        array::Raster clipped,
        array::ClipRaster(raster, *polygon_, source, ctx.temp_store,
                          ctx.clock, ctx.node_id));
    return Value(std::move(clipped));
  }

 private:
  ExprPtr raster_;
  PolygonPtr polygon_;
};

class RasterAverageExpr : public Expr {
 public:
  explicit RasterAverageExpr(ExprPtr raster) : raster_(std::move(raster)) {}
  StatusOr<Value> Eval(const Tuple& t, const ExecContext& ctx) const override {
    PARADISE_ASSIGN_OR_RETURN(Value vr, raster_->Eval(t, ctx));
    if (vr.type() != ValueType::kRaster) {
      return Status::InvalidArgument("average on non-raster");
    }
    const array::Raster& raster = *vr.AsRaster();
    array::TileSource* source = ctx.SourceFor(raster.handle.owner_node);
    if (source == nullptr) return Status::Internal("no tile source");
    PARADISE_ASSIGN_OR_RETURN(double avg,
                              array::RasterAverage(raster, source, ctx.clock));
    return Value(avg);
  }

 private:
  ExprPtr raster_;
};

class RasterLowerResExpr : public Expr {
 public:
  RasterLowerResExpr(ExprPtr raster, uint32_t factor)
      : raster_(std::move(raster)), factor_(factor) {}
  StatusOr<Value> Eval(const Tuple& t, const ExecContext& ctx) const override {
    PARADISE_ASSIGN_OR_RETURN(Value vr, raster_->Eval(t, ctx));
    if (vr.type() != ValueType::kRaster) {
      return Status::InvalidArgument("lower_res on non-raster");
    }
    const array::Raster& raster = *vr.AsRaster();
    array::TileSource* source = ctx.SourceFor(raster.handle.owner_node);
    if (source == nullptr) return Status::Internal("no tile source");
    PARADISE_ASSIGN_OR_RETURN(
        array::Raster out,
        array::LowerRes(raster, factor_, source, ctx.temp_store, ctx.clock,
                        ctx.node_id));
    return Value(std::move(out));
  }

 private:
  ExprPtr raster_;
  uint32_t factor_;
};

}  // namespace

StatusOr<bool> EvalPredicate(const ExprPtr& expr, const Tuple& tuple,
                             const ExecContext& ctx) {
  PARADISE_ASSIGN_OR_RETURN(Value v, expr->Eval(tuple, ctx));
  if (v.type() != ValueType::kInt) {
    return Status::InvalidArgument("predicate did not yield boolean");
  }
  return v.AsInt() != 0;
}

ExprPtr Col(size_t index) { return std::make_shared<ColumnExpr>(index); }
ExprPtr Lit(Value value) {
  return std::make_shared<LiteralExpr>(std::move(value));
}
ExprPtr Cmp(CompareOp op, ExprPtr a, ExprPtr b) {
  return std::make_shared<CompareExpr>(op, std::move(a), std::move(b));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  return std::make_shared<AndExpr>(std::move(a), std::move(b));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  return std::make_shared<OrExpr>(std::move(a), std::move(b));
}
ExprPtr Not(ExprPtr a) { return std::make_shared<NotExpr>(std::move(a)); }
ExprPtr Overlaps(ExprPtr a, ExprPtr b) {
  return std::make_shared<OverlapsExpr>(std::move(a), std::move(b));
}
ExprPtr WithinCircle(ExprPtr shape, Circle circle) {
  return std::make_shared<WithinCircleExpr>(std::move(shape), circle);
}
ExprPtr AreaOf(ExprPtr shape) {
  return std::make_shared<AreaExpr>(std::move(shape));
}
ExprPtr DistanceBetween(ExprPtr a, ExprPtr b) {
  return std::make_shared<DistanceExpr>(std::move(a), std::move(b));
}
ExprPtr MakeBoxAround(ExprPtr point, double length) {
  return std::make_shared<MakeBoxExpr>(std::move(point), length);
}
ExprPtr RasterClip(ExprPtr raster, PolygonPtr polygon) {
  return std::make_shared<RasterClipExpr>(std::move(raster),
                                          std::move(polygon));
}
ExprPtr RasterAverageOf(ExprPtr raster) {
  return std::make_shared<RasterAverageExpr>(std::move(raster));
}
ExprPtr RasterLowerResOf(ExprPtr raster, uint32_t factor) {
  return std::make_shared<RasterLowerResExpr>(std::move(raster), factor);
}

size_t SpatialSegmentCount(const Value& v) {
  switch (v.type()) {
    case ValueType::kPolygon: return v.AsPolygon()->num_points();
    case ValueType::kPolyline: return v.AsPolyline()->num_segments();
    case ValueType::kSwissCheese:
      return v.AsSwissCheese()->outer().num_points();
    default: return 1;
  }
}

double SpatialIntersectsCharge(size_t segments) {
  return sim::cpu_cost::kPerSegmentTest * static_cast<double>(segments);
}

StatusOr<bool> SpatialIntersects(const Value& a, const Value& b,
                                 const ExecContext& ctx) {
  ctx.ChargeCpu(SpatialIntersectsCharge(SpatialSegmentCount(a) +
                                        SpatialSegmentCount(b)));
  // MBR prune first (as the exact-test phase of the join algorithms does).
  if (!a.Mbr().Intersects(b.Mbr())) return false;
  return SpatialIntersectsExact(a, b, ctx);
}

OverlapsFilterStep::OverlapsFilterStep(size_t column, const Value& literal)
    : column_(column),
      literal_mbr_(literal.Mbr()),
      literal_segments_(SpatialSegmentCount(literal)) {}

std::optional<OverlapsFilterStep> OverlapsFilterStep::Of(
    const Expr& predicate) {
  const auto* overlaps = dynamic_cast<const OverlapsExpr*>(&predicate);
  if (overlaps == nullptr) return std::nullopt;
  const auto* col = dynamic_cast<const ColumnExpr*>(&overlaps->a());
  const auto* lit = dynamic_cast<const LiteralExpr*>(&overlaps->b());
  // A literal of another type is Eval's type error to report.
  if (col == nullptr || lit == nullptr || !IsSpatial(lit->value().type())) {
    return std::nullopt;
  }
  return OverlapsFilterStep(col->index(), lit->value());
}

std::optional<double> OverlapsFilterStep::RejectCharge(ByteReader* r) const {
  const uint32_t columns = r->GetU32();
  if (r->failed() || column_ >= columns) return std::nullopt;
  for (size_t c = 0; c < column_; ++c) {
    if (!Value::SkipSerialized(r)) return std::nullopt;
  }
  const std::optional<StoredShape> shape = Value::ReadStoredShape(r);
  if (!shape.has_value() || shape->mbr.Intersects(literal_mbr_)) {
    return std::nullopt;
  }
  // Reject only a tuple whose full decode would succeed, so a malformed
  // record is reported whatever the predicate.
  for (size_t c = column_ + 1; c < columns; ++c) {
    if (!Value::SkipSerialized(r)) return std::nullopt;
  }
  return SpatialIntersectsCharge(shape->segments + literal_segments_);
}

StatusOr<bool> SpatialIntersectsExact(const Value& a, const Value& b,
                                      const ExecContext& ctx) {
  auto type_pair = [&](ValueType x, ValueType y) {
    return a.type() == x && b.type() == y;
  };
  // Polyline-polyline first: it is the hot pair of the spatial-join
  // exact phase (road x hydro workloads).
  if (type_pair(ValueType::kPolyline, ValueType::kPolyline)) {
    return a.AsPolyline()->Intersects(*b.AsPolyline());
  }
  // Symmetric dispatch: normalize so the "bigger" type is first.
  if (type_pair(ValueType::kPolygon, ValueType::kPolygon)) {
    return a.AsPolygon()->Intersects(*b.AsPolygon());
  }
  if (type_pair(ValueType::kPolygon, ValueType::kPolyline)) {
    return a.AsPolygon()->Intersects(*b.AsPolyline());
  }
  if (type_pair(ValueType::kPolyline, ValueType::kPolygon)) {
    return b.AsPolygon()->Intersects(*a.AsPolyline());
  }
  if (type_pair(ValueType::kPolygon, ValueType::kPoint)) {
    return a.AsPolygon()->Contains(b.AsPoint());
  }
  if (type_pair(ValueType::kPoint, ValueType::kPolygon)) {
    return b.AsPolygon()->Contains(a.AsPoint());
  }
  if (type_pair(ValueType::kSwissCheese, ValueType::kPoint)) {
    return a.AsSwissCheese()->Contains(b.AsPoint());
  }
  if (type_pair(ValueType::kPoint, ValueType::kSwissCheese)) {
    return b.AsSwissCheese()->Contains(a.AsPoint());
  }
  if (a.type() == ValueType::kBox) {
    switch (b.type()) {
      case ValueType::kPolygon: return b.AsPolygon()->IntersectsBox(a.AsBox());
      case ValueType::kPolyline:
        return b.AsPolyline()->IntersectsBox(a.AsBox());
      case ValueType::kPoint: return a.AsBox().Contains(b.AsPoint());
      case ValueType::kBox: return a.AsBox().Intersects(b.AsBox());
      case ValueType::kRaster: return a.AsBox().Intersects(b.AsRaster()->geo);
      default: break;
    }
  }
  if (b.type() == ValueType::kBox) {
    return SpatialIntersects(b, a, ctx);
  }
  if (a.type() == ValueType::kRaster || b.type() == ValueType::kRaster) {
    // Raster extent vs anything: MBR semantics.
    return a.Mbr().Intersects(b.Mbr());
  }
  if (type_pair(ValueType::kPoint, ValueType::kPolyline)) {
    return b.AsPolyline()->DistanceTo(a.AsPoint()) == 0.0;
  }
  if (type_pair(ValueType::kPolyline, ValueType::kPoint)) {
    return a.AsPolyline()->DistanceTo(b.AsPoint()) == 0.0;
  }
  if (type_pair(ValueType::kPoint, ValueType::kPoint)) {
    return a.AsPoint() == b.AsPoint();
  }
  if (a.type() == ValueType::kCircle) {
    Value center(a.AsCircle().center);
    PARADISE_ASSIGN_OR_RETURN(double d, SpatialDistance(center, b, ctx));
    return d <= a.AsCircle().radius;
  }
  if (b.type() == ValueType::kCircle) {
    return SpatialIntersects(b, a, ctx);
  }
  return Status::InvalidArgument("unsupported overlaps() type combination");
}

StatusOr<double> SpatialDistance(const Value& point, const Value& shape,
                                 const ExecContext& ctx) {
  if (point.type() != ValueType::kPoint) {
    // Allow swapped arguments.
    if (shape.type() == ValueType::kPoint) {
      return SpatialDistance(shape, point, ctx);
    }
    return Status::InvalidArgument("distance requires a point operand");
  }
  const Point& p = point.AsPoint();
  ctx.ChargeCpu(sim::cpu_cost::kPerPointDistance *
                static_cast<double>(SpatialSegmentCount(shape)));
  switch (shape.type()) {
    case ValueType::kPoint: return geom::Distance(p, shape.AsPoint());
    case ValueType::kBox: return shape.AsBox().DistanceTo(p);
    case ValueType::kCircle: {
      double d = geom::Distance(p, shape.AsCircle().center);
      return std::max(0.0, d - shape.AsCircle().radius);
    }
    case ValueType::kPolygon: return shape.AsPolygon()->DistanceTo(p);
    case ValueType::kPolyline: return shape.AsPolyline()->DistanceTo(p);
    case ValueType::kSwissCheese:
      return shape.AsSwissCheese()->outer().DistanceTo(p);
    case ValueType::kRaster: return shape.AsRaster()->geo.DistanceTo(p);
    default:
      return Status::InvalidArgument("distance to non-spatial value");
  }
}

}  // namespace paradise::exec
