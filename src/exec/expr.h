#ifndef PARADISE_EXEC_EXPR_H_
#define PARADISE_EXEC_EXPR_H_

#include <memory>
#include <optional>
#include <vector>

#include "exec/exec_context.h"
#include "exec/tuple.h"

namespace paradise::exec {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Expression tree evaluated per tuple. Spatial and raster operations
/// charge CPU (and, via the tile source, I/O and network) to the context,
/// so predicate cost shows up in modeled query time exactly where the
/// paper says it does (e.g. Query 10's clip-in-where-clause).
class Expr {
 public:
  virtual ~Expr() = default;
  virtual StatusOr<Value> Eval(const Tuple& tuple,
                               const ExecContext& ctx) const = 0;
};

/// True/false convenience wrapper for predicates.
StatusOr<bool> EvalPredicate(const ExprPtr& expr, const Tuple& tuple,
                             const ExecContext& ctx);

// ---- Factories ----

ExprPtr Col(size_t index);
ExprPtr Lit(Value value);
ExprPtr Cmp(CompareOp op, ExprPtr a, ExprPtr b);
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr a);

/// Exact spatial intersection of two spatial values (any mix of point,
/// box, circle, polygon, polyline) — the `overlaps` operator.
ExprPtr Overlaps(ExprPtr a, ExprPtr b);

/// shape within reach of a circle: min-distance(shape, center) <= radius.
ExprPtr WithinCircle(ExprPtr shape, geom::Circle circle);

/// polygon/polyline area / length / distance helpers.
ExprPtr AreaOf(ExprPtr shape);
ExprPtr DistanceBetween(ExprPtr a, ExprPtr b);

/// Box of side `length` centered on a point value (Query 8's makeBox).
ExprPtr MakeBoxAround(ExprPtr point, double length);

/// raster.clip(polygon): creates a new (shared-by-reference) raster
/// attribute; tiles are read through the context (pulling if remote) and
/// the clipped result is written to the context's temporary store.
ExprPtr RasterClip(ExprPtr raster, PolygonPtr polygon);

/// raster.average() over valid pixels.
ExprPtr RasterAverageOf(ExprPtr raster);

/// raster.lower_res(f).
ExprPtr RasterLowerResOf(ExprPtr raster, uint32_t factor);

// ---- Shared helpers (used by spatial join exact tests too) ----

/// Segment count of a spatial value — the unit the cost model charges
/// spatial predicates by (kPerSegmentTest / kPerPointDistance per segment).
size_t SpatialSegmentCount(const Value& v);

/// The CPU ops SpatialIntersects charges before its MBR prune, for two
/// operands of `segments` segments between them (SpatialSegmentCount(a) +
/// SpatialSegmentCount(b)).
double SpatialIntersectsCharge(size_t segments);

/// Exact intersection test between two spatial values, charging CPU to
/// `ctx` proportional to the segment work.
StatusOr<bool> SpatialIntersects(const Value& a, const Value& b,
                                 const ExecContext& ctx);

/// The filter step a fragment scan runs on a stored record before
/// decoding it. A predicate has one when it is Overlaps(Col(c), Lit(v))
/// with a spatial v, the form a non-sargable OVERLAPS in a WHERE clause
/// takes: its Eval starts with SpatialIntersects on column c and v, which
/// charges SpatialIntersectsCharge and rejects the row when the two MBRs
/// miss.
class OverlapsFilterStep {
 public:
  /// The filter step of `predicate`, or nullopt if it has none.
  static std::optional<OverlapsFilterStep> Of(const Expr& predicate);

  /// Decides the stored tuple at `r` (positioned at the tuple's column
  /// count). Returns the CPU ops Eval charges before it rejects the tuple
  /// on an MBR miss, or nullopt when Eval must decide: the MBRs meet,
  /// column c is not a polyline, or a column cannot be skipped or does
  /// not decode.
  std::optional<double> RejectCharge(ByteReader* r) const;

 private:
  OverlapsFilterStep(size_t column, const Value& literal);

  size_t column_;
  geom::Box literal_mbr_;
  size_t literal_segments_;
};

/// The exact-geometry dispatch of SpatialIntersects with no up-front
/// charge and no MBR prune. Precondition: the caller has already charged
/// `kPerSegmentTest * (SpatialSegmentCount(a) + SpatialSegmentCount(b))`
/// and knows the MBRs intersect (a join sweep's candidates, say). Nested
/// normalization (box/circle argument swaps) recurses through the charging
/// SpatialIntersects, exactly as the one-call path always has.
StatusOr<bool> SpatialIntersectsExact(const Value& a, const Value& b,
                                      const ExecContext& ctx);

/// Min distance between a point value and a spatial value.
StatusOr<double> SpatialDistance(const Value& point, const Value& shape,
                                 const ExecContext& ctx);

}  // namespace paradise::exec

#endif  // PARADISE_EXEC_EXPR_H_
