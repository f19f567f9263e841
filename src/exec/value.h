#ifndef PARADISE_EXEC_VALUE_H_
#define PARADISE_EXEC_VALUE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "array/raster.h"
#include "common/bytes.h"
#include "common/date.h"
#include "common/status.h"
#include "geom/box.h"
#include "geom/circle.h"
#include "geom/point.h"
#include "geom/polygon.h"
#include "geom/polyline.h"

namespace paradise::exec {

enum class ValueType : uint8_t {
  kNull = 0,
  kInt,
  kDouble,
  kString,
  kDate,
  kPoint,
  kBox,
  kCircle,
  kPolygon,
  kPolyline,
  kSwissCheese,
  kRaster,
};

const char* ValueTypeName(ValueType t);

/// Types with an MBR: the operands of OVERLAPS, distance() and closest().
bool IsSpatial(ValueType t);

/// What a scan's filter step reads off a stored polyline without decoding
/// it: the value's MBR and its segment count, bit-equal to
/// Deserialize(r)'s Mbr() and SpatialSegmentCount().
struct StoredShape {
  geom::Box mbr;
  size_t segments = 0;
};

/// Large spatial attributes are shared by reference between tuples: a
/// projection or join output aliases the same geometry/raster the input
/// held, and only inserting into a permanent table deep-copies
/// (Section 2.5.2's copy-on-insert).
using PolygonPtr = std::shared_ptr<const geom::Polygon>;
using PolylinePtr = std::shared_ptr<const geom::Polyline>;
using SwissCheesePtr = std::shared_ptr<const geom::SwissCheesePolygon>;
using RasterPtr = std::shared_ptr<const array::Raster>;

/// A single attribute value. Cheap to copy: geometry and raster payloads
/// are shared_ptr-backed.
class Value {
 public:
  Value() : rep_(std::monostate{}) {}
  explicit Value(int64_t v) : rep_(v) {}
  explicit Value(double v) : rep_(v) {}
  explicit Value(std::string v) : rep_(std::move(v)) {}
  explicit Value(Date v) : rep_(v) {}
  explicit Value(geom::Point v) : rep_(v) {}
  explicit Value(geom::Box v) : rep_(v) {}
  explicit Value(geom::Circle v) : rep_(v) {}
  explicit Value(PolygonPtr v) : rep_(std::move(v)) {}
  explicit Value(PolylinePtr v) : rep_(std::move(v)) {}
  explicit Value(SwissCheesePtr v) : rep_(std::move(v)) {}
  explicit Value(RasterPtr v) : rep_(std::move(v)) {}
  explicit Value(geom::Polygon v)
      : rep_(std::make_shared<const geom::Polygon>(std::move(v))) {}
  explicit Value(geom::Polyline v)
      : rep_(std::make_shared<const geom::Polyline>(std::move(v))) {}
  explicit Value(geom::SwissCheesePolygon v)
      : rep_(std::make_shared<const geom::SwissCheesePolygon>(std::move(v))) {}
  explicit Value(array::Raster v)
      : rep_(std::make_shared<const array::Raster>(std::move(v))) {}

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }
  Date AsDate() const { return std::get<Date>(rep_); }
  const geom::Point& AsPoint() const { return std::get<geom::Point>(rep_); }
  const geom::Box& AsBox() const { return std::get<geom::Box>(rep_); }
  const geom::Circle& AsCircle() const { return std::get<geom::Circle>(rep_); }
  const PolygonPtr& AsPolygon() const { return std::get<PolygonPtr>(rep_); }
  const PolylinePtr& AsPolyline() const { return std::get<PolylinePtr>(rep_); }
  const SwissCheesePtr& AsSwissCheese() const {
    return std::get<SwissCheesePtr>(rep_);
  }
  const RasterPtr& AsRaster() const { return std::get<RasterPtr>(rep_); }

  /// Numeric view of kInt/kDouble, for arithmetic-agnostic comparisons.
  double AsNumber() const;

  /// The MBR of any spatial value (point, box, circle, polygon, polyline,
  /// swiss-cheese, raster geo-extent). Aborts on non-spatial values.
  geom::Box Mbr() const;

  /// Total order within one type (scalars only: int, double, string,
  /// date). Used by sort and B+-tree keys.
  int Compare(const Value& other) const;

  bool Equals(const Value& other) const;

  /// Bytes this value contributes to a tuple. When `deep` is false, large
  /// shared attributes count only their in-tuple reference/handle size —
  /// matching how temporary tables share large attributes by reference.
  size_t StorageBytes(bool deep) const;

  void Serialize(ByteWriter* w) const;
  static Value Deserialize(ByteReader* r);

  /// Advances `r` past one serialized value without decoding it, failing
  /// `r` where Deserialize would (bytes that end early, an unknown tag, a
  /// count larger than the bytes left). Returns false then, and also for
  /// swiss-cheese and raster values, which it does not skip.
  static bool SkipSerialized(ByteReader* r);

  /// Reads the StoredShape of the serialized polyline at `r` (advancing
  /// past it) through Polyline::DeserializeMbr, so NaN and signed-zero
  /// coordinates and empty or one-point chains give the decoded value's
  /// answer. Nullopt for any other type, or where SkipSerialized fails.
  static std::optional<StoredShape> ReadStoredShape(ByteReader* r);

  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string, Date,
               geom::Point, geom::Box, geom::Circle, PolygonPtr, PolylinePtr,
               SwissCheesePtr, RasterPtr>
      rep_;
};

}  // namespace paradise::exec

#endif  // PARADISE_EXEC_VALUE_H_
