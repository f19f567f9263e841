#include "exec/value.h"

#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace paradise::exec {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "null";
    case ValueType::kInt: return "int";
    case ValueType::kDouble: return "double";
    case ValueType::kString: return "string";
    case ValueType::kDate: return "date";
    case ValueType::kPoint: return "point";
    case ValueType::kBox: return "box";
    case ValueType::kCircle: return "circle";
    case ValueType::kPolygon: return "polygon";
    case ValueType::kPolyline: return "polyline";
    case ValueType::kSwissCheese: return "swisscheese";
    case ValueType::kRaster: return "raster";
  }
  return "?";
}

bool IsSpatial(ValueType t) {
  switch (t) {
    case ValueType::kPoint:
    case ValueType::kBox:
    case ValueType::kCircle:
    case ValueType::kPolygon:
    case ValueType::kPolyline:
    case ValueType::kSwissCheese:
    case ValueType::kRaster:
      return true;
    default:
      return false;
  }
}

ValueType Value::type() const {
  return static_cast<ValueType>(rep_.index());
}

double Value::AsNumber() const {
  if (type() == ValueType::kInt) return static_cast<double>(AsInt());
  return AsDouble();
}

geom::Box Value::Mbr() const {
  switch (type()) {
    case ValueType::kPoint: {
      geom::Box b;
      b.ExpandToInclude(AsPoint());
      return b;
    }
    case ValueType::kBox:
      return AsBox();
    case ValueType::kCircle:
      return AsCircle().Mbr();
    case ValueType::kPolygon:
      return AsPolygon()->Mbr();
    case ValueType::kPolyline:
      return AsPolyline()->Mbr();
    case ValueType::kSwissCheese:
      return AsSwissCheese()->Mbr();
    case ValueType::kRaster:
      return AsRaster()->geo;
    default:
      PARADISE_CHECK_MSG(false, "Mbr() on non-spatial value");
      return geom::Box();
  }
}

int Value::Compare(const Value& other) const {
  PARADISE_CHECK_MSG(type() == other.type(), "comparing mixed types");
  auto cmp3 = [](auto a, auto b) { return a < b ? -1 : (b < a ? 1 : 0); };
  switch (type()) {
    case ValueType::kNull: return 0;
    case ValueType::kInt: return cmp3(AsInt(), other.AsInt());
    case ValueType::kDouble: return cmp3(AsDouble(), other.AsDouble());
    case ValueType::kString: return cmp3(AsString(), other.AsString());
    case ValueType::kDate:
      return cmp3(AsDate().days_since_epoch(),
                  other.AsDate().days_since_epoch());
    case ValueType::kPoint: {
      // Lexicographic; points act as group-by keys (e.g. Query 12).
      int cx = cmp3(AsPoint().x, other.AsPoint().x);
      return cx != 0 ? cx : cmp3(AsPoint().y, other.AsPoint().y);
    }
    default:
      PARADISE_CHECK_MSG(false, "Compare() on non-scalar value");
      return 0;
  }
}

bool Value::Equals(const Value& other) const {
  if (type() != other.type()) return false;
  switch (type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
    case ValueType::kDouble:
    case ValueType::kString:
    case ValueType::kDate:
      return Compare(other) == 0;
    case ValueType::kPoint:
      return AsPoint() == other.AsPoint();
    case ValueType::kBox:
      return AsBox() == other.AsBox();
    case ValueType::kCircle:
      return AsCircle().center == other.AsCircle().center &&
             AsCircle().radius == other.AsCircle().radius;
    case ValueType::kPolygon:
      return *AsPolygon() == *other.AsPolygon();
    case ValueType::kPolyline:
      return *AsPolyline() == *other.AsPolyline();
    default:
      return false;  // rasters / swiss-cheese compare by identity only
  }
}

size_t Value::StorageBytes(bool deep) const {
  switch (type()) {
    case ValueType::kNull: return 1;
    case ValueType::kInt: return 8;
    case ValueType::kDouble: return 8;
    case ValueType::kString: return 4 + AsString().size();
    case ValueType::kDate: return 4;
    case ValueType::kPoint: return 16;
    case ValueType::kBox: return 32;
    case ValueType::kCircle: return 24;
    case ValueType::kPolygon:
      return deep ? AsPolygon()->StorageBytes() : 16;
    case ValueType::kPolyline:
      return deep ? AsPolyline()->StorageBytes() : 16;
    case ValueType::kSwissCheese:
      return deep ? AsSwissCheese()->outer().StorageBytes() : 16;
    case ValueType::kRaster:
      // The handle (mapping table) is what lives in the tuple; the tiles
      // never do.
      return AsRaster()->handle.StorageBytes();
  }
  return 0;
}

void Value::Serialize(ByteWriter* w) const {
  w->PutU8(static_cast<uint8_t>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      w->PutI64(AsInt());
      break;
    case ValueType::kDouble:
      w->PutDouble(AsDouble());
      break;
    case ValueType::kString:
      w->PutString(AsString());
      break;
    case ValueType::kDate:
      w->PutI32(AsDate().days_since_epoch());
      break;
    case ValueType::kPoint:
      w->PutDouble(AsPoint().x);
      w->PutDouble(AsPoint().y);
      break;
    case ValueType::kBox: {
      const geom::Box& b = AsBox();
      w->PutDouble(b.xmin);
      w->PutDouble(b.ymin);
      w->PutDouble(b.xmax);
      w->PutDouble(b.ymax);
      break;
    }
    case ValueType::kCircle:
      w->PutDouble(AsCircle().center.x);
      w->PutDouble(AsCircle().center.y);
      w->PutDouble(AsCircle().radius);
      break;
    case ValueType::kPolygon:
      AsPolygon()->Serialize(w);
      break;
    case ValueType::kPolyline:
      AsPolyline()->Serialize(w);
      break;
    case ValueType::kSwissCheese:
      AsSwissCheese()->Serialize(w);
      break;
    case ValueType::kRaster:
      AsRaster()->Serialize(w);
      break;
  }
}

Value Value::Deserialize(ByteReader* r) {
  ValueType t = static_cast<ValueType>(r->GetU8());
  switch (t) {
    case ValueType::kNull:
      return Value();
    case ValueType::kInt:
      return Value(r->GetI64());
    case ValueType::kDouble:
      return Value(r->GetDouble());
    case ValueType::kString:
      return Value(r->GetString());
    case ValueType::kDate:
      return Value(Date(r->GetI32()));
    case ValueType::kPoint: {
      double x = r->GetDouble();
      double y = r->GetDouble();
      return Value(geom::Point{x, y});
    }
    case ValueType::kBox: {
      double x0 = r->GetDouble();
      double y0 = r->GetDouble();
      double x1 = r->GetDouble();
      double y1 = r->GetDouble();
      return Value(geom::Box(x0, y0, x1, y1));
    }
    case ValueType::kCircle: {
      double x = r->GetDouble();
      double y = r->GetDouble();
      double rad = r->GetDouble();
      return Value(geom::Circle(geom::Point{x, y}, rad));
    }
    case ValueType::kPolygon:
      return Value(geom::Polygon::Deserialize(r));
    case ValueType::kPolyline:
      return Value(geom::Polyline::Deserialize(r));
    case ValueType::kSwissCheese:
      return Value(geom::SwissCheesePolygon::Deserialize(r));
    case ValueType::kRaster:
      return Value(array::Raster::Deserialize(r));
  }
  r->Fail();  // unknown value tag
  return Value();
}

bool Value::SkipSerialized(ByteReader* r) {
  const ValueType t = static_cast<ValueType>(r->GetU8());
  switch (t) {
    case ValueType::kNull: return !r->failed();
    case ValueType::kInt:
    case ValueType::kDouble: return r->Skip(8);
    case ValueType::kString: return r->Skip(r->GetU32());
    case ValueType::kDate: return r->Skip(4);
    case ValueType::kPoint: return r->Skip(16);
    case ValueType::kBox: return r->Skip(32);
    case ValueType::kCircle: return r->Skip(24);
    case ValueType::kPolygon:
    case ValueType::kPolyline: return geom::Polyline::SkipSerialized(r);
    case ValueType::kSwissCheese:
    case ValueType::kRaster: return false;
  }
  r->Fail();  // unknown value tag
  return false;
}

std::optional<StoredShape> Value::ReadStoredShape(ByteReader* r) {
  if (static_cast<ValueType>(r->GetU8()) != ValueType::kPolyline) {
    return std::nullopt;
  }
  StoredShape shape;
  const std::optional<uint32_t> points =
      geom::Polyline::DeserializeMbr(r, &shape.mbr);
  if (!points.has_value()) return std::nullopt;
  shape.segments = *points < 2 ? 0 : *points - 1;  // num_segments()
  return shape;
}

std::string Value::ToString() const {
  char buf[64];
  switch (type()) {
    case ValueType::kNull: return "NULL";
    case ValueType::kInt:
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(AsInt()));
      return buf;
    case ValueType::kDouble:
      std::snprintf(buf, sizeof(buf), "%.6g", AsDouble());
      return buf;
    case ValueType::kString: return AsString();
    case ValueType::kDate: return AsDate().ToString();
    case ValueType::kPoint: return AsPoint().ToString();
    case ValueType::kBox: return AsBox().ToString();
    case ValueType::kCircle: return AsCircle().ToString();
    case ValueType::kPolygon:
      std::snprintf(buf, sizeof(buf), "POLYGON[%zu pts]",
                    AsPolygon()->num_points());
      return buf;
    case ValueType::kPolyline:
      std::snprintf(buf, sizeof(buf), "POLYLINE[%zu pts]",
                    AsPolyline()->num_points());
      return buf;
    case ValueType::kSwissCheese:
      std::snprintf(buf, sizeof(buf), "SWISSCHEESE[%zu holes]",
                    AsSwissCheese()->holes().size());
      return buf;
    case ValueType::kRaster:
      std::snprintf(buf, sizeof(buf), "RASTER[%ux%u]", AsRaster()->height(),
                    AsRaster()->width());
      return buf;
  }
  return "?";
}

}  // namespace paradise::exec
