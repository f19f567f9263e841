#ifndef PARADISE_GEOM_POLYLINE_H_
#define PARADISE_GEOM_POLYLINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "geom/box.h"
#include "geom/point.h"

namespace paradise::geom {

/// An open chain of line segments — roads and drainage features in the
/// benchmark schema. Immutable after construction; the MBR is cached.
class Polyline {
 public:
  Polyline() = default;
  explicit Polyline(std::vector<Point> points);

  const std::vector<Point>& points() const { return points_; }
  size_t num_points() const { return points_.size(); }
  size_t num_segments() const {
    return points_.size() < 2 ? 0 : points_.size() - 1;
  }

  const Box& Mbr() const { return mbr_; }

  double Length() const;

  /// Minimum distance from `p` to any segment of the chain.
  double DistanceTo(const Point& p) const;

  bool Intersects(const Polyline& other) const;
  bool IntersectsBox(const Box& box) const;

  /// Approximate byte footprint when stored in a tuple.
  size_t StorageBytes() const { return 16 + 16 * points_.size(); }

  void Serialize(ByteWriter* w) const;
  static Polyline Deserialize(ByteReader* r);

  /// A point chain (a polyline's points, or a polygon's ring) is stored
  /// as a u32 count, then each point's x and y doubles.
  static void SerializePoints(const std::vector<Point>& points,
                              ByteWriter* w);
  /// Reads a stored chain. No points, with `r` failed, if the count is
  /// larger than the bytes left.
  static std::vector<Point> DeserializePoints(ByteReader* r);
  /// Reads a stored chain's MBR without building the chain: the points
  /// fold through Box::ExpandToInclude in stored order, as the
  /// constructors fold them, so NaN and signed-zero coordinates give the
  /// decoded chain's MBR. Returns the point count, or nullopt (with `r`
  /// failed) if the bytes end early.
  static std::optional<uint32_t> DeserializeMbr(ByteReader* r, Box* mbr);
  /// Advances `r` past a stored chain; false if the bytes end early.
  static bool SkipSerialized(ByteReader* r);

  std::string ToString() const;

  friend bool operator==(const Polyline& a, const Polyline& b) {
    return a.points_ == b.points_;
  }

 private:
  std::vector<Point> points_;
  Box mbr_;
};

}  // namespace paradise::geom

#endif  // PARADISE_GEOM_POLYLINE_H_
