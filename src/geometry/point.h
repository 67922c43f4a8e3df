// Points of the discretized metric space [Delta]^d.
//
// Coordinates are integers in {0, ..., Delta} (inclusive), matching the
// paper's clamping of extracted RIBLT values into [0, Delta]. Binary Hamming
// space {0,1}^d is the special case Delta = 1.
//
// Every protocol, sketch and generator works on PointStore arenas and
// PointRef row views (point_store.h): hashing, validation, serialization and
// distances are defined there. Point is only the row type of a protocol
// report's output set (PointSet): reports are filled through
// PointStore::MakePoint/ToPointSet and read back through their coordinates,
// equality and order.
#ifndef RSR_GEOMETRY_POINT_H_
#define RSR_GEOMETRY_POINT_H_

#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace rsr {

using Coord = int64_t;

/// One output row: an immutable d-dimensional integer point.
class Point {
 public:
  Point() = default;
  explicit Point(std::vector<Coord> coords) : coords_(std::move(coords)) {}

  size_t dim() const { return coords_.size(); }
  Coord operator[](size_t i) const {
    RSR_DCHECK(i < coords_.size());
    return coords_[i];
  }
  const std::vector<Coord>& coords() const { return coords_; }

  bool operator==(const Point& other) const { return coords_ == other.coords_; }
  bool operator!=(const Point& other) const { return !(*this == other); }
  /// Lexicographic order, the same as PointRef's.
  bool operator<(const Point& other) const { return coords_ < other.coords_; }

 private:
  std::vector<Coord> coords_;
};

/// A protocol report's output set.
using PointSet = std::vector<Point>;

}  // namespace rsr

#endif  // RSR_GEOMETRY_POINT_H_
