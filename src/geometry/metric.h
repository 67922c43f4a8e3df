// Metrics over [Delta]^d: Hamming, l1, l2.
//
// The paper's protocols are parameterized by (U, f) with f an l_p metric or
// Hamming distance; all three appear in its corollaries (2.3/2.4/2.5,
// 3.5/3.6, 4.3/4.4). Distances are returned as double; Hamming and l1 values
// are exact integers representable in double for all laptop-scale inputs.
#ifndef RSR_GEOMETRY_METRIC_H_
#define RSR_GEOMETRY_METRIC_H_

#include <string>

#include "geometry/point_store.h"

namespace rsr {

enum class MetricKind {
  kHamming,
  kL1,
  kL2,
};

/// Row-level distances. `a` and `b` point at `dim` coordinates each (a
/// PointStore row or any other contiguous span).
double HammingDistance(const Coord* a, const Coord* b, size_t dim);
double L1Distance(const Coord* a, const Coord* b, size_t dim);
double L2Distance(const Coord* a, const Coord* b, size_t dim);

/// A value-type metric dispatcher.
class Metric {
 public:
  explicit Metric(MetricKind kind) : kind_(kind) {}

  MetricKind kind() const { return kind_; }
  double Distance(const Coord* a, const Coord* b, size_t dim) const;
  double Distance(PointRef a, PointRef b) const {
    RSR_DCHECK(a.dim() == b.dim());
    return Distance(a.data(), b.data(), a.dim());
  }

  /// Diameter of [0,delta]^d under this metric.
  double Diameter(size_t dim, Coord delta) const;

  std::string Name() const;

 private:
  MetricKind kind_;
};

}  // namespace rsr

#endif  // RSR_GEOMETRY_METRIC_H_
