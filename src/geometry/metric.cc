#include "geometry/metric.h"

#include <cmath>
#include <cstdlib>

namespace rsr {

double HammingDistance(const Coord* a, const Coord* b, size_t dim) {
  int64_t count = 0;
  for (size_t i = 0; i < dim; ++i) {
    count += (a[i] != b[i]) ? 1 : 0;
  }
  return static_cast<double>(count);
}

double L1Distance(const Coord* a, const Coord* b, size_t dim) {
  int64_t sum = 0;
  for (size_t i = 0; i < dim; ++i) {
    sum += std::llabs(a[i] - b[i]);
  }
  return static_cast<double>(sum);
}

double L2Distance(const Coord* a, const Coord* b, size_t dim) {
  double sum = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    double diff = static_cast<double>(a[i] - b[i]);
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

double Metric::Distance(const Coord* a, const Coord* b, size_t dim) const {
  switch (kind_) {
    case MetricKind::kHamming:
      return HammingDistance(a, b, dim);
    case MetricKind::kL1:
      return L1Distance(a, b, dim);
    case MetricKind::kL2:
      return L2Distance(a, b, dim);
  }
  RSR_CHECK(false);
  return 0.0;
}

double Metric::Diameter(size_t dim, Coord delta) const {
  switch (kind_) {
    case MetricKind::kHamming:
      return static_cast<double>(dim);
    case MetricKind::kL1:
      return static_cast<double>(dim) * static_cast<double>(delta);
    case MetricKind::kL2:
      return std::sqrt(static_cast<double>(dim)) * static_cast<double>(delta);
  }
  RSR_CHECK(false);
  return 0.0;
}

std::string Metric::Name() const {
  switch (kind_) {
    case MetricKind::kHamming:
      return "hamming";
    case MetricKind::kL1:
      return "l1";
    case MetricKind::kL2:
      return "l2";
  }
  return "unknown";
}

}  // namespace rsr
