// Point-set helpers for tests: literal stores, a distinct shuffled row pool,
// and a domain check on a protocol report's output set (PointSet).
#ifndef RSR_TESTS_TEST_POINTS_H_
#define RSR_TESTS_TEST_POINTS_H_

#include <initializer_list>
#include <numeric>
#include <utility>
#include <vector>

#include "geometry/point_store.h"
#include "util/random.h"
#include "workload/generators.h"

namespace rsr {
namespace testing {

/// A store holding `rows` in order; every row must have `dim` coordinates.
inline PointStore StoreOf(size_t dim,
                          std::initializer_list<std::initializer_list<Coord>>
                              rows) {
  PointStore store(dim);
  for (const auto& row : rows) {
    RSR_CHECK_EQ(row.size(), dim);
    store.Append(row.begin());
  }
  return store;
}

/// `count` distinct rows of [0, 1023]^3 in a deterministic shuffled order
/// (distinct rows => distinct content-hash keys, which SyncDataset::Create
/// requires).
inline PointStore DistinctPool(size_t count, uint64_t seed) {
  Rng rng(seed);
  PointStore points = GenerateUniformStore(count * 2, 3, 1023, &rng);
  points.SortLexAndDedup();
  RSR_CHECK(points.size() >= count);
  std::vector<size_t> order(count);
  std::iota(order.begin(), order.end(), size_t{0});
  for (size_t i = count; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  PointStore shuffled(3);
  shuffled.Reserve(count);
  for (size_t i : order) shuffled.Append(points[i]);
  return shuffled;
}

/// True iff every row of a report's output set has `dim` coordinates in
/// [0, delta].
inline bool AllInDomain(const PointSet& set, size_t dim, Coord delta) {
  for (const Point& p : set) {
    if (p.dim() != dim || !PointRef(p.coords().data(), dim).InDomain(delta)) {
      return false;
    }
  }
  return true;
}

}  // namespace testing
}  // namespace rsr

#endif  // RSR_TESTS_TEST_POINTS_H_
