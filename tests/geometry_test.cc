// Unit and property tests for geometry/: Point, PointRef, metrics, BitVec.
#include <cmath>

#include <gtest/gtest.h>

#include "geometry/bitvec.h"
#include "geometry/metric.h"
#include "geometry/point.h"
#include "geometry/point_store.h"
#include "test_points.h"
#include "util/random.h"
#include "util/serialize.h"
#include "workload/generators.h"

namespace rsr {
namespace {

using ::rsr::testing::StoreOf;

// ---------------------------------------------------------------- Point --

TEST(PointTest, BasicAccessors) {
  Point p(std::vector<Coord>{1, 2, 3});
  EXPECT_EQ(p.dim(), 3u);
  EXPECT_EQ(p[0], 1);
  EXPECT_EQ(p[2], 3);
}

TEST(PointTest, EqualityAndOrdering) {
  Point a(std::vector<Coord>{1, 2});
  Point b(std::vector<Coord>{1, 2});
  Point c(std::vector<Coord>{1, 3});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
}

// ------------------------------------------------------------- PointRef --

TEST(PointRefTest, InDomain) {
  PointStore rows = StoreOf(3, {{0, 5, 10}, {-1, 0, 0}});
  EXPECT_TRUE(rows[0].InDomain(10));
  EXPECT_FALSE(rows[0].InDomain(9));
  EXPECT_FALSE(rows[1].InDomain(10));
}

TEST(PointRefTest, ContentHashStableAndSaltSensitive) {
  PointStore rows = StoreOf(2, {{4, 5}, {5, 4}});
  EXPECT_EQ(rows[0].ContentHash(1), rows[0].ContentHash(1));
  EXPECT_NE(rows[0].ContentHash(1), rows[0].ContentHash(2));
  EXPECT_NE(rows[0].ContentHash(1), rows[1].ContentHash(1));
}

TEST(PointRefTest, SerializationRoundTrip) {
  PointStore rows = StoreOf(4, {{0, 7, 123456, 3}});
  ByteWriter w;
  rows[0].WriteTo(&w);
  ByteReader r(w.buffer());
  PointStore parsed = PointStore::ReadFrom(&r, 4, 1);
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
  EXPECT_EQ(parsed, rows);
}

TEST(PointRefTest, ToStringReadable) {
  PointStore rows = StoreOf(2, {{1, 2}});
  EXPECT_EQ(rows[0].ToString(), "(1,2)");
}

// -------------------------------------------------------------- Metrics --

TEST(MetricTest, HammingBasics) {
  PointStore rows = StoreOf(4, {{0, 1, 0, 1}, {0, 1, 1, 0}});
  EXPECT_EQ(HammingDistance(rows.row(0), rows.row(1), 4), 2.0);
  EXPECT_EQ(HammingDistance(rows.row(0), rows.row(0), 4), 0.0);
}

TEST(MetricTest, L1Basics) {
  PointStore rows = StoreOf(2, {{0, 0}, {3, -4 + 8}});
  EXPECT_EQ(L1Distance(rows.row(0), rows.row(1), 2), 7.0);
}

TEST(MetricTest, L2Basics) {
  PointStore rows = StoreOf(2, {{0, 0}, {3, 4}});
  EXPECT_DOUBLE_EQ(L2Distance(rows.row(0), rows.row(1), 2), 5.0);
}

TEST(MetricTest, DispatcherMatchesDirectFunctions) {
  PointStore rows = StoreOf(3, {{1, 2, 3}, {3, 2, 1}});
  const Coord* a = rows.row(0);
  const Coord* b = rows.row(1);
  EXPECT_EQ(Metric(MetricKind::kHamming).Distance(rows[0], rows[1]),
            HammingDistance(a, b, 3));
  EXPECT_EQ(Metric(MetricKind::kL1).Distance(rows[0], rows[1]),
            L1Distance(a, b, 3));
  EXPECT_EQ(Metric(MetricKind::kL2).Distance(rows[0], rows[1]),
            L2Distance(a, b, 3));
}

TEST(MetricTest, Diameters) {
  EXPECT_EQ(Metric(MetricKind::kHamming).Diameter(8, 1), 8.0);
  EXPECT_EQ(Metric(MetricKind::kL1).Diameter(3, 10), 30.0);
  EXPECT_DOUBLE_EQ(Metric(MetricKind::kL2).Diameter(4, 10), 20.0);
}

TEST(MetricTest, Names) {
  EXPECT_EQ(Metric(MetricKind::kHamming).Name(), "hamming");
  EXPECT_EQ(Metric(MetricKind::kL1).Name(), "l1");
  EXPECT_EQ(Metric(MetricKind::kL2).Name(), "l2");
}

// Property tests: metric axioms on random triples.
class MetricAxiomsTest : public ::testing::TestWithParam<MetricKind> {};

TEST_P(MetricAxiomsTest, SymmetryIdentityTriangle) {
  Metric metric(GetParam());
  Rng rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    PointStore pts = GenerateUniformStore(3, 6, 50, &rng);
    const PointRef x = pts[0], y = pts[1], z = pts[2];
    EXPECT_DOUBLE_EQ(metric.Distance(x, y), metric.Distance(y, x));
    EXPECT_EQ(metric.Distance(x, x), 0.0);
    EXPECT_GE(metric.Distance(x, y), 0.0);
    EXPECT_LE(metric.Distance(x, z),
              metric.Distance(x, y) + metric.Distance(y, z) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricAxiomsTest,
                         ::testing::Values(MetricKind::kHamming,
                                           MetricKind::kL1, MetricKind::kL2));

// --------------------------------------------------------------- BitVec --

TEST(BitVecTest, SetGetFlip) {
  BitVec bv(130);
  EXPECT_FALSE(bv.Get(129));
  bv.Set(129, true);
  EXPECT_TRUE(bv.Get(129));
  bv.Flip(129);
  EXPECT_FALSE(bv.Get(129));
  bv.Flip(0);
  EXPECT_TRUE(bv.Get(0));
}

TEST(BitVecTest, DistanceMatchesPointHamming) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    size_t bits = 1 + rng.Below(200);
    BitVec a(bits), b(bits);
    std::vector<Coord> a_row(bits), b_row(bits);
    for (size_t i = 0; i < bits; ++i) {
      a.Set(i, (rng.Next() & 1) != 0);
      b.Set(i, (rng.Next() & 1) != 0);
      a_row[i] = a.Get(i) ? 1 : 0;
      b_row[i] = b.Get(i) ? 1 : 0;
    }
    EXPECT_EQ(static_cast<double>(a.DistanceTo(b)),
              HammingDistance(a_row.data(), b_row.data(), bits));
  }
}

TEST(BitVecTest, EqualityRequiresSameLength) {
  BitVec a(10), b(11);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace rsr
