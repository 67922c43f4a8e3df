// Tests for sketch/strata.h: the Eppstein et al. difference-size estimator.
#include <cmath>

#include <gtest/gtest.h>

#include "hashing/hash64.h"
#include "sketch/strata.h"
#include "util/random.h"

namespace rsr {
namespace {

StrataParams MakeParams(uint64_t seed = 5) {
  StrataParams params;
  params.seed = seed;
  return params;
}

TEST(StrataTest, IdenticalSetsEstimateZero) {
  StrataEstimator a(MakeParams()), b(MakeParams());
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    uint64_t k = rng.Next();
    a.Insert(k);
    b.Insert(k);
  }
  auto estimate = a.EstimateDiff(b);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(*estimate, 0u);
}

TEST(StrataTest, SmallDifferenceIsExact) {
  // Differences small enough to decode in every stratum are counted exactly.
  StrataEstimator a(MakeParams()), b(MakeParams());
  Rng rng(2);
  for (int i = 0; i < 300; ++i) {
    uint64_t k = rng.Next();
    a.Insert(k);
    b.Insert(k);
  }
  for (int i = 0; i < 12; ++i) a.Insert(rng.Next());
  for (int i = 0; i < 8; ++i) b.Insert(rng.Next());
  auto estimate = a.EstimateDiff(b);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(*estimate, 20u);
}

TEST(StrataTest, LargeDifferenceWithinFactorTwo) {
  const size_t kDiff = 4000;
  StrataEstimator a(MakeParams(9)), b(MakeParams(9));
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    uint64_t k = rng.Next();
    a.Insert(k);
    b.Insert(k);
  }
  for (size_t i = 0; i < kDiff; ++i) a.Insert(rng.Next());
  auto estimate = a.EstimateDiff(b);
  ASSERT_TRUE(estimate.ok());
  EXPECT_GE(*estimate, kDiff / 2);
  EXPECT_LE(*estimate, kDiff * 2);
}

TEST(StrataTest, EstimateScalesAcrossMagnitudes) {
  // Order-of-magnitude tracking over a sweep.
  for (size_t diff : {100u, 1000u, 10000u}) {
    StrataEstimator a(MakeParams(11)), b(MakeParams(11));
    Rng rng(100 + diff);
    for (size_t i = 0; i < diff; ++i) a.Insert(rng.Next());
    auto estimate = a.EstimateDiff(b);
    ASSERT_TRUE(estimate.ok());
    EXPECT_GE(*estimate, diff / 3) << diff;
    EXPECT_LE(*estimate, diff * 3) << diff;
  }
}

TEST(StrataTest, ParameterMismatchRejected) {
  StrataEstimator a(MakeParams(1)), b(MakeParams(2));
  EXPECT_FALSE(a.EstimateDiff(b).ok());
}

TEST(StrataTest, NumHashesMismatchRejected) {
  // num_hashes changes the peeling hypergraph: subtracting such IBLTs is
  // garbage, so the guard must reject it (it used to compare only
  // num_strata/cells/seed and silently "succeed").
  StrataParams p1 = MakeParams(3);
  StrataParams p2 = MakeParams(3);
  p2.num_hashes = p1.num_hashes + 1;
  StrataEstimator a(p1), b(p2);
  Rng rng(14);
  for (int i = 0; i < 50; ++i) {
    uint64_t k = rng.Next();
    a.Insert(k);
    b.Insert(k);
  }
  auto estimate = a.EstimateDiff(b);
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kInvalidArgument);
}

TEST(StrataTest, ChecksumBytesMismatchRejected) {
  StrataParams p1 = MakeParams(3);
  StrataParams p2 = MakeParams(3);
  p2.checksum_bytes = 8;  // p1 uses the default 4
  StrataEstimator a(p1), b(p2);
  auto estimate = a.EstimateDiff(b);
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kInvalidArgument);
}

TEST(StrataTest, UndecodableFirstStratumNeverEstimatesZero) {
  // Single stratum holding a difference far beyond its cell capacity: the
  // stratum cannot decode and no deeper stratum exists, so the legacy
  // extrapolation returned 0 << 1 == 0 — "no difference" for a difference of
  // a thousand keys, under-provisioning every adaptive consumer. The fix
  // floors the estimate at 1 << (i + 1).
  StrataParams params = MakeParams(15);
  params.num_strata = 1;
  StrataEstimator a(params), b(params);
  Rng rng(16);
  for (int i = 0; i < 1000; ++i) a.Insert(rng.Next());
  auto estimate = a.EstimateDiff(b);
  ASSERT_TRUE(estimate.ok());
  EXPECT_GE(*estimate, 2u);  // the 1 << (i+1) floor at i = 0
}

TEST(StrataTest, ZeroDeepEntriesExtrapolationUsesFloor) {
  // Multi-strata variant: a difference large enough that even the deepest
  // stratum overloads (each stratum samples ~diff/2^{i+1} >> cells). The
  // walk fails at the deepest stratum with zero accumulated entries and
  // must return the floor for that depth, not zero.
  StrataParams params = MakeParams(17);
  params.num_strata = 4;
  params.cells_per_stratum = 16;
  StrataEstimator a(params), b(params);
  Rng rng(18);
  for (int i = 0; i < 20000; ++i) a.Insert(rng.Next());
  auto estimate = a.EstimateDiff(b);
  ASSERT_TRUE(estimate.ok());
  // First failure at i = num_strata - 1 = 3 yields at least 1 << 4.
  EXPECT_GE(*estimate, 16u);
}

TEST(StrataTest, ExtrapolationSaturatesInsteadOfWrapping) {
  // With num_strata = 63 the extrapolation shift reaches 63 bits;
  // exact_from_deeper << 63 used to wrap (e.g. 2 << 63 == 0), collapsing an
  // astronomically large difference estimate to a tiny one.
  using strata_internal::ExtrapolateEstimate;
  const uint64_t kMax = ~uint64_t{0};
  EXPECT_EQ(ExtrapolateEstimate(2, 62), kMax);    // 2 << 63 wrapped to 0
  EXPECT_EQ(ExtrapolateEstimate(3, 62), kMax);    // 3 << 63 wrapped to 1<<63
  EXPECT_EQ(ExtrapolateEstimate(kMax, 0), kMax);  // any shift of UINT64_MAX
  EXPECT_EQ(ExtrapolateEstimate(uint64_t{1} << 40, 30), kMax);
  // Non-saturating cases keep the exact scaling and the nonzero floor.
  EXPECT_EQ(ExtrapolateEstimate(1, 62), uint64_t{1} << 63);
  EXPECT_EQ(ExtrapolateEstimate(0, 62), uint64_t{1} << 63);  // floor
  EXPECT_EQ(ExtrapolateEstimate(3, 3), 48u);
  EXPECT_EQ(ExtrapolateEstimate(0, 0), 2u);
}

TEST(StrataTest, DeepStratumEstimatorStaysSane) {
  // End-to-end with the maximum stratum depth: the estimate must neither
  // error nor wrap to a tiny value for a large difference.
  StrataParams params = MakeParams(23);
  params.num_strata = 63;
  params.cells_per_stratum = 16;
  StrataEstimator a(params), b(params);
  Rng rng(24);
  for (int i = 0; i < 5000; ++i) a.Insert(rng.Next());
  auto estimate = a.EstimateDiff(b);
  ASSERT_TRUE(estimate.ok());
  EXPECT_GE(*estimate, 5000u / 3);
}

TEST(StrataTest, SerializationRoundTrip) {
  StrataParams params = MakeParams(21);
  StrataEstimator a(params);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) a.Insert(rng.Next());
  ByteWriter w;
  a.WriteTo(&w);
  ByteReader r(w.buffer());
  auto restored = StrataEstimator::ReadFrom(&r, params);
  ASSERT_TRUE(restored.ok());
  StrataEstimator empty(params);
  auto original_est = a.EstimateDiff(empty);
  auto restored_est = restored->EstimateDiff(empty);
  ASSERT_TRUE(original_est.ok());
  ASSERT_TRUE(restored_est.ok());
  EXPECT_EQ(*original_est, *restored_est);
}

TEST(StrataTest, CompactEstimatorShipsDenseAndSparseStrata) {
  // Shallow strata hold half, a quarter, ... of the keys and ship dense;
  // deep strata are nearly empty and ship sparse. The codec is explicit, so
  // this runs whatever RSR_WIRE_CODEC selects as the default.
  const StrataParams params = MakeParams(31);
  StrataEstimator alice(params), bob(params);
  Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t key = rng.Next();
    alice.Insert(key);
    if (i % 100 != 0) bob.Insert(key);
  }
  for (int i = 0; i < 10; ++i) bob.Insert(rng.Next());

  ByteWriter w;
  alice.WriteTo(&w, WireCodec::kCompact);
  const std::vector<uint8_t>& wire = w.buffer();

  // Walk the strata one IBLT at a time to read each one's mode byte.
  bool saw_dense = false, saw_sparse = false;
  ByteReader walk(wire);
  for (int i = 0; i < params.num_strata; ++i) {
    IbltParams stratum;
    stratum.num_cells = params.cells_per_stratum;
    stratum.num_hashes = params.num_hashes;
    stratum.checksum_bytes = params.checksum_bytes;
    stratum.seed = HashCombine(params.seed, static_cast<uint64_t>(i));
    const uint8_t mode = wire[wire.size() - walk.remaining()];
    saw_dense |= mode == 0;
    saw_sparse |= mode == 1;
    ASSERT_TRUE(Iblt::ReadFrom(&walk, stratum, WireCodec::kCompact).ok());
  }
  EXPECT_TRUE(walk.FinishAndCheckConsumed().ok());
  EXPECT_TRUE(saw_dense);
  EXPECT_TRUE(saw_sparse);

  ByteReader r(wire);
  auto parsed = StrataEstimator::ReadFrom(&r, params, WireCodec::kCompact);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
  ByteWriter again;
  parsed->WriteTo(&again, WireCodec::kCompact);
  EXPECT_EQ(again.buffer(), wire);
  auto expected = alice.EstimateDiff(bob);
  auto actual = parsed->EstimateDiff(bob);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(*expected, *actual);
}

}  // namespace
}  // namespace rsr
