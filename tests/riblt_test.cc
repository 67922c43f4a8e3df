// Tests for sketch/riblt.h — the paper's Robust IBLT (Section 2.2).
//
// Covers: exact recovery with unique keys, duplicate-key extraction with
// averaging + randomized rounding (requirement 5), the error-propagation
// mechanism (Figure 1), domain clamping, per-side caps, FIFO peeling, and
// serialization, including one fixture per compact layout (dense or sparse,
// count-slope FoR or mod-2^w values) under an explicit codec.
#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "geometry/metric.h"
#include "sketch/riblt.h"
#include "util/random.h"
#include "workload/generators.h"

namespace rsr {
namespace {

RibltParams MakeParams(size_t cells, size_t dim, Coord delta, int q = 3,
                       uint64_t seed = 7) {
  RibltParams params;
  params.num_cells = cells;
  params.num_hashes = q;
  params.dim = dim;
  params.delta = delta;
  params.seed = seed;
  return params;
}

Point P(std::vector<Coord> coords) { return Point(std::move(coords)); }

TEST(RibltTest, EmptyDecodes) {
  Riblt table(MakeParams(36, 2, 10));
  Rng rng(1);
  auto result = table.Decode(100, 100, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->inserted.empty());
  EXPECT_TRUE(result->deleted.empty());
}

TEST(RibltTest, ExactRecoveryUniqueKeys) {
  Riblt table(MakeParams(144, 2, 100));
  std::map<uint64_t, Point> alice = {{11, P({1, 2})}, {22, P({3, 4})}};
  std::map<uint64_t, Point> bob = {{33, P({5, 6})}, {44, P({7, 8})}};
  for (const auto& [k, v] : alice) table.Update(k, v.coords().data(), +1);
  for (const auto& [k, v] : bob) table.Update(k, v.coords().data(), -1);
  Rng rng(2);
  auto result = table.Decode(100, 100, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->inserted.size(), 2u);
  ASSERT_EQ(result->deleted.size(), 2u);
  for (size_t i = 0; i < result->inserted.size(); ++i) {
    EXPECT_EQ(result->inserted.MakePoint(i),
              alice.at(result->inserted_keys[i]));
  }
  for (size_t i = 0; i < result->deleted.size(); ++i) {
    EXPECT_EQ(result->deleted.MakePoint(i), bob.at(result->deleted_keys[i]));
  }
}

TEST(RibltTest, EqualPairsCancelCompletely) {
  Riblt table(MakeParams(72, 3, 50));
  Rng rng(3);
  PointSet points = GenerateUniform(30, 3, 50, &rng);
  for (size_t i = 0; i < points.size(); ++i) {
    table.Update(1000 + i, points[i].coords().data(), +1);
  }
  for (size_t i = 0; i < points.size(); ++i) {
    table.Update(1000 + i, points[i].coords().data(), -1);
  }
  auto result = table.Decode(100, 100, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->inserted.empty());
  EXPECT_TRUE(result->deleted.empty());
}

TEST(RibltTest, DuplicateKeysSameSideAveraged) {
  // Two pairs with the same key and different values: extraction averages
  // (and randomized-rounds); with values 10 and 20 every extracted coordinate
  // must be 15 exactly (integer average).
  Riblt table(MakeParams(36, 1, 100));
  table.Update(77, P({10}).coords().data(), +1);
  table.Update(77, P({20}).coords().data(), +1);
  Rng rng(4);
  auto result = table.Decode(100, 100, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->inserted.size(), 2u);
  for (size_t i = 0; i < result->inserted.size(); ++i) {
    EXPECT_EQ(result->inserted_keys[i], 77u);
    EXPECT_EQ(result->inserted[i][0], 15);
  }
}

TEST(RibltTest, RandomizedRoundingIsUnbiased) {
  // Values 10 and 11 average to 10.5: extraction should round to 10 or 11
  // roughly evenly across decoder seeds.
  int tens = 0, elevens = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Riblt table(MakeParams(36, 1, 100, 3, 7));
    table.Update(5, P({10}).coords().data(), +1);
    table.Update(5, P({11}).coords().data(), +1);
    Rng rng(static_cast<uint64_t>(9000 + trial));
    auto result = table.Decode(10, 10, &rng);
    ASSERT_TRUE(result.ok());
    for (size_t i = 0; i < result->inserted.size(); ++i) {
      if (result->inserted[i][0] == 10) ++tens;
      if (result->inserted[i][0] == 11) ++elevens;
    }
  }
  EXPECT_GT(tens, 250);
  EXPECT_GT(elevens, 250);
  EXPECT_EQ(tens + elevens, 800);
}

TEST(RibltTest, ExtractedValuesClampedToDomain) {
  // A canceled same-key pair leaves a negative error that drags another
  // extraction below 0; the decoder must clamp into [0, delta].
  for (int trial = 0; trial < 50; ++trial) {
    Riblt table(MakeParams(24, 1, 20, 3, static_cast<uint64_t>(100 + trial)));
    table.Update(1, P({0}).coords().data(), +1);
    // Same key, value error -20 left behind.
    table.Update(1, P({20}).coords().data(), -1);
    table.Update(2, P({1}).coords().data(), +1);
    Rng rng(static_cast<uint64_t>(trial));
    auto result = table.Decode(10, 10, &rng);
    if (!result.ok()) continue;
    for (size_t i = 0; i < result->inserted.size(); ++i) {
      EXPECT_GE(result->inserted[i][0], 0);
      EXPECT_LE(result->inserted[i][0], 20);
    }
  }
}

TEST(RibltTest, ErrorPropagationMatchesFigure1) {
  // A canceled pair with value error e in the cells of key 1 contaminates a
  // colliding extraction: total extracted "mass" shifts by e along the
  // peeling cascade, but key identities stay exact.
  Riblt table(MakeParams(24, 1, 100, 3, 12345));
  table.Update(1, P({40}).coords().data(), +1);
  // Error -10 hidden in key 1's cells.
  table.Update(1, P({50}).coords().data(), -1);
  table.Update(2, P({60}).coords().data(), +1);
  table.Update(3, P({70}).coords().data(), +1);
  Rng rng(5);
  auto result = table.Decode(10, 10, &rng);
  ASSERT_TRUE(result.ok());
  std::set<uint64_t> keys;
  int64_t total = 0;
  for (size_t i = 0; i < result->inserted.size(); ++i) {
    keys.insert(result->inserted_keys[i]);
    total += result->inserted[i][0];
  }
  EXPECT_EQ(keys, (std::set<uint64_t>{2, 3}));
  // The -10 error lands on whatever subset of {2,3} shares cells with key 1
  // (possibly neither if no cells collide); mass is 130 minus at most the
  // error once per contaminated extraction, and clamping keeps values valid.
  EXPECT_LE(total, 130);
  EXPECT_GE(total, 90);
}

TEST(RibltTest, MaxPairsCapFails) {
  Riblt table(MakeParams(120, 1, 10));
  for (uint64_t k = 0; k < 20; ++k) {
    table.Update(k + 1, P({1}).coords().data(), +1);
  }
  Rng rng(6);
  auto result = table.Decode(10, 10, &rng);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDecodeFailure);
}

TEST(RibltTest, PerSideCapFails) {
  Riblt table(MakeParams(120, 1, 10));
  for (uint64_t k = 0; k < 8; ++k) {
    table.Update(k + 1, P({1}).coords().data(), +1);
  }
  Rng rng(7);
  auto result = table.Decode(100, 4, &rng);
  EXPECT_FALSE(result.ok());
}

TEST(RibltTest, OverloadedSparseTableFails) {
  // Load far above c = 1/(q(q-1)) leaves a 2-core: decode must fail, not
  // return garbage.
  Riblt table(MakeParams(30, 1, 10));
  Rng seed_rng(8);
  for (int i = 0; i < 60; ++i) {
    table.Update(seed_rng.Next(), P({1}).coords().data(), +1);
  }
  Rng rng(9);
  auto result = table.Decode(1000, 1000, &rng);
  EXPECT_FALSE(result.ok());
}

TEST(RibltTest, MixedCancellationWithNoise) {
  // n pairs with equal keys but values differing by 1 (noise), plus one
  // genuine difference on each side: decode recovers exactly the genuine
  // differences' keys.
  const size_t n = 40;
  Riblt table(MakeParams(9 * 8, 2, 100, 3, 77));
  Rng rng(10);
  PointSet base = GenerateUniform(n, 2, 99, &rng);
  for (size_t i = 0; i < n; ++i) {
    table.Update(100 + i, base[i].coords().data(), +1);
    std::vector<Coord> noisy_coords = base[i].coords();
    noisy_coords[0] = std::min<Coord>(noisy_coords[0] + 1, 100);
    Point noisy(std::move(noisy_coords));
    table.Update(100 + i, noisy.coords().data(), -1);
  }
  table.Update(5000, P({1, 2}).coords().data(), +1);   // Alice-only
  table.Update(6000, P({3, 4}).coords().data(), -1);   // Bob-only
  auto result = table.Decode(8, 4, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->inserted.size(), 1u);
  ASSERT_EQ(result->deleted.size(), 1u);
  EXPECT_EQ(result->inserted_keys[0], 5000u);
  EXPECT_EQ(result->deleted_keys[0], 6000u);
}

TEST(RibltTest, SerializationRoundTrip) {
  RibltParams params = MakeParams(36, 2, 50);
  Riblt table(params);
  table.Update(1, P({10, 20}).coords().data(), +1);
  table.Update(2, P({30, 40}).coords().data(), -1);
  ByteWriter w;
  table.WriteTo(&w);
  ByteReader r(w.buffer());
  auto restored = Riblt::ReadFrom(&r, params);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
  Rng rng1(11), rng2(11);
  auto a = table.Decode(10, 10, &rng1);
  auto b = restored->Decode(10, 10, &rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->inserted.size(), b->inserted.size());
  EXPECT_EQ(a->deleted.size(), b->deleted.size());
}

TEST(RibltTest, StoreNativeResultPreservesPairSemantics) {
  // The store-native result must carry exactly the information the legacy
  // vector<RibltPair> did: row i of `inserted` pairs with inserted_keys[i],
  // and duplicate-key extraction (requirement 5) emits |C| parallel rows of
  // the averaged value. Values 10/20/30 under one key average to exactly 20.
  Riblt table(MakeParams(48, 2, 100, 3, 31));
  table.Update(9, P({10, 10}).coords().data(), +1);
  table.Update(9, P({20, 20}).coords().data(), +1);
  table.Update(9, P({30, 30}).coords().data(), +1);
  table.Update(77, P({5, 6}).coords().data(), -1);
  Rng rng(32);
  auto result = table.Decode(100, 100, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->inserted.size(), 3u);
  ASSERT_EQ(result->inserted_keys.size(), 3u);
  ASSERT_EQ(result->inserted.dim(), 2u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result->inserted_keys[i], 9u);
    EXPECT_EQ(result->inserted[i][0], 20);
    EXPECT_EQ(result->inserted[i][1], 20);
  }
  ASSERT_EQ(result->deleted.size(), 1u);
  ASSERT_EQ(result->deleted_keys.size(), 1u);
  EXPECT_EQ(result->deleted_keys[0], 77u);
  EXPECT_EQ(result->deleted.MakePoint(0), P({5, 6}));
}

TEST(RibltTest, StoreNativeErrorPropagationWithMultipleCopies) {
  // Figure 1's valued error path composed with copies > 1: a canceled
  // equal-key pair hides error -2*E in its cells; a colliding duplicate-key
  // extraction (C = 2 copies of key 2) absorbs whatever part of the error
  // lands in its cells. Whatever the hash layout, key identities stay exact,
  // every row stays in-domain, and the two copies agree (the average is
  // integral or both rows round independently but stay within 1).
  for (int trial = 0; trial < 30; ++trial) {
    Riblt table(MakeParams(24, 1, 100, 3, static_cast<uint64_t>(500 + trial)));
    table.Update(1, P({40}).coords().data(), +1);
    // Error -20 hidden in key 1's cells.
    table.Update(1, P({60}).coords().data(), -1);
    table.Update(2, P({50}).coords().data(), +1);
    table.Update(2, P({50}).coords().data(), +1);  // C = 2 copies, same value
    Rng rng(static_cast<uint64_t>(600 + trial));
    auto result = table.Decode(10, 10, &rng);
    if (!result.ok()) continue;  // mixed-sign cells can legally jam
    ASSERT_EQ(result->inserted.size(), result->inserted_keys.size());
    ASSERT_EQ(result->inserted.size(), 2u) << "trial " << trial;
    for (size_t i = 0; i < result->inserted.size(); ++i) {
      EXPECT_EQ(result->inserted_keys[i], 2u);
      EXPECT_GE(result->inserted[i][0], 0);
      EXPECT_LE(result->inserted[i][0], 100);
      // Error -20 split over 2 copies shifts the average by at most 10.
      EXPECT_GE(result->inserted[i][0], 39);
      EXPECT_LE(result->inserted[i][0], 51);
    }
    EXPECT_TRUE(result->deleted.empty());
    EXPECT_TRUE(result->deleted_keys.empty());
  }
}

TEST(RibltTest, DecodeIntoReusedResultResetsCompletely) {
  // A result warmed by one decode must be fully reset by the next DecodeInto
  // — including across tables of different dimension — with no residue of
  // the previous contents.
  Riblt wide(MakeParams(48, 3, 50, 3, 41));
  wide.Update(5, P({1, 2, 3}).coords().data(), +1);
  wide.Update(6, P({4, 5, 6}).coords().data(), +1);
  RibltDecodeResult result;
  Rng rng1(42);
  ASSERT_TRUE(wide.DecodeInto(10, 10, &rng1, &result).ok());
  ASSERT_EQ(result.inserted.size(), 2u);
  ASSERT_EQ(result.inserted.dim(), 3u);

  Riblt narrow(MakeParams(36, 1, 50, 3, 43));
  narrow.Update(7, P({9}).coords().data(), -1);
  Rng rng2(44);
  ASSERT_TRUE(narrow.DecodeInto(10, 10, &rng2, &result).ok());
  EXPECT_TRUE(result.inserted.empty());
  EXPECT_TRUE(result.inserted_keys.empty());
  ASSERT_EQ(result.deleted.size(), 1u);
  EXPECT_EQ(result.deleted.dim(), 1u);
  EXPECT_EQ(result.deleted_keys[0], 7u);
  EXPECT_EQ(result.deleted[0][0], 9);
}

TEST(RibltTest, FailedDecodeLeavesResultReusable) {
  // A decode that fails its caps mid-peel must not poison the reused result:
  // the next DecodeInto starts from a clean slate.
  Riblt overloaded(MakeParams(120, 1, 10, 3, 45));
  for (uint64_t k = 0; k < 20; ++k) {
    overloaded.Update(k + 1, P({1}).coords().data(), +1);
  }
  RibltDecodeResult result;
  Rng rng1(46);
  EXPECT_FALSE(overloaded.DecodeInto(10, 10, &rng1, &result).ok());

  Riblt clean(MakeParams(36, 1, 10, 3, 47));
  clean.Update(3, P({4}).coords().data(), +1);
  Rng rng2(48);
  ASSERT_TRUE(clean.DecodeInto(10, 10, &rng2, &result).ok());
  EXPECT_TRUE(result.complete);
  ASSERT_EQ(result.inserted.size(), 1u);
  EXPECT_EQ(result.inserted_keys[0], 3u);
  EXPECT_EQ(result.inserted[0][0], 4);
  EXPECT_TRUE(result.deleted.empty());
}

TEST(RibltTest, RequiresQAtLeast3) {
  RibltParams params = MakeParams(36, 1, 10);
  params.num_hashes = 2;
  EXPECT_DEATH(Riblt{params}, "");
}

// Parameterized: exact recovery across sizes at the paper's sparsity
// (m = 4 q^2 k cells for up to 4k pairs).
class RibltSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RibltSizeTest, PaperSizingDecodesReliably) {
  const size_t k = GetParam();
  const int q = 3;
  const size_t cells = 4 * q * q * k;
  int failures = 0;
  const int kTrials = 20;
  for (int trial = 0; trial < kTrials; ++trial) {
    Riblt table(
        MakeParams(cells, 2, 100, q, static_cast<uint64_t>(5000 + trial)));
    Rng rng(static_cast<uint64_t>(6000 + trial));
    // 2k Alice-only and 2k Bob-only pairs (the protocol's worst case).
    for (size_t i = 0; i < 2 * k; ++i) {
      table.Update(rng.Next(),
                   GenerateUniform(1, 2, 100, &rng)[0].coords().data(), +1);
      table.Update(rng.Next(),
                   GenerateUniform(1, 2, 100, &rng)[0].coords().data(), -1);
    }
    auto result = table.Decode(4 * k, 2 * k, &rng);
    if (!result.ok()) {
      ++failures;
      continue;
    }
    if (result->inserted.size() != 2 * k || result->deleted.size() != 2 * k) {
      ++failures;
    }
  }
  EXPECT_LE(failures, 1) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Sizes, RibltSizeTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

// ---- Compact layouts --------------------------------------------------------

/// Row i of `rows` carries key keys[i].
struct KeyedRows {
  std::vector<uint64_t> keys;
  PointStore rows;
};

void AddRows(KeyedRows* out, uint64_t key, size_t copies, size_t dim,
             Coord delta, Rng* rng, const std::vector<Coord>& fixed = {}) {
  for (size_t c = 0; c < copies; ++c) {
    Coord* row = out->rows.AppendRow();
    for (size_t j = 0; j < dim; ++j) {
      row[j] = fixed.empty() ? rng->UniformInt(0, delta) : fixed[j];
    }
    out->keys.push_back(key);
  }
}

/// Alice and Bob share `keys` keys of `copies` rows each (coordinates
/// `fixed`, or uniform in [0, delta] when empty); Alice adds 3 rows of her
/// own and Bob 2 of his.
void FillPair(size_t keys, size_t copies, size_t dim, Coord delta,
              const std::vector<Coord>& fixed, uint64_t seed, KeyedRows* alice,
              KeyedRows* bob) {
  Rng rng(seed);
  alice->rows = PointStore(dim);
  bob->rows = PointStore(dim);
  const uint64_t kKeyMask = (uint64_t{1} << 40) - 1;
  for (size_t k = 0; k < keys; ++k) {
    const uint64_t key = rng.Next() & kKeyMask;
    const size_t begin = alice->rows.size();
    AddRows(alice, key, copies, dim, delta, &rng, fixed);
    for (size_t i = begin; i < alice->rows.size(); ++i) {
      bob->rows.Append(alice->rows[i]);
      bob->keys.push_back(key);
    }
  }
  for (int i = 0; i < 3; ++i) {
    AddRows(alice, rng.Next() & kKeyMask, 1, dim, delta, &rng, fixed);
  }
  for (int i = 0; i < 2; ++i) {
    AddRows(bob, rng.Next() & kKeyMask, 1, dim, delta, &rng);
  }
}

std::vector<uint8_t> SerializeCompact(const Riblt& table) {
  ByteWriter w;
  table.WriteTo(&w, WireCodec::kCompact);
  return w.buffer();
}

/// Alice's compact stream starts with mode byte `mode` (bit 0 sparse, bit 1
/// mod-2^w values) and re-serializes byte-stably after a parse. Once Bob
/// deletes his rows from both, the parse decodes exactly like the source.
void ExpectCompactLayout(const RibltParams& params, const KeyedRows& alice_rows,
                         const KeyedRows& bob, uint8_t mode) {
  Riblt alice(params);
  alice.InsertMany(alice_rows.keys, alice_rows.rows);
  const std::vector<uint8_t> wire = SerializeCompact(alice);
  ASSERT_FALSE(wire.empty());
  EXPECT_EQ(wire[0], mode);
  ByteReader r(wire);
  auto parsed = Riblt::ReadFrom(&r, params, WireCodec::kCompact);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
  EXPECT_EQ(SerializeCompact(*parsed), wire);

  alice.DeleteMany(bob.keys, bob.rows);
  parsed->DeleteMany(bob.keys, bob.rows);
  Rng rng_a(5), rng_b(5);
  auto a = alice.Decode(64, 64, &rng_a);
  auto b = parsed->Decode(64, 64, &rng_b);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->inserted.size(), 3u);
  EXPECT_EQ(a->deleted.size(), 2u);
  EXPECT_EQ(a->inserted, b->inserted);
  EXPECT_EQ(a->deleted, b->deleted);
  EXPECT_EQ(a->inserted_keys, b->inserted_keys);
  EXPECT_EQ(a->deleted_keys, b->deleted_keys);
}

TEST(RibltCompactLayoutTest, LoadedTableWithFlatValuesShipsDenseFor) {
  // Every cell occupied; equal rows make the count-slope residuals zero.
  KeyedRows alice, bob;
  FillPair(120, 1, 2, 1000, {7, 9}, 1, &alice, &bob);
  ExpectCompactLayout(MakeParams(60, 2, 1000), alice, bob, /*mode=*/0);
}

TEST(RibltCompactLayoutTest, LoadedTableWithNoisyValuesShipsDenseMod) {
  // Hundreds of rows per cell: residual spread exceeds the mod width.
  KeyedRows alice, bob;
  FillPair(20000, 1, 4, 1, {}, 2, &alice, &bob);
  ExpectCompactLayout(MakeParams(60, 4, 1), alice, bob, /*mode=*/2);
}

TEST(RibltCompactLayoutTest, LightTableWithFlatValuesShipsSparseFor) {
  KeyedRows alice, bob;
  FillPair(6, 1, 2, 1000, {7, 9}, 3, &alice, &bob);
  ExpectCompactLayout(MakeParams(300, 2, 1000), alice, bob, /*mode=*/1);
}

TEST(RibltCompactLayoutTest, LightTableWithHeavyKeysShipsSparseMod) {
  // A coarse level: few keys, thousands of noisy copies each.
  KeyedRows alice, bob;
  FillPair(8, 2000, 4, 1, {}, 4, &alice, &bob);
  ExpectCompactLayout(MakeParams(300, 4, 1), alice, bob, /*mode=*/3);
}

}  // namespace
}  // namespace rsr
