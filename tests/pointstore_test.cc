// PointStore contract tests: the columnar arena must be indistinguishable
// from the legacy vector<Point> representation everywhere it matters —
// wire bytes, content hashes, ordering — while the hot paths (AppendMany,
// EvaluateAllInto, Riblt::InsertMany) perform zero per-point allocations
// (counted via the shared operator-new overrides in alloc_counter.cc).
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "geometry/point_store.h"
#include "lsh/bit_sampling.h"
#include "lsh/eval_pipeline.h"
#include "lsh/pstable.h"
#include "sketch/riblt.h"
#include "util/random.h"
#include "util/serialize.h"
#include "workload/generators.h"

namespace rsr {
namespace {

using ::rsr::testing::AllocationCount;

PointSet WithDuplicatesAndNegatives(size_t n, size_t dim, Rng* rng) {
  PointSet points;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Coord> coords(dim);
    for (auto& c : coords) {
      c = rng->UniformInt(-3, 3);  // small alphabet => many duplicates
    }
    points.push_back(Point(std::move(coords)));
  }
  return points;
}

TEST(PointStoreTest, SerializationByteIdenticalToLegacyPointFormat) {
  Rng rng(1);
  PointSet points = WithDuplicatesAndNegatives(65, 5, &rng);
  PointStore store = PointStore::FromPointSet(5, points);

  ByteWriter legacy;
  for (const Point& p : points) p.WriteTo(&legacy);
  ByteWriter columnar;
  store.WriteTo(&columnar);
  ASSERT_EQ(legacy.buffer(), columnar.buffer());

  // Per-row writer matches too (protocols interleave rows with other data).
  ByteWriter row_wise;
  for (size_t i = 0; i < store.size(); ++i) store.WritePointTo(&row_wise, i);
  EXPECT_EQ(legacy.buffer(), row_wise.buffer());

  // Round trip through both readers.
  ByteReader store_reader(columnar.buffer());
  PointStore parsed = PointStore::ReadFrom(&store_reader, 5, points.size());
  ASSERT_TRUE(store_reader.FinishAndCheckConsumed().ok());
  ASSERT_EQ(parsed.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(parsed.MakePoint(i), points[i]) << i;
  }

  // Legacy reader parses the store's bytes.
  ByteReader point_reader(columnar.buffer());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(Point::ReadFrom(&point_reader), points[i]) << i;
  }
  EXPECT_TRUE(point_reader.FinishAndCheckConsumed().ok());
}

TEST(PointStoreTest, ReadFromRejectsDimensionMismatch) {
  Rng rng(2);
  PointStore store = GenerateUniformStore(4, 3, 7, &rng);
  ByteWriter w;
  store.WriteTo(&w);
  ByteReader r(w.buffer());
  PointStore parsed = PointStore::ReadFrom(&r, 4, 4);  // wrong dim
  EXPECT_FALSE(r.status().ok());
}

TEST(PointStoreTest, ReadFromRejectsACountTheStreamCannotHold) {
  // A dim-1 row of zeros is two bytes (varint dim, one coordinate varint),
  // the minimum dim + 1, so ten bytes hold exactly five rows.
  ByteWriter w;
  for (int i = 0; i < 5; ++i) {
    w.PutVarint64(1);
    w.PutSignedVarint64(0);
  }
  ByteReader fits(w.buffer());
  EXPECT_EQ(PointStore::ReadFrom(&fits, 1, 5).size(), 5u);
  EXPECT_TRUE(fits.FinishAndCheckConsumed().ok());

  // A wire count the bytes cannot hold poisons the reader before anything
  // is reserved; 2^40 rows used to throw std::bad_alloc.
  for (size_t count : {size_t{6}, size_t{1} << 40}) {
    ByteReader r(w.buffer());
    PointStore parsed = PointStore::ReadFrom(&r, 1, count);
    EXPECT_TRUE(r.failed()) << count;
    EXPECT_TRUE(parsed.empty()) << count;
  }
}

TEST(PointStoreTest, ContentHashManyMatchesPerPointContentHash) {
  Rng rng(3);
  PointSet points = GenerateUniform(57, 6, 1023, &rng);
  PointStore store = PointStore::FromPointSet(6, points);
  std::vector<uint64_t> store_hashes(store.size());
  store.ContentHashMany(0xabcULL, store_hashes.data());
  std::vector<uint64_t> point_hashes(points.size());
  ContentHashMany(points.data(), points.size(), 0xabcULL,
                  point_hashes.data());
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(store_hashes[i], point_hashes[i]) << i;
    ASSERT_EQ(store_hashes[i], points[i].ContentHash(0xabcULL)) << i;
    ASSERT_EQ(store_hashes[i], store[i].ContentHash(0xabcULL)) << i;
  }
}

TEST(PointStoreTest, SortAndDedupMatchStdSortOnPointSet) {
  Rng rng(4);
  PointSet points = WithDuplicatesAndNegatives(120, 3, &rng);
  PointStore store = PointStore::FromPointSet(3, points);

  PointSet sorted = points;
  std::sort(sorted.begin(), sorted.end());
  PointStore store_sorted = store;
  store_sorted.SortLex();
  ASSERT_EQ(store_sorted.size(), sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(store_sorted.MakePoint(i), sorted[i]) << i;
  }

  PointSet deduped = sorted;
  deduped.erase(std::unique(deduped.begin(), deduped.end()), deduped.end());
  store.SortLexAndDedup();
  ASSERT_EQ(store.size(), deduped.size());
  for (size_t i = 0; i < deduped.size(); ++i) {
    ASSERT_EQ(store.MakePoint(i), deduped[i]) << i;
  }
}

TEST(PointStoreTest, PointRefComparisonsMatchPointSemantics) {
  Rng rng(5);
  PointSet points = WithDuplicatesAndNegatives(40, 4, &rng);
  PointStore store = PointStore::FromPointSet(4, points);
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = 0; j < points.size(); ++j) {
      ASSERT_EQ(store[i] == store[j], points[i] == points[j]);
      ASSERT_EQ(store[i] < store[j], points[i] < points[j]);
    }
  }
}

TEST(PointStoreTest, InDomainAllMatchesPerPointInDomain) {
  Rng rng(6);
  PointStore store = GenerateUniformStore(32, 4, 255, &rng);
  EXPECT_TRUE(store.InDomainAll(255));
  EXPECT_FALSE(store.InDomainAll(254 / 2));  // some coordinate exceeds
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(store[i].InDomain(100), store.MakePoint(i).InDomain(100));
  }
  // ValidatePointStore accepts exactly what ValidatePointSet accepts.
  ValidatePointStore(store, 4, 255);
  ValidatePointSet(store.ToPointSet(), 4, 255);
}

TEST(PointStoreTest, DoublePlaneTracksMutation) {
  Rng rng(7);
  PointStore store = GenerateUniformStore(9, 3, 1000, &rng);
  const double* plane = store.DoublePlane();
  for (size_t i = 0; i < store.size(); ++i) {
    for (size_t j = 0; j < 3; ++j) {
      ASSERT_EQ(plane[i * 3 + j], static_cast<double>(store.row(i)[j]));
    }
  }
  // Mutation invalidates and rebuilds.
  Coord extra[3] = {1, -2, 3};
  store.Append(extra);
  plane = store.DoublePlane();
  EXPECT_EQ(plane[9 * 3 + 1], -2.0);
}

TEST(PointStoreTest, AppendManyAfterReserveDoesNotAllocate) {
  Rng rng(8);
  PointSet points = GenerateUniform(512, 4, 255, &rng);
  PointStore store(4);
  store.Reserve(points.size());
  long long before = AllocationCount();
  store.AppendMany(points);
  EXPECT_EQ(AllocationCount(), before);
  // Raw-row appends are allocation-free too.
  long long before_rows = AllocationCount();
  PointStore copy(4);
  // (construction itself may not allocate; the arena grab below may — so
  // reserve first, outside the measured window)
  copy.Reserve(store.size());
  before_rows = AllocationCount();
  for (size_t i = 0; i < store.size(); ++i) copy.Append(store.row(i));
  EXPECT_EQ(AllocationCount(), before_rows);
  EXPECT_EQ(copy.size(), store.size());
}

TEST(PointStoreTest, WarmEvaluateAllIntoAndInsertManyDoNotAllocate) {
  // The EMD protocol hot path over a store: LSH matrix fill + keyed RIBLT
  // insertion. After one warm-up run (matrix sized, double plane built,
  // store arena final) the whole pipeline must perform ZERO allocations —
  // this is the "per-run flatten copy eliminated" acceptance check.
  Rng rng(9);
  PointStore store = GenerateUniformStore(256, 8, 1023, &rng);
  PStableFamily family(8, 32.0);
  Rng draw_rng(10);
  std::vector<std::unique_ptr<LshFunction>> draws =
      DrawMany(family, 16, &draw_rng);

  EvalMatrix matrix;
  EvaluateAllInto(store, draws, /*num_threads=*/1, &matrix);  // warm-up

  RibltParams params;
  params.num_cells = 288;
  params.num_hashes = 3;
  params.dim = 8;
  params.delta = 1023;
  params.seed = 11;
  Riblt table(params);
  std::vector<uint64_t> keys(store.size());
  store.ContentHashMany(0x5eed, keys.data());

  long long before = AllocationCount();
  EvaluateAllInto(store, draws, /*num_threads=*/1, &matrix);
  store.ContentHashMany(0x5eed, keys.data());
  table.InsertMany(keys, store);
  table.DeleteMany(keys, store);
  EXPECT_EQ(AllocationCount(), before);

  // The integer-coordinate (bit sampling) path is allocation-free too.
  BitSamplingFamily hamming(8, 16.0);
  std::vector<std::unique_ptr<LshFunction>> bit_draws =
      DrawMany(hamming, 16, &draw_rng);
  EvaluateAllInto(store, bit_draws, /*num_threads=*/1, &matrix);  // warm-up
  before = AllocationCount();
  EvaluateAllInto(store, bit_draws, /*num_threads=*/1, &matrix);
  EXPECT_EQ(AllocationCount(), before);

  // Wide points (short blocks at dim 300, one-row in-place blocks at dim
  // 4097) keep the warm fill allocation-free.
  for (size_t wide_dim : {size_t{300}, size_t{4097}}) {
    PointStore wide = GenerateUniformStore(24, wide_dim, 1023, &rng);
    PStableFamily wide_family(wide_dim, 32.0);
    std::vector<std::unique_ptr<LshFunction>> wide_draws =
        DrawMany(wide_family, 8, &draw_rng);
    EvaluateAllInto(wide, wide_draws, /*num_threads=*/1, &matrix);  // warm-up
    before = AllocationCount();
    EvaluateAllInto(wide, wide_draws, /*num_threads=*/1, &matrix);
    EXPECT_EQ(AllocationCount(), before) << "dim " << wide_dim;
  }
}

TEST(PointStoreTest, StoreGeneratorsMatchLegacyGenerators) {
  // Same seed => identical points through either representation (the
  // PointSet generators are adapters over the store-native code).
  Rng rng_a(12);
  Rng rng_b(12);
  PointStore store = GenerateUniformStore(33, 5, 511, &rng_a);
  PointSet points = GenerateUniform(33, 5, 511, &rng_b);
  ASSERT_EQ(store.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(store.MakePoint(i), points[i]) << i;
  }

  NoisyPairConfig config;
  config.metric = MetricKind::kL2;
  config.dim = 3;
  config.delta = 255;
  config.n = 24;
  config.outliers = 2;
  config.noise = 2.0;
  config.outlier_dist = 60;
  config.seed = 4242;
  auto stores = GenerateNoisyPairStore(config);
  auto sets = GenerateNoisyPair(config);
  ASSERT_TRUE(stores.ok());
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(stores->alice.ToPointSet(), sets->alice);
  ASSERT_EQ(stores->bob.ToPointSet(), sets->bob);
  ASSERT_EQ(stores->ground.ToPointSet(), sets->ground);
  ASSERT_EQ(stores->alice_outliers.ToPointSet(), sets->alice_outliers);
  ASSERT_EQ(stores->bob_outliers.ToPointSet(), sets->bob_outliers);

  ClusterConfig clusters;
  clusters.dim = 4;
  clusters.delta = 127;
  clusters.num_clusters = 3;
  clusters.points_per_cluster = 5;
  clusters.seed = 77;
  ASSERT_EQ(GenerateClustersStore(clusters).ToPointSet(),
            GenerateClusters(clusters));
}

// ------------------------------------------- dirty-tail double plane --

void ExpectPlaneMatchesCoords(const PointStore& store) {
  const double* plane = store.DoublePlane();
  ASSERT_EQ(store.cached_plane_rows(), store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    for (size_t j = 0; j < store.dim(); ++j) {
      ASSERT_EQ(plane[i * store.dim() + j],
                static_cast<double>(store.row(i)[j]))
          << "row " << i << " dim " << j;
    }
  }
}

TEST(PointStoreTest, AppendKeepsTheCleanPlanePrefix) {
  Rng rng(31);
  PointStore store = GenerateUniformStore(6, 3, 1000, &rng);
  EXPECT_EQ(store.cached_plane_rows(), 0u);  // lazily built
  store.DoublePlane();
  EXPECT_EQ(store.cached_plane_rows(), 6u);

  // Appends leave the watermark (and the converted prefix) in place...
  Coord extra[3] = {4, 5, 6};
  store.Append(extra);
  store.AppendRow()[0] = 7;
  EXPECT_EQ(store.cached_plane_rows(), 6u);
  // ...and the next DoublePlane() converts exactly the tail.
  ExpectPlaneMatchesCoords(store);

  // Row-rewriting mutations still drop the whole cache.
  store.SortLex();
  EXPECT_EQ(store.cached_plane_rows(), 0u);
  ExpectPlaneMatchesCoords(store);

  // Truncate keeps the surviving prefix converted.
  store.Truncate(3);
  EXPECT_EQ(store.cached_plane_rows(), 3u);
  ExpectPlaneMatchesCoords(store);
}

TEST(PointStoreTest, RemoveRowSwapKeepsThePlaneValid) {
  Rng rng(32);
  PointStore store = GenerateUniformStore(8, 2, 500, &rng);
  store.DoublePlane();

  // Swap-remove inside the converted prefix: plane row patched in place.
  Point moved = store.MakePoint(7);
  store.RemoveRowSwap(2);
  EXPECT_EQ(store.size(), 7u);
  EXPECT_EQ(store.cached_plane_rows(), 7u);
  EXPECT_EQ(store.MakePoint(2), moved);
  ExpectPlaneMatchesCoords(store);

  // Removing the last row just shrinks the watermark.
  store.RemoveRowSwap(store.size() - 1);
  EXPECT_EQ(store.cached_plane_rows(), 6u);
  ExpectPlaneMatchesCoords(store);

  // Swap-remove that moves an UNCONVERTED tail row into the converted
  // prefix: the implementation must convert it on the spot.
  Coord a[2] = {11, -3};
  Coord b[2] = {21, 9};
  store.Append(a);
  store.Append(b);
  ASSERT_LT(store.cached_plane_rows(), store.size());
  store.RemoveRowSwap(0);
  EXPECT_EQ(store.MakePoint(0), Point({21, 9}));
  ExpectPlaneMatchesCoords(store);
}

}  // namespace
}  // namespace rsr
