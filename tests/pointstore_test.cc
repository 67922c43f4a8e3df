// PointStore contract tests: the bulk paths (WriteTo, ContentHashMany,
// InDomainAll, SortLex) agree with their per-row PointRef counterparts, the
// reader rejects malformed streams, and the hot paths (Append, EvaluateAllInto,
// Riblt::InsertMany) perform zero per-point allocations (counted via the
// shared operator-new overrides in alloc_counter.cc). The wire bytes and
// content hashes themselves are pinned in golden_classic_test.
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

PointStore WithDuplicatesAndNegatives(size_t n, size_t dim, Rng* rng) {
  PointStore points(dim);
  for (size_t i = 0; i < n; ++i) {
    Coord* row = points.AppendRow();
    for (size_t j = 0; j < dim; ++j) {
      row[j] = rng->UniformInt(-3, 3);  // small alphabet => many duplicates
    }
  }
  return points;
}

TEST(PointStoreTest, SerializationRoundTripsAndMatchesRowWriters) {
  Rng rng(1);
  PointStore store = WithDuplicatesAndNegatives(65, 5, &rng);

  ByteWriter columnar;
  store.WriteTo(&columnar);

  // Per-row writers match (protocols interleave rows with other data).
  ByteWriter row_wise;
  for (size_t i = 0; i < store.size(); ++i) store.WritePointTo(&row_wise, i);
  EXPECT_EQ(columnar.buffer(), row_wise.buffer());
  ByteWriter ref_wise;
  for (size_t i = 0; i < store.size(); ++i) store[i].WriteTo(&ref_wise);
  EXPECT_EQ(columnar.buffer(), ref_wise.buffer());

  ByteReader reader(columnar.buffer());
  PointStore parsed = PointStore::ReadFrom(&reader, 5, store.size());
  ASSERT_TRUE(reader.FinishAndCheckConsumed().ok());
  EXPECT_EQ(parsed, store);
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

TEST(PointStoreTest, ContentHashManyMatchesPerRowContentHash) {
  Rng rng(3);
  PointStore store = GenerateUniformStore(57, 6, 1023, &rng);
  std::vector<uint64_t> store_hashes(store.size());
  store.ContentHashMany(0xabcULL, store_hashes.data());
  for (size_t i = 0; i < store.size(); ++i) {
    ASSERT_EQ(store_hashes[i], store[i].ContentHash(0xabcULL)) << i;
  }
}

TEST(PointStoreTest, SortAndDedupMatchStdSortOnPointSet) {
  Rng rng(4);
  PointStore store = WithDuplicatesAndNegatives(120, 3, &rng);

  PointSet sorted = store.ToPointSet();
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
  PointStore store = WithDuplicatesAndNegatives(40, 4, &rng);
  const PointSet points = store.ToPointSet();
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = 0; j < points.size(); ++j) {
      ASSERT_EQ(store[i] == store[j], points[i] == points[j]);
      ASSERT_EQ(store[i] < store[j], points[i] < points[j]);
    }
  }
}

TEST(PointStoreTest, InDomainAllMatchesPerRowInDomain) {
  Rng rng(6);
  PointStore store = GenerateUniformStore(32, 4, 255, &rng);
  EXPECT_TRUE(store.InDomainAll(255));
  EXPECT_FALSE(store.InDomainAll(254 / 2));  // some coordinate exceeds
  for (Coord delta : {Coord{100}, Coord{254}, Coord{255}}) {
    bool all = true;
    for (size_t i = 0; i < store.size(); ++i) all &= store[i].InDomain(delta);
    EXPECT_EQ(store.InDomainAll(delta), all) << delta;
  }
  ValidatePointStore(store, 4, 255);
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

TEST(PointStoreTest, AppendAfterReserveDoesNotAllocate) {
  Rng rng(8);
  PointStore points = GenerateUniformStore(512, 4, 255, &rng);
  // The arena grab happens in Reserve, outside the measured windows.
  PointStore bulk(4);
  bulk.Reserve(points.size());
  long long before = AllocationCount();
  bulk.AppendStore(points);
  EXPECT_EQ(AllocationCount(), before);
  EXPECT_EQ(bulk, points);

  PointStore rows(4);
  rows.Reserve(2 * points.size());
  before = AllocationCount();
  for (size_t i = 0; i < points.size(); ++i) rows.Append(points.row(i));
  for (size_t i = 0; i < points.size(); ++i) rows.Append(points[i]);
  EXPECT_EQ(AllocationCount(), before);
  EXPECT_EQ(rows.size(), 2 * points.size());
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
  const std::vector<Coord> moved(store.row(7), store.row(7) + 2);
  store.RemoveRowSwap(2);
  EXPECT_EQ(store.size(), 7u);
  EXPECT_EQ(store.cached_plane_rows(), 7u);
  EXPECT_EQ(store[2], PointRef(moved.data(), 2));
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
  EXPECT_EQ(store[0], PointRef(b, 2));
  ExpectPlaneMatchesCoords(store);
}

}  // namespace
}  // namespace rsr
