// Exhaustive scalar-vs-batch equivalence for the LSH evaluation pipeline.
//
// The batch paths (each family's one batch entry, EvaluateAllInto/
// EvaluateRowsInto, PairwiseVectorHash::EvalPrefixes/EvalBatch,
// PairwiseHash::EvalMany) are pure re-schedulings of the scalar reference
// implementations: every bucket id, prefix key, and protocol transcript must
// be bit-identical for every family, seed, stride, block size, and thread
// count. These tests pin that contract; simd_dispatch_test also sweeps the
// families' batch entries across dims and batch sizes.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/emd_protocol.h"
#include "core/gap_lowdim.h"
#include "core/gap_protocol.h"
#include "core/multiparty.h"
#include "hashing/pairwise.h"
#include "lsh/bit_sampling.h"
#include "lsh/eval_pipeline.h"
#include "lsh/grid.h"
#include "lsh/one_sided_grid.h"
#include "lsh/pstable.h"
#include "setsets/sethash.h"
#include "sketch/ds_bloom.h"
#include "workload/generators.h"

namespace rsr {
namespace {

// All four drawn-function families at a common dimension.
std::vector<std::unique_ptr<LshFamily>> AllFamilies(size_t dim, Coord delta) {
  std::vector<std::unique_ptr<LshFamily>> families;
  families.push_back(std::make_unique<GridFamily>(dim, 17.5));
  families.push_back(std::make_unique<OneSidedGridFamily>(dim, 64.0, 2));
  families.push_back(std::make_unique<PStableFamily>(dim, 9.25));
  families.push_back(std::make_unique<BitSamplingFamily>(
      dim, static_cast<double>(2 * dim)));
  (void)delta;
  return families;
}

// Runs fn's one batch entry over `points` (all of dimension `dim`), writing
// out[i * out_stride]: the flat families read column-major doubles, bit
// sampling reads the row-major Coord arena.
void BatchEval(const LshFunction& fn, const PointSet& points, size_t dim,
               uint64_t* out, size_t out_stride) {
  const size_t n = points.size();
  if (fn.SupportsFlatBatch()) {
    std::vector<double> cols(dim * n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < dim; ++j) {
        cols[j * n + i] = static_cast<double>(points[i][j]);
      }
    }
    fn.EvalColsBatch(cols.data(), n, n, dim, out, out_stride);
  } else {
    std::vector<Coord> arena(n * dim);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < dim; ++j) arena[i * dim + j] = points[i][j];
    }
    fn.EvalCoordBatch(arena.data(), n, dim, out, out_stride);
  }
}

TEST(LshBatchTest, EvalBatchMatchesScalarForAllFamilies) {
  const size_t dim = 6;
  const Coord delta = 1023;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    PointSet points = GenerateUniform(129, dim, delta, &rng);
    for (const auto& family : AllFamilies(dim, delta)) {
      for (int draw = 0; draw < 8; ++draw) {
        std::unique_ptr<LshFunction> fn = family->Draw(&rng);
        std::vector<uint64_t> batch(points.size());
        BatchEval(*fn, points, dim, batch.data(), 1);
        for (size_t i = 0; i < points.size(); ++i) {
          ASSERT_EQ(batch[i], fn->Eval(points[i]))
              << family->Name() << " seed " << seed << " point " << i;
        }
      }
    }
  }
}

TEST(LshBatchTest, EvalBatchHonorsStride) {
  const size_t dim = 4;
  Rng rng(11);
  PointSet points = GenerateUniform(33, dim, 255, &rng);
  for (const auto& family : AllFamilies(dim, 255)) {
    std::unique_ptr<LshFunction> fn = family->Draw(&rng);
    const size_t stride = 7;
    std::vector<uint64_t> strided(points.size() * stride, 0xabababababababab);
    BatchEval(*fn, points, dim, strided.data(), stride);
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(strided[i * stride], fn->Eval(points[i])) << family->Name();
      // Untouched gap entries prove the write pattern is exactly strided.
      if (stride > 1 && i * stride + 1 < strided.size()) {
        EXPECT_EQ(strided[i * stride + 1], 0xababababababababULL);
      }
    }
  }
}

// The flat families take double coordinates (column-major, contiguous
// columns here); bit sampling is the one family without a flat entry.
TEST(LshBatchTest, EvalFlatBatchMatchesScalar) {
  const size_t dim = 6;
  Rng rng(51);
  PointSet points = GenerateUniform(67, dim, 1023, &rng);
  const size_t n = points.size();
  std::vector<double> cols(dim * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      cols[j * n + i] = static_cast<double>(points[i][j]);
    }
  }
  for (const auto& family : AllFamilies(dim, 1023)) {
    std::unique_ptr<LshFunction> fn = family->Draw(&rng);
    if (!fn->SupportsFlatBatch()) {
      EXPECT_EQ(family->Name(), "bit_sampling");  // raw-coordinate family
      continue;
    }
    std::vector<uint64_t> out(n);
    fn->EvalColsBatch(cols.data(), n, n, dim, out.data(), 1);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], fn->Eval(points[i])) << family->Name();
    }
  }
}

TEST(LshBatchTest, EvaluateAllIntoMatchesScalarForEveryThreadCount) {
  const size_t dim = 5;
  Rng rng(21);
  PointSet points = GenerateUniform(97, dim, 511, &rng);
  for (const auto& family : AllFamilies(dim, 511)) {
    Rng draw_rng(31);
    std::vector<std::unique_ptr<LshFunction>> functions =
        DrawMany(*family, 13, &draw_rng);
    // Scalar reference: the historical nested loop.
    std::vector<std::vector<uint64_t>> reference(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      reference[i].resize(functions.size());
      for (size_t g = 0; g < functions.size(); ++g) {
        reference[i][g] = functions[g]->Eval(points[i]);
      }
    }
    PointStore store = PointStore::FromPointSet(dim, points);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      EvalMatrix matrix;
      EvaluateAllInto(store, functions, threads, &matrix);
      ASSERT_EQ(matrix.rows(), points.size());
      ASSERT_EQ(matrix.cols(), functions.size());
      for (size_t i = 0; i < points.size(); ++i) {
        for (size_t g = 0; g < functions.size(); ++g) {
          ASSERT_EQ(matrix.at(i, g), reference[i][g])
              << family->Name() << " threads " << threads;
        }
      }
    }
  }
}

// Wide points shrink the pipeline's blocks: dim 257 gets 15-row blocks, dim
// 1024 4-row blocks, and dim 4097 one-row blocks evaluated in place. Every
// block size, and a one-row range fill, must still equal Eval.
TEST(LshBatchTest, EvaluateAllIntoMatchesScalarAtEveryBlockSize) {
  for (size_t dim : {size_t{257}, size_t{1024}, size_t{4097}}) {
    Rng rng(60 + dim);
    PointSet points = GenerateUniform(37, dim, 1023, &rng);
    PointStore store = PointStore::FromPointSet(dim, points);
    std::vector<std::unique_ptr<LshFamily>> families = AllFamilies(dim, 1023);
    families.pop_back();  // bit sampling reads the arena at any dim
    for (const auto& family : families) {
      std::vector<std::unique_ptr<LshFunction>> functions =
          DrawMany(*family, 5, &rng);
      for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        EvalMatrix matrix;
        EvaluateAllInto(store, functions, threads, &matrix);
        ASSERT_EQ(matrix.rows(), points.size());
        for (size_t i = 0; i < points.size(); ++i) {
          for (size_t g = 0; g < functions.size(); ++g) {
            ASSERT_EQ(matrix.at(i, g), functions[g]->Eval(points[i]))
                << family->Name() << " dim " << dim << " threads " << threads;
          }
        }
        EvalMatrix one_row;
        EvaluateRowsInto(store, 11, 1, functions, threads, &one_row);
        ASSERT_EQ(one_row.rows(), 1u);
        for (size_t g = 0; g < functions.size(); ++g) {
          ASSERT_EQ(one_row.at(0, g), functions[g]->Eval(points[11]))
              << family->Name() << " dim " << dim << " threads " << threads;
        }
      }
    }
  }
}

TEST(LshBatchTest, EvalPrefixesMatchesPerPrefixEval) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 97);
    PairwiseVectorHash hash = PairwiseVectorHash::Draw(&rng);
    std::vector<uint64_t> row(64);
    for (auto& v : row) v = rng.Next();
    // Nondecreasing prefix lengths with duplicates and the full length —
    // the exact shape LevelPrefixLength produces.
    std::vector<size_t> lens = {1, 1, 2, 3, 5, 8, 16, 16, 33, 64};
    std::vector<uint64_t> keys(lens.size());
    hash.EvalPrefixes(row.data(), lens.data(), lens.size(), keys.data());
    for (size_t t = 0; t < lens.size(); ++t) {
      EXPECT_EQ(keys[t], hash.Eval(row, lens[t])) << "prefix " << lens[t];
    }
  }
}

TEST(LshBatchTest, VectorHashEvalBatchMatchesEvalOverRows) {
  Rng rng(5);
  PairwiseVectorHash hash = PairwiseVectorHash::Draw(&rng);
  const size_t n = 41, stride = 12, len = 5, offset = 3;
  std::vector<uint64_t> matrix(n * stride);
  for (auto& v : matrix) v = rng.Next();
  std::vector<uint64_t> out(n);
  hash.EvalBatch(matrix.data() + offset, n, stride, len, out.data());
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint64_t> row(
        matrix.begin() + static_cast<std::ptrdiff_t>(i * stride + offset),
        matrix.begin() +
            static_cast<std::ptrdiff_t>(i * stride + offset + len));
    EXPECT_EQ(out[i], hash.Eval(row, len)) << "row " << i;
  }
}

TEST(LshBatchTest, PairwiseEvalManyMatchesScalar) {
  Rng rng(6);
  PairwiseHash hash = PairwiseHash::Draw(&rng);
  std::vector<uint64_t> xs(257);
  for (auto& x : xs) x = rng.Next();
  std::vector<uint64_t> out(xs.size());
  hash.EvalMany(xs.data(), xs.size(), out.data());
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(out[i], hash.Eval(xs[i]));
  }
  for (int bits : {7, 32, 61}) {
    hash.EvalBitsMany(xs.data(), xs.size(), bits, out.data());
    for (size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(out[i], hash.EvalBits(xs[i], bits)) << bits;
    }
  }
}

TEST(LshBatchTest, BatchSignatureAndContentHashHelpersMatchScalar) {
  Rng rng(7);
  std::vector<SlottedSet> sets(17);
  std::vector<const SlottedSet*> ptrs(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    sets[i].resize(9);
    for (auto& v : sets[i]) v = static_cast<uint32_t>(rng.Next());
    ptrs[i] = &sets[i];
  }
  std::vector<uint64_t> sigs(sets.size());
  SetSignatures(ptrs.data(), ptrs.size(), 0xfeedULL, sigs.data());
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(sigs[i], SetSignature(sets[i], 0xfeedULL));
  }

  PointSet points = GenerateUniform(23, 4, 1023, &rng);
  std::vector<uint64_t> hashes(points.size());
  ContentHashMany(points.data(), points.size(), 0xabcULL, hashes.data());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(hashes[i], points[i].ContentHash(0xabcULL));
  }
}

TEST(LshBatchTest, DsBloomInsertManyMatchesInsert) {
  const size_t dim = 16;
  BitSamplingFamily family(dim, 32.0);
  LshParams lsh;
  lsh.p1 = 0.9;
  lsh.p2 = 0.5;
  DsBloomParams params;
  params.num_banks = 8;
  params.hashes_per_bank = 3;
  params.bits_per_bank = 256;
  params.expected_set_size = 64;
  params.seed = 99;
  DistanceSensitiveBloomFilter one_by_one(family, lsh, params);
  DistanceSensitiveBloomFilter batched(family, lsh, params);
  Rng rng(9);
  PointSet points = GenerateUniform(64, dim, 1, &rng);
  for (const Point& p : points) one_by_one.Insert(p);
  batched.InsertMany(PointStore::FromPointSet(dim, points));
  PointSet queries = GenerateUniform(128, dim, 1, &rng);
  for (const Point& q : queries) {
    ASSERT_EQ(one_by_one.VoteFraction(q), batched.VoteFraction(q));
  }
}

// ---- Protocol-level determinism across thread counts --------------------

void ExpectSameComm(const CommStats& a, const CommStats& b) {
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].label, b.messages[i].label);
    EXPECT_EQ(a.messages[i].bytes, b.messages[i].bytes);
  }
}

TEST(LshBatchTest, EmdTranscriptIdenticalForEveryThreadCount) {
  for (MetricKind metric :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kHamming}) {
    const size_t dim = metric == MetricKind::kHamming ? 64 : 3;
    const Coord delta = metric == MetricKind::kHamming ? 1 : 63;
    Rng rng(42);
    PointSet alice_set = GenerateUniform(48, dim, delta, &rng);
    PointSet bob_set = alice_set;
    bob_set[0] = GenerateUniform(1, dim, delta, &rng)[0];  // one difference
    PointStore alice = PointStore::FromPointSet(dim, alice_set);
    PointStore bob = PointStore::FromPointSet(dim, bob_set);
    EmdProtocolParams params;
    params.metric = metric;
    params.dim = dim;
    params.delta = delta;
    params.k = 2;
    params.d1 = 1;
    params.d2 = 16;
    params.seed = 1234;
    params.num_threads = 1;
    auto baseline = RunEmdProtocol(alice, bob, params);
    ASSERT_TRUE(baseline.ok());
    for (size_t threads : {size_t{2}, size_t{8}}) {
      params.num_threads = threads;
      auto report = RunEmdProtocol(alice, bob, params);
      ASSERT_TRUE(report.ok());
      EXPECT_EQ(report->failure, baseline->failure);
      EXPECT_EQ(report->decoded_level, baseline->decoded_level);
      EXPECT_EQ(report->s_b_prime, baseline->s_b_prime);
      EXPECT_EQ(report->x_a, baseline->x_a);
      EXPECT_EQ(report->x_b, baseline->x_b);
      ExpectSameComm(report->comm, baseline->comm);
    }
  }
}

TEST(LshBatchTest, GapTranscriptIdenticalForEveryThreadCount) {
  Rng rng(43);
  PointStore alice = GenerateUniformStore(32, 128, 1, &rng);
  PointStore bob = GenerateUniformStore(32, 128, 1, &rng);
  GapProtocolParams params;
  params.metric = MetricKind::kHamming;
  params.dim = 128;
  params.delta = 1;
  params.r1 = 2;
  params.r2 = 32;
  params.k = 2;
  params.seed = 77;
  params.num_threads = 1;
  auto baseline = RunGapProtocol(alice, bob, params);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    params.num_threads = threads;
    auto report = RunGapProtocol(alice, bob, params);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->transmitted, baseline->transmitted);
    EXPECT_EQ(report->s_b_prime, baseline->s_b_prime);
    EXPECT_EQ(report->far_keys, baseline->far_keys);
    ExpectSameComm(report->comm, baseline->comm);
  }
}

TEST(LshBatchTest, LowDimGapTranscriptIdenticalForEveryThreadCount) {
  Rng rng(44);
  PointStore alice = GenerateUniformStore(24, 2, 255, &rng);
  PointStore bob = GenerateUniformStore(24, 2, 255, &rng);
  LowDimGapParams params;
  params.metric = MetricKind::kL1;
  params.dim = 2;
  params.delta = 255;
  params.r1 = 2;
  params.r2 = 40;
  params.k = 2;
  params.seed = 55;
  params.num_threads = 1;
  auto baseline = RunLowDimGapProtocol(alice, bob, params);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    params.num_threads = threads;
    auto report = RunLowDimGapProtocol(alice, bob, params);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->transmitted, baseline->transmitted);
    EXPECT_EQ(report->s_b_prime, baseline->s_b_prime);
    ExpectSameComm(report->comm, baseline->comm);
  }
}

TEST(LshBatchTest, MultiPartyIdenticalForEveryThreadCount) {
  Rng rng(45);
  PointSet base = GenerateUniform(20, 3, 127, &rng);
  std::vector<PointSet> party_sets(3, base);
  party_sets[0].pop_back();
  party_sets[1].push_back(GenerateUniform(1, 3, 127, &rng)[0]);
  std::vector<PointStore> parties;
  for (const PointSet& set : party_sets) {
    parties.push_back(PointStore::FromPointSet(3, set));
  }
  MultiPartyParams params;
  params.dim = 3;
  params.delta = 127;
  params.sketch_cells = 36 * 4;
  params.seed = 7;
  params.num_threads = 1;
  auto baseline = RunMultiPartyUnion(parties, params);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    params.num_threads = threads;
    auto report = RunMultiPartyUnion(parties, params);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->all_ok, baseline->all_ok);
    ASSERT_EQ(report->final_sets.size(), baseline->final_sets.size());
    for (size_t i = 0; i < report->final_sets.size(); ++i) {
      EXPECT_EQ(report->party_ok[i], baseline->party_ok[i]);
      EXPECT_EQ(report->final_sets[i], baseline->final_sets[i]);
    }
    ExpectSameComm(report->comm, baseline->comm);
  }
}

}  // namespace
}  // namespace rsr
