// Behaviours of the shared cell-table engine (sketch/cell_table.h). Each
// typed test is one behaviour; the per-table ops below supply only the
// algebra-specific parameters and update calls. The fold walk and the
// sharded build serve only the sum-cell Riblt (the XOR Iblt has neither),
// so those suites run over RibltOps; decode runs over both tables.
//
//   - fold-down projection: byte-identical to a cold build on every divisor
//     rung, rejection of non-divisor and mismatched targets, and a warm
//     FoldInto that allocates nothing;
//   - sharded build: byte-identical to the sequential build for every
//     (num_shards, num_threads);
//   - reentrant decode: four threads decoding one shared Riblt or Iblt each
//     get the sequential result (run under TSan in CI).
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "sketch/iblt.h"
#include "sketch/riblt.h"
#include "util/random.h"
#include "util/serialize.h"
#include "workload/generators.h"

namespace rsr {
namespace {

template <typename Table>
std::vector<uint8_t> Bytes(const Table& table) {
  ByteWriter w;
  table.WriteTo(&w);
  return w.buffer();
}

/// A recorded update stream, replayable against tables of any size: inserts
/// then deletes under distinct random keys. Riblt tables take the points as
/// values; valued Iblt tables derive their value bytes from the key.
struct Stream {
  std::vector<uint64_t> ins_keys, del_keys;
  PointStore ins_points, del_points;
};

Stream MakeStream(size_t n_ins, size_t n_del, size_t dim, Coord delta,
                  uint64_t seed) {
  Rng rng(seed);
  Stream s;
  s.ins_keys.resize(n_ins);
  s.del_keys.resize(n_del);
  for (auto& k : s.ins_keys) k = rng.Next();
  for (auto& k : s.del_keys) k = rng.Next();
  s.ins_points = GenerateUniformStore(n_ins, dim, delta, &rng);
  s.del_points = GenerateUniformStore(n_del, dim, delta, &rng);
  return s;
}

struct RibltOps {
  using Table = Riblt;
  static constexpr int kQ = 3;
  static constexpr size_t kCapCells = 288;  // 96 cells per subtable

  static RibltParams FoldParams(size_t cells, uint64_t seed = 7) {
    RibltParams params;
    params.num_cells = cells;
    params.num_hashes = kQ;
    params.dim = 2;
    params.delta = 100;
    params.seed = seed;
    return params;
  }
  static Stream FoldStream(uint64_t seed) {
    return MakeStream(40, 40, 2, 100, seed);
  }
  /// Targets that differ from FoldParams(cells) in one non-size field.
  static std::vector<Riblt> MismatchedTargets(size_t cells) {
    std::vector<Riblt> out;
    RibltParams p = FoldParams(cells, /*seed=*/8);
    out.emplace_back(p);
    p = FoldParams(cells);
    p.num_hashes = 4;
    p.num_cells = cells / 3 * 4;  // same cells per subtable, different q
    out.emplace_back(p);
    p = FoldParams(cells);
    p.dim = 3;
    out.emplace_back(p);
    p = FoldParams(cells);
    p.delta = 99;
    out.emplace_back(p);
    return out;
  }
  static void Apply(const Stream& s, Riblt* table) {
    for (size_t i = 0; i < s.ins_keys.size(); ++i) {
      table->Update(s.ins_keys[i], s.ins_points.row(i), +1);
    }
    for (size_t i = 0; i < s.del_keys.size(); ++i) {
      table->Update(s.del_keys[i], s.del_points.row(i), -1);
    }
  }

  static RibltParams ShardParams() {
    RibltParams params;
    params.num_cells = 384;
    params.dim = 5;
    params.delta = 1023;
    params.seed = 99;
    return params;
  }
  static Stream ShardStream() { return MakeStream(513, 256, 5, 1023, 1); }
  static void ApplyMany(const Stream& s, Riblt* table) {
    table->UpdateMany(s.ins_keys, s.ins_points, +1);
    table->UpdateMany(s.del_keys, s.del_points, -1);
  }
  static void ApplySharded(const Stream& s, Riblt* table, size_t shards,
                           size_t threads) {
    table->UpdateManySharded(s.ins_keys, s.ins_points, +1, shards, threads);
    table->UpdateManySharded(s.del_keys, s.del_points, -1, shards, threads);
  }
};

template <typename Ops>
class CellTableFoldTest : public ::testing::Test {};
template <typename Ops>
class CellTableShardedTest : public ::testing::Test {};
using TableOps = ::testing::Types<RibltOps>;
TYPED_TEST_SUITE(CellTableFoldTest, TableOps);
TYPED_TEST_SUITE(CellTableShardedTest, TableOps);

TYPED_TEST(CellTableFoldTest, FoldMatchesColdBuildAcrossTheDivisorChain) {
  using Ops = TypeParam;
  using Table = typename Ops::Table;
  const Stream stream = Ops::FoldStream(11);
  Table cap(Ops::FoldParams(Ops::kCapCells));
  Ops::Apply(stream, &cap);
  const size_t q = static_cast<size_t>(Ops::kQ);
  const size_t cap_sub = Ops::kCapCells / q;
  size_t rungs = 0;
  for (size_t d = 1; d <= cap_sub; ++d) {
    if (cap_sub % d != 0) continue;
    ++rungs;
    auto folded = cap.FoldTo(d * q);
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    Table cold(Ops::FoldParams(d * q));
    Ops::Apply(stream, &cold);
    EXPECT_EQ(Bytes(*folded), Bytes(cold)) << "rung " << d * q;
  }
  EXPECT_GE(rungs, 7u);
}

TYPED_TEST(CellTableFoldTest, RejectsNonDivisorAndMismatchedTargets) {
  using Ops = TypeParam;
  using Table = typename Ops::Table;
  const size_t q = static_cast<size_t>(Ops::kQ);
  Table cap(Ops::FoldParams(Ops::kCapCells));
  // 5 cells per subtable does not divide 96.
  EXPECT_FALSE(cap.FoldTo(5 * q).ok());
  // Larger than the source.
  EXPECT_FALSE(cap.FoldTo(2 * Ops::kCapCells).ok());
  // Zero cells.
  EXPECT_FALSE(cap.FoldTo(0).ok());
  for (Table& wrong : Ops::MismatchedTargets(Ops::kCapCells / 4)) {
    EXPECT_FALSE(cap.FoldInto(&wrong).ok());
  }
}

TYPED_TEST(CellTableFoldTest, WarmFoldIntoPerformsZeroAllocations) {
  using Ops = TypeParam;
  using Table = typename Ops::Table;
  const Stream stream = Ops::FoldStream(61);
  Table cap(Ops::FoldParams(Ops::kCapCells));
  Ops::Apply(stream, &cap);
  Table dst(Ops::FoldParams(Ops::kCapCells / 4));
  ASSERT_TRUE(cap.FoldInto(&dst).ok());  // cold: shapes settle
  const long long before = testing::AllocationCount();
  ASSERT_TRUE(cap.FoldInto(&dst).ok());
  EXPECT_EQ(testing::AllocationCount(), before)
      << "warm FoldInto must not allocate";
}

TYPED_TEST(CellTableShardedTest, InsertDeleteMixMatchesSequentialBytes) {
  using Ops = TypeParam;
  using Table = typename Ops::Table;
  const Stream stream = Ops::ShardStream();
  Table reference(Ops::ShardParams());
  Ops::ApplyMany(stream, &reference);
  const std::vector<uint8_t> want = Bytes(reference);
  for (size_t shards : {size_t{1}, size_t{2}, size_t{7}, size_t{64}}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      Table table(Ops::ShardParams());
      Ops::ApplySharded(stream, &table, shards, threads);
      EXPECT_EQ(Bytes(table), want)
          << "shards " << shards << " threads " << threads;
    }
  }
}

TYPED_TEST(CellTableShardedTest, CopiesDoNotCarryShardScratch) {
  // Copying a table whose shard scratch is warm allocates exactly what
  // copying a fresh table does (the cell slabs), and the original, the copy
  // and a copy-assigned table keep building byte-identically.
  using Ops = TypeParam;
  using Table = typename Ops::Table;
  const Stream stream = Ops::ShardStream();
  const Table fresh(Ops::ShardParams());
  long long before = testing::AllocationCount();
  const Table fresh_copy = fresh;
  const long long slab_allocs = testing::AllocationCount() - before;

  Table table(Ops::ShardParams());
  Ops::ApplySharded(stream, &table, 7, 1);
  before = testing::AllocationCount();
  Table copy = table;
  EXPECT_EQ(testing::AllocationCount() - before, slab_allocs);
  Table assigned(Ops::ShardParams());
  assigned = table;
  EXPECT_EQ(Bytes(copy), Bytes(table));
  EXPECT_EQ(Bytes(assigned), Bytes(table));
  Ops::ApplySharded(stream, &table, 7, 1);
  Ops::ApplySharded(stream, &copy, 64, 2);
  Ops::ApplyMany(stream, &assigned);
  EXPECT_EQ(Bytes(copy), Bytes(table));
  EXPECT_EQ(Bytes(assigned), Bytes(table));
}

// ---- Reentrant decode -------------------------------------------------------

constexpr int kDecodeThreads = 4;

TEST(CellTableConcurrentDecodeTest, RibltDecodeIntoMatchesSequential) {
  RibltParams params = RibltOps::FoldParams(288);
  Riblt table(params);
  Rng rng(5);
  PointStore alice = GenerateUniformStore(12, 2, 100, &rng);
  PointStore bob = GenerateUniformStore(9, 2, 100, &rng);
  std::vector<uint64_t> alice_keys(alice.size()), bob_keys(bob.size());
  for (auto& k : alice_keys) k = rng.Next();
  for (auto& k : bob_keys) k = rng.Next();
  table.UpdateMany(alice_keys, alice, +1);
  table.UpdateMany(bob_keys, bob, -1);

  Rng want_rng(6);
  RibltDecodeResult want;
  ASSERT_TRUE(table.DecodeInto(64, 32, &want_rng, &want).ok());
  ASSERT_EQ(want.inserted_keys.size(), alice.size());
  ASSERT_EQ(want.deleted_keys.size(), bob.size());

  std::vector<RibltDecodeResult> got(kDecodeThreads);
  std::vector<Status> status(kDecodeThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kDecodeThreads; ++t) {
    workers.emplace_back([&, t] {
      const size_t slot = static_cast<size_t>(t);
      for (int round = 0; round < 20 && status[slot].ok(); ++round) {
        Rng coins(6);
        status[slot] = table.DecodeInto(64, 32, &coins, &got[slot]);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (size_t t = 0; t < got.size(); ++t) {
    ASSERT_TRUE(status[t].ok()) << "thread " << t;
    EXPECT_TRUE(got[t].complete);
    EXPECT_EQ(got[t].inserted_keys, want.inserted_keys) << "thread " << t;
    EXPECT_EQ(got[t].deleted_keys, want.deleted_keys) << "thread " << t;
    EXPECT_EQ(got[t].inserted, want.inserted) << "thread " << t;
    EXPECT_EQ(got[t].deleted, want.deleted) << "thread " << t;
    EXPECT_EQ(got[t].peel_steps, want.peel_steps);
  }
}

TEST(CellTableConcurrentDecodeTest, IbltDecodeDiffMatchesSequential) {
  IbltParams params;
  params.num_cells = 257;
  params.seed = 17;
  Iblt a(params), b(params);
  Rng rng(7);
  std::vector<uint64_t> shared(100), only_a(6), only_b(5);
  for (auto& k : shared) k = rng.Next();
  for (auto& k : only_a) k = rng.Next();
  for (auto& k : only_b) k = rng.Next();
  a.UpdateMany(shared, +1);
  a.UpdateMany(only_a, +1);
  b.UpdateMany(shared, +1);
  b.UpdateMany(only_b, +1);
  auto want = a.DecodeDiff(b);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(want->complete);

  std::vector<std::vector<uint64_t>> got(kDecodeThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kDecodeThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        auto diff = a.DecodeDiff(b);
        std::vector<uint64_t>& keys = got[static_cast<size_t>(t)];
        keys.clear();
        if (!diff.ok() || !diff->complete) return;
        for (const IbltEntry& e : diff->entries) keys.push_back(e.key);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::vector<uint64_t> want_keys;
  for (const IbltEntry& e : want->entries) want_keys.push_back(e.key);
  for (size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(got[t], want_keys) << "thread " << t;
  }
}

}  // namespace
}  // namespace rsr
