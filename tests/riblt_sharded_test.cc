// Sharded-vs-sequential byte-identity for the intra-table RIBLT build.
//
// Riblt::UpdateManySharded is a pure re-scheduling of the sequential
// UpdateMany: every cell sees its updates in global key order, so the cell
// slabs — and therefore the WriteTo wire bytes — must match exactly for
// every (num_shards, num_threads) combination, on cold and warm
// (pooled-scratch) calls alike. The basic insert/delete identity is in
// cell_table_test.cc; the protocol test here pins the stronger end-to-end
// form: the full EMD transcript is independent of the sketch_shards knob.
// (The XOR Iblt has no sharded build: no protocol shards one.)
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/emd_protocol.h"
#include "sketch/riblt.h"
#include "util/random.h"
#include "util/serialize.h"
#include "workload/generators.h"

namespace rsr {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 7, 64};
constexpr size_t kThreadCounts[] = {1, 2, 4};

std::vector<uint8_t> Bytes(const Riblt& table) {
  ByteWriter w;
  table.WriteTo(&w);
  return std::vector<uint8_t>(w.buffer().begin(), w.buffer().end());
}

RibltParams MakeRibltParams(size_t cells, size_t dim) {
  RibltParams params;
  params.num_cells = cells;
  params.dim = dim;
  params.delta = 1023;
  params.seed = 99;
  return params;
}

TEST(RibltShardedTest, WarmReuseAndShardCountSwitchesStayIdentical) {
  // One instance driven through several batches with different shard
  // counts: pooled scratch from a previous call must never leak into the
  // next result.
  const size_t dim = 3;
  Rng rng(2);
  Riblt reference(MakeRibltParams(144, dim));
  Riblt table(MakeRibltParams(144, dim));
  for (size_t round = 0; round < 4; ++round) {
    const size_t n = 100 + 37 * round;
    std::vector<uint64_t> keys(n);
    for (auto& k : keys) k = rng.Next();
    PointStore values = GenerateUniformStore(n, dim, 1023, &rng);
    reference.InsertMany(keys, values);
    table.UpdateManySharded(keys, values, +1, kShardCounts[round % 4],
                            kThreadCounts[round % 3]);
    ASSERT_EQ(Bytes(table), Bytes(reference)) << "round " << round;
  }
}

TEST(RibltShardedTest, ShardCountsBeyondCellsClampSafely) {
  const size_t dim = 2;
  Rng rng(3);
  std::vector<uint64_t> keys(41);
  for (auto& k : keys) k = rng.Next();
  PointStore values = GenerateUniformStore(keys.size(), dim, 1023, &rng);
  Riblt reference(MakeRibltParams(9, dim));
  reference.InsertMany(keys, values);
  Riblt table(MakeRibltParams(9, dim));
  table.UpdateManySharded(keys, values, +1, /*num_shards=*/1024,
                          /*num_threads=*/4);
  EXPECT_EQ(Bytes(table), Bytes(reference));
}

void ExpectSameComm(const CommStats& a, const CommStats& b) {
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].label, b.messages[i].label);
    EXPECT_EQ(a.messages[i].bytes, b.messages[i].bytes);
  }
}

TEST(RibltShardedTest, EmdTranscriptIdenticalForEveryShardCount) {
  const size_t dim = 3;
  const Coord delta = 63;
  Rng rng(42);
  PointStore alice = GenerateUniformStore(48, dim, delta, &rng);
  // Bob differs from Alice in row 0 only.
  PointStore bob = GenerateUniformStore(1, dim, delta, &rng);
  for (size_t i = 1; i < alice.size(); ++i) bob.Append(alice[i]);
  EmdProtocolParams params;
  params.metric = MetricKind::kL2;
  params.dim = dim;
  params.delta = delta;
  params.k = 2;
  params.d1 = 1;
  params.d2 = 16;
  params.seed = 1234;
  auto baseline = RunEmdProtocol(alice, bob, params);
  ASSERT_TRUE(baseline.ok());
  for (size_t shards : {size_t{2}, size_t{7}, size_t{64}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      params.sketch_shards = shards;
      params.num_threads = threads;
      auto report = RunEmdProtocol(alice, bob, params);
      ASSERT_TRUE(report.ok());
      EXPECT_EQ(report->failure, baseline->failure);
      EXPECT_EQ(report->decoded_level, baseline->decoded_level);
      EXPECT_EQ(report->x_a, baseline->x_a);
      EXPECT_EQ(report->x_b, baseline->x_b);
      ExpectSameComm(report->comm, baseline->comm);
    }
  }
}

}  // namespace
}  // namespace rsr
