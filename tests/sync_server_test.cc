// SyncServer / SyncSession (core/sync_server.h): prebuilt serving must match
// the one-shot protocol, snapshots must cache per generation and keep serving
// their pinned state across mutations, and concurrent mutate-while-sync must
// be race-free (this file is the CI TSan gate: ctest -R 'Sync').
#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/emd_protocol.h"
#include "core/sync_server.h"
#include "util/random.h"
#include "util/serialize.h"
#include "workload/generators.h"

namespace rsr {
namespace {

EmdProtocolParams ServerParams(uint64_t seed = 31) {
  EmdProtocolParams params;
  params.metric = MetricKind::kL1;
  params.dim = 3;
  params.delta = 1023;
  params.k = 4;
  params.d1 = 1;
  params.d2 = 8;
  params.seed = seed;
  return params;
}

PointStore DistinctPool(size_t count, uint64_t seed) {
  Rng rng(seed);
  PointSet points = GenerateUniform(count * 2, 3, 1023, &rng);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  RSR_CHECK(points.size() >= count);
  points.resize(count);
  for (size_t i = points.size(); i > 1; --i) {
    std::swap(points[i - 1], points[rng.Below(i)]);
  }
  return PointStore::FromPointSet(3, points);
}

TEST(SyncServerTest, SessionMatchesOneShotProtocol) {
  EmdProtocolParams params = ServerParams();
  PointStore pool = DistinctPool(80, 11);
  PointStore alice(3), bob(3);
  for (size_t i = 0; i < 64; ++i) alice.Append(pool[i]);
  for (size_t i = 2; i < 66; ++i) bob.Append(pool[i]);  // 2 rows differ

  auto ds = SyncDataset::Create(alice, params);
  ASSERT_TRUE(ds.ok());
  SyncServer server(std::move(*ds));
  SyncSession session = server.OpenSession();
  auto served = session.Run(bob);
  auto one_shot = RunEmdProtocol(alice, bob, params);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(one_shot.ok());

  EXPECT_EQ(served->failure, one_shot->failure);
  EXPECT_EQ(served->decoded_level, one_shot->decoded_level);
  EXPECT_EQ(served->s_b_prime, one_shot->s_b_prime);
  EXPECT_EQ(served->level_cells, one_shot->level_cells);
  EXPECT_EQ(served->comm.total_bits(), one_shot->comm.total_bits());
  EXPECT_EQ(served->comm.rounds(), one_shot->comm.rounds());
}

TEST(SyncServerTest, SnapshotSerializesIdenticalSketchMessage) {
  EmdProtocolParams params = ServerParams();
  PointStore pool = DistinctPool(48, 12);
  PointStore alice(3);
  for (size_t i = 0; i < 48; ++i) alice.Append(pool[i]);

  auto ds = SyncDataset::Create(alice, params);
  ASSERT_TRUE(ds.ok());
  SyncServer server(std::move(*ds));
  auto snap = server.AcquireSnapshot();
  ByteWriter from_snapshot;
  snap->WriteSketchMessage(&from_snapshot);

  auto cold = BuildEmdSketches(alice, params, /*build_estimators=*/false);
  ASSERT_TRUE(cold.ok());
  ByteWriter from_cold;
  for (const Riblt& table : cold->tables) table.WriteTo(&from_cold);
  EXPECT_EQ(from_snapshot.buffer(), from_cold.buffer());
}

TEST(SyncServerTest, PooledSketchSerializeIsAllocationFreeWhenWarm) {
  for (WireCodec codec : {WireCodec::kClassic, WireCodec::kCompact}) {
    EmdProtocolParams params = ServerParams();
    params.codec = codec;
    PointStore pool = DistinctPool(48, 13);
    PointStore alice(3);
    for (size_t i = 0; i < 48; ++i) alice.Append(pool[i]);

    auto ds = SyncDataset::Create(alice, params);
    ASSERT_TRUE(ds.ok());
    SyncServer server(std::move(*ds));
    auto snap = server.AcquireSnapshot();
    // Warm serve: the first serialize sizes the pooled buffer (the compact
    // writers reserve their exact candidate size up front) and primes the
    // encoders' thread-local scratch.
    ByteWriter pooled;
    snap->WriteSketchMessage(&pooled);
    const size_t warm_bytes = pooled.size_bytes();

    const long long before = testing::AllocationCount();
    pooled.Clear();  // keeps capacity — the EmdServeScratch::message reset
    snap->WriteSketchMessage(&pooled);
    EXPECT_EQ(testing::AllocationCount(), before)
        << "codec " << static_cast<int>(codec)
        << " serialize allocated while warm";
    EXPECT_EQ(pooled.size_bytes(), warm_bytes);
  }
}

TEST(SyncServerTest, SnapshotsCachePerGenerationAndPinTheirState) {
  EmdProtocolParams params = ServerParams();
  PointStore pool = DistinctPool(80, 13);
  PointStore alice(3), bob(3);
  for (size_t i = 0; i < 40; ++i) alice.Append(pool[i]);
  for (size_t i = 1; i < 41; ++i) bob.Append(pool[i]);

  auto ds = SyncDataset::Create(alice, params);
  ASSERT_TRUE(ds.ok());
  SyncServer server(std::move(*ds));

  // Unchanged generation: repeat acquisitions share one snapshot object.
  auto snap1 = server.AcquireSnapshot();
  auto snap2 = server.AcquireSnapshot();
  EXPECT_EQ(snap1.get(), snap2.get());
  const uint64_t gen = server.generation();
  EXPECT_EQ(snap1->generation, gen);

  // A mutation invalidates the cache...
  ASSERT_TRUE(server.Insert(pool[60]).ok());
  EXPECT_EQ(server.generation(), gen + 1);
  auto snap3 = server.AcquireSnapshot();
  EXPECT_NE(snap3.get(), snap1.get());
  EXPECT_EQ(snap3->generation, gen + 1);

  // ...but the old snapshot keeps serving its pinned pre-mutation state.
  SyncSession old_session(snap1);
  auto served = old_session.Run(bob);
  auto one_shot = RunEmdProtocol(alice, bob, params);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(one_shot.ok());
  EXPECT_EQ(served->s_b_prime, one_shot->s_b_prime);
  EXPECT_EQ(served->comm.total_bits(), one_shot->comm.total_bits());

  // The new snapshot's n moved; a stale-sized client is rejected.
  EXPECT_FALSE(SyncSession(snap3).Run(bob).ok());
}

TEST(SyncServerTest, ServedStateTracksBatchedChurn) {
  EmdProtocolParams params = ServerParams();
  PointStore pool = DistinctPool(96, 14);
  PointStore alice(3);
  for (size_t i = 0; i < 48; ++i) alice.Append(pool[i]);
  auto ds = SyncDataset::Create(alice, params);
  ASSERT_TRUE(ds.ok());
  SyncServer server(std::move(*ds));

  // Replace rows 0..7 with rows 48..55 in one atomic batch (n unchanged).
  PointStore ins(3);
  std::vector<uint64_t> dels;
  for (size_t i = 0; i < 8; ++i) {
    ins.Append(pool[48 + i]);
    dels.push_back(server.KeyOf(pool[i]));
  }
  ASSERT_TRUE(server.ApplyBatch(ins, dels).ok());

  PointStore survivors(3);
  for (size_t i = 8; i < 56; ++i) survivors.Append(pool[i]);
  auto served = server.OpenSession().Run(survivors);
  auto one_shot = RunEmdProtocol(survivors, survivors, params);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(one_shot.ok());
  EXPECT_FALSE(served->failure);
  EXPECT_EQ(served->s_b_prime, one_shot->s_b_prime);
  EXPECT_EQ(served->comm.total_bits(), one_shot->comm.total_bits());
}

// One writer thread churns the dataset through the server while reader
// threads continuously open sessions and run full syncs. n is held constant
// (each batch nets to zero) so every session's client size matches; decode
// failures are acceptable outcomes, data races are not.
void RunConcurrentChurnAndSync(WireCodec codec) {
  EmdProtocolParams params = ServerParams();
  params.k = 8;
  params.codec = codec;
  PointStore pool = DistinctPool(260, 15);
  PointStore initial(3), client(3);
  for (size_t i = 0; i < 128; ++i) initial.Append(pool[i]);
  for (size_t i = 0; i < 128; ++i) client.Append(pool[i]);

  auto ds = SyncDataset::Create(initial, params);
  ASSERT_TRUE(ds.ok());
  SyncServer server(std::move(*ds));

  std::atomic<bool> writer_ok{true};
  std::thread writer([&] {
    for (size_t r = 0; r < 60; ++r) {
      PointStore ins(3);
      ins.Append(pool[128 + r]);
      std::vector<uint64_t> dels = {server.KeyOf(pool[r])};
      if (!server.ApplyBatch(ins, dels).ok()) writer_ok = false;
    }
  });

  std::atomic<bool> readers_ok{true};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      // Each simulated client owns its PointStore: Run() lazily builds the
      // store's cached double plane, which is single-threaded per store (the
      // thread-safety contract covers the server's state, not the client's).
      PointStore my_client(3);
      my_client.AppendStore(client);
      for (int r = 0; r < 25; ++r) {
        SyncSession session = server.OpenSession();
        auto report = session.Run(my_client);
        if (!report.ok()) readers_ok = false;  // decode failure is still ok()
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(writer_ok);
  EXPECT_TRUE(readers_ok);
  EXPECT_EQ(server.size(), 128u);
  EXPECT_EQ(server.generation(), 60u);
}

// The test the TSan CI leg gates on. Both codecs run, so the compact
// writers' and readers' per-thread pools are exercised concurrently too.
TEST(SyncServerTest, ConcurrentChurnAndSync) {
  for (WireCodec codec : {WireCodec::kClassic, WireCodec::kCompact}) {
    SCOPED_TRACE(static_cast<int>(codec));
    RunConcurrentChurnAndSync(codec);
  }
}

// ---- Adaptive warm serving (fold-down projection) ---------------------------

EmdProtocolParams AdaptiveServerParams(uint64_t seed = 31) {
  EmdProtocolParams params = ServerParams(seed);
  params.adaptive.enabled = true;
  params.adaptive.rounding = CellRounding::kDivisorLadder;
  return params;
}

TEST(SyncServerAdaptiveTest, SessionMatchesOneShotAdaptiveProtocol) {
  // The tentpole identity: a warm adaptive session — negotiation off
  // maintained estimators, tables FOLDED from the maintained cap — must be
  // transcript byte-identical to the cold adaptive one-shot protocol under
  // the same ladder rounding.
  EmdProtocolParams params = AdaptiveServerParams();
  PointStore pool = DistinctPool(80, 21);
  PointStore alice(3), bob(3);
  // 1 row differs per side: estimate 2 * 36 cells/diff = 72 cells, a proper
  // rung below the 144-cell cap (diff 2 per side would land exactly ON it).
  for (size_t i = 0; i < 64; ++i) alice.Append(pool[i]);
  for (size_t i = 1; i < 65; ++i) bob.Append(pool[i]);

  auto ds = SyncDataset::Create(alice, params);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  SyncServer server(std::move(*ds));
  SyncSession session = server.OpenSession();
  auto served = session.Run(bob);
  auto one_shot = RunEmdProtocol(alice, bob, params);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_TRUE(one_shot.ok());

  EXPECT_EQ(served->failure, one_shot->failure);
  EXPECT_EQ(served->decoded_level, one_shot->decoded_level);
  EXPECT_EQ(served->s_b_prime, one_shot->s_b_prime);
  EXPECT_EQ(served->level_cells, one_shot->level_cells);
  EXPECT_EQ(served->comm.total_bits(), one_shot->comm.total_bits());
  EXPECT_EQ(served->comm.rounds(), one_shot->comm.rounds());

  // The negotiation actually shrank something: a 2-row difference must not
  // provision the static cap at every level.
  const size_t cap = served->derived.cells;
  bool any_below_cap = false;
  for (size_t cells : served->level_cells) {
    EXPECT_LE(cells, cap);
    if (cells < cap) any_below_cap = true;
  }
  EXPECT_TRUE(any_below_cap);

  // Re-serving from the same session reuses the pooled fold scratch and
  // stays deterministic.
  auto again = session.Run(bob);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->comm.total_bits(), served->comm.total_bits());
  EXPECT_EQ(again->s_b_prime, served->s_b_prime);
}

TEST(SyncServerAdaptiveTest, AdaptiveSessionShipsFewerBytesThanStatic) {
  // At a realistic k the negotiated rungs undercut the static cap by far
  // more than the estimator round costs.
  EmdProtocolParams params = AdaptiveServerParams(33);
  params.k = 32;
  PointStore pool = DistinctPool(140, 22);
  PointStore alice(3), bob(3);
  for (size_t i = 0; i < 128; ++i) alice.Append(pool[i]);
  for (size_t i = 2; i < 130; ++i) bob.Append(pool[i]);

  EmdProtocolParams static_params = params;
  static_params.adaptive.enabled = false;

  auto adaptive_ds = SyncDataset::Create(alice, params);
  auto static_ds = SyncDataset::Create(alice, static_params);
  ASSERT_TRUE(adaptive_ds.ok());
  ASSERT_TRUE(static_ds.ok());
  SyncServer adaptive_server(std::move(*adaptive_ds));
  SyncServer static_server(std::move(*static_ds));

  auto adaptive_report = adaptive_server.OpenSession().Run(bob);
  auto static_report = static_server.OpenSession().Run(bob);
  ASSERT_TRUE(adaptive_report.ok()) << adaptive_report.status().ToString();
  ASSERT_TRUE(static_report.ok());
  EXPECT_FALSE(adaptive_report->failure);
  EXPECT_LT(adaptive_report->comm.total_bits(),
            static_report->comm.total_bits());
}

// The adaptive analogue of ConcurrentChurnAndSync — and the reason
// StrataEstimator::EstimateDiff had to become reentrant: concurrent sessions
// negotiate against ONE shared snapshot's estimators while a writer churns
// the live dataset. Each reader owns its session (the fold scratch is
// per-session state); the snapshot underneath is shared.
void RunConcurrentAdaptiveSessions(WireCodec codec) {
  EmdProtocolParams params = AdaptiveServerParams(35);
  params.k = 8;
  params.codec = codec;
  PointStore pool = DistinctPool(260, 23);
  PointStore initial(3), client(3);
  for (size_t i = 0; i < 128; ++i) initial.Append(pool[i]);
  for (size_t i = 0; i < 128; ++i) client.Append(pool[i]);

  auto ds = SyncDataset::Create(initial, params);
  ASSERT_TRUE(ds.ok());
  SyncServer server(std::move(*ds));

  std::atomic<bool> writer_ok{true};
  std::thread writer([&] {
    for (size_t r = 0; r < 60; ++r) {
      PointStore ins(3);
      ins.Append(pool[128 + r]);
      std::vector<uint64_t> dels = {server.KeyOf(pool[r])};
      if (!server.ApplyBatch(ins, dels).ok()) writer_ok = false;
    }
  });

  std::atomic<bool> readers_ok{true};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      PointStore my_client(3);
      my_client.AppendStore(client);
      // One long-lived session per reader: repeated Runs exercise the warm
      // fold-scratch reuse; fresh sessions exercise snapshot sharing.
      SyncSession pinned = server.OpenSession();
      for (int r = 0; r < 25; ++r) {
        auto warm = pinned.Run(my_client);
        if (!warm.ok()) readers_ok = false;
        SyncSession fresh = server.OpenSession();
        auto cold = fresh.Run(my_client);
        if (!cold.ok()) readers_ok = false;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(writer_ok);
  EXPECT_TRUE(readers_ok);
  EXPECT_EQ(server.size(), 128u);
  EXPECT_EQ(server.generation(), 60u);
}

TEST(SyncServerAdaptiveTest, ConcurrentAdaptiveSessions) {
  for (WireCodec codec : {WireCodec::kClassic, WireCodec::kCompact}) {
    SCOPED_TRACE(static_cast<int>(codec));
    RunConcurrentAdaptiveSessions(codec);
  }
}

}  // namespace
}  // namespace rsr
