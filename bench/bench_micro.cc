// Experiment E11: microbenchmarks (google-benchmark) for the hashing, LSH,
// sketch, and matching primitives — the engineering baseline behind the
// protocol-level time bounds of Theorems 3.4 and 4.2.
#include <map>
#include <memory>

#include <benchmark/benchmark.h>

#include "core/gap_protocol.h"
#include "core/sync_dataset.h"
#include "core/sync_server.h"
#include "emd/emd.h"
#include "hashing/hash64.h"
#include "lsh/batch_kernels.h"
#include "hashing/kindependent.h"
#include "hashing/pairwise.h"
#include "hashing/tabulation.h"
#include "lsh/bit_sampling.h"
#include "lsh/eval_pipeline.h"
#include "lsh/grid.h"
#include "lsh/mlsh.h"
#include "lsh/pstable.h"
#include "sketch/iblt.h"
#include "sketch/riblt.h"
#include "util/cpu_features.h"
#include "util/random.h"
#include "workload/generators.h"

namespace rsr {
namespace {

void BM_Mix64(benchmark::State& state) {
  uint64_t x = 12345;
  for (auto _ : state) {
    x = Mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_PairwiseHash(benchmark::State& state) {
  Rng rng(1);
  PairwiseHash h = PairwiseHash::Draw(&rng);
  uint64_t x = 999;
  for (auto _ : state) {
    x = h.Eval(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_PairwiseHash);

void BM_KIndependentHash(benchmark::State& state) {
  Rng rng(2);
  KIndependentHash h = KIndependentHash::Draw(static_cast<int>(state.range(0)),
                                              &rng);
  uint64_t x = 999;
  for (auto _ : state) {
    x = h.Eval(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_KIndependentHash)->Arg(3)->Arg(5);

void BM_TabulationHash(benchmark::State& state) {
  Rng rng(3);
  TabulationHash h = TabulationHash::Draw(&rng);
  uint64_t x = 999;
  for (auto _ : state) {
    x = h.Eval(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_TabulationHash);

void BM_PairwiseVectorHash(benchmark::State& state) {
  Rng rng(4);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  std::vector<uint64_t> v(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < v.size(); ++i) v[i] = i * 7919;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Eval(v));
  }
}
BENCHMARK(BM_PairwiseVectorHash)->Arg(8)->Arg(64);

void BM_LshEval(benchmark::State& state, const LshFamily& family,
                size_t dim, Coord delta) {
  Rng rng(5);
  auto h = family.Draw(&rng);
  Point p = GenerateUniform(1, dim, delta, &rng)[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(h->Eval(p));
  }
}

void BM_BitSamplingEval(benchmark::State& state) {
  BitSamplingFamily family(256, 512.0);
  BM_LshEval(state, family, 256, 1);
}
BENCHMARK(BM_BitSamplingEval);

void BM_GridEval(benchmark::State& state) {
  GridFamily family(8, 32.0);
  BM_LshEval(state, family, 8, 1023);
}
BENCHMARK(BM_GridEval);

void BM_PStableEval(benchmark::State& state) {
  PStableFamily family(8, 32.0);
  BM_LshEval(state, family, 8, 1023);
}
BENCHMARK(BM_PStableEval);

// ---- Batched LSH evaluation pipeline (bench_lsh group) ---------------------
//
// BM_EvaluateAll is the shipping pipeline (EvaluateAllInto: one batch call
// per (function, block) into one flat matrix); BM_PairwisePrefixes derives
// every level key of a row in one incremental pass.

void BM_PairwisePrefixes(benchmark::State& state) {
  // All 8 level keys of one s=64 row in a single incremental pass.
  Rng rng(4);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  std::vector<uint64_t> row(64);
  for (size_t i = 0; i < row.size(); ++i) row[i] = i * 7919;
  const std::vector<size_t> lens = {1, 2, 4, 8, 16, 32, 64, 64};
  std::vector<uint64_t> keys(lens.size());
  for (auto _ : state) {
    h.EvalPrefixes(row.data(), lens.data(), lens.size(), keys.data());
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PairwisePrefixes);

void BM_EvaluateAll(benchmark::State& state) {
  // The EMD protocol's point-hashing stage: n=4096 points x s=64 MLSH draws
  // (2-stable family, the bench_emd_l2 configuration) via the batch
  // pipeline, fed from a scattered PointSet. The per-iteration copy into a
  // fresh arena reproduces what the retired EvaluateAllInto(PointSet)
  // adapter paid, so the BM_StoreEvaluateAll comparison stays meaningful.
  // Time is per full matrix; items/sec counts (point, draw) pairs.
  Rng rng(16);
  std::unique_ptr<MlshFamily> family = MakeMlshFamily(MetricKind::kL2, 8, 32.0);
  Rng draw_rng(17);
  std::vector<std::unique_ptr<LshFunction>> draws =
      DrawMany(*family, 64, &draw_rng);
  PointSet points = GenerateUniform(4096, 8, 1023, &rng);
  EvalMatrix matrix;
  for (auto _ : state) {
    PointStore store(8);
    store.AppendMany(points);
    EvaluateAllInto(store, draws, /*num_threads=*/1, &matrix);
    benchmark::DoNotOptimize(matrix.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(points.size() * draws.size()));
}
BENCHMARK(BM_EvaluateAll);

// ---- Columnar PointStore (bench_pointstore group) --------------------------
//
// BM_StoreEvaluateAll is the store-native protocol hot path: the double
// plane is built once per store, so a warm fill does zero per-point work
// beyond the kernels themselves. Compare against BM_EvaluateAll (the
// PointSet adapter, which copies into a temporary arena per call).

void BM_PointStoreAppend(benchmark::State& state) {
  // Per-point append rate into a reserved arena (the generator hot path).
  Rng rng(18);
  PointStore source = GenerateUniformStore(4096, 8, 1023, &rng);
  PointStore store(8);
  store.Reserve(source.size());
  for (auto _ : state) {
    store.Clear();
    store.Reserve(source.size());
    for (size_t i = 0; i < source.size(); ++i) store.Append(source.row(i));
    benchmark::DoNotOptimize(store.coord_data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(source.size()));
}
BENCHMARK(BM_PointStoreAppend);

void BM_StoreEvaluateAll(benchmark::State& state) {
  // BM_EvaluateAll's configuration (n=4096 x s=64, 2-stable) on the
  // store-native path: no flatten copy, cached double plane.
  Rng rng(16);
  std::unique_ptr<MlshFamily> family = MakeMlshFamily(MetricKind::kL2, 8, 32.0);
  Rng draw_rng(17);
  std::vector<std::unique_ptr<LshFunction>> draws =
      DrawMany(*family, 64, &draw_rng);
  PointStore points = GenerateUniformStore(4096, 8, 1023, &rng);
  points.DoublePlane();  // built once per store, as in the protocols
  EvalMatrix matrix;
  for (auto _ : state) {
    EvaluateAllInto(points, draws, /*num_threads=*/1, &matrix);
    benchmark::DoNotOptimize(matrix.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(points.size() * draws.size()));
}
BENCHMARK(BM_StoreEvaluateAll);

void BM_IbltInsert(benchmark::State& state) {
  IbltParams params;
  params.num_cells = 1024;
  params.seed = 6;
  Iblt table(params);
  uint64_t key = 1;
  for (auto _ : state) {
    table.Insert(key++);
  }
}
BENCHMARK(BM_IbltInsert);

void BM_IbltUpdate(benchmark::State& state) {
  // The raw hot-path entry point (Insert/Delete are thin wrappers over it).
  IbltParams params;
  params.num_cells = 1024;
  params.seed = 6;
  Iblt table(params);
  uint64_t key = 1;
  for (auto _ : state) {
    table.Update(key++, nullptr, +1);
  }
}
BENCHMARK(BM_IbltUpdate);

void BM_IbltUpdateMany(benchmark::State& state) {
  // Batched bucket insertion. Time is per 512-key batch; the per-key rate
  // is the items_per_second counter.
  IbltParams params;
  params.num_cells = 1024;
  params.seed = 6;
  Iblt table(params);
  std::vector<uint64_t> keys(512);
  Rng rng(60);
  for (auto& k : keys) k = rng.Next();
  for (auto _ : state) {
    table.UpdateMany(keys, +1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_IbltUpdateMany);

void BM_IbltInsertKv(benchmark::State& state) {
  // Keyed-value path: 32-byte payload XORed through the raw span API.
  IbltParams params;
  params.num_cells = 1024;
  params.value_size = 32;
  params.seed = 61;
  Iblt table(params);
  uint8_t value[32];
  for (size_t i = 0; i < sizeof(value); ++i) value[i] = static_cast<uint8_t>(i);
  uint64_t key = 1;
  for (auto _ : state) {
    table.Update(key++, value, +1);
  }
}
BENCHMARK(BM_IbltInsertKv);

void BM_IbltDecode(benchmark::State& state) {
  IbltParams params;
  params.num_cells = 1024;
  params.seed = 7;
  Iblt table(params);
  Rng rng(8);
  for (int i = 0; i < 512; ++i) table.Insert(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Decode());
  }
}
BENCHMARK(BM_IbltDecode);

void BM_IbltDecodeDiff(benchmark::State& state) {
  // Strata-style peel of (A - B) without materializing the difference.
  IbltParams params;
  params.num_cells = 1024;
  params.seed = 7;
  Iblt a(params), b(params);
  Rng rng(9);
  for (int i = 0; i < 2048; ++i) {
    uint64_t key = rng.Next();
    a.Insert(key);
    b.Insert(key);
  }
  for (int i = 0; i < 256; ++i) a.Insert(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.DecodeDiff(b));
  }
}
BENCHMARK(BM_IbltDecodeDiff);

void BM_RibltInsert(benchmark::State& state) {
  RibltParams params;
  params.num_cells = 288;  // 4 q^2 k with q=3, k=8
  params.dim = 8;
  params.delta = 1023;
  params.seed = 9;
  Riblt table(params);
  Rng rng(10);
  Point p = GenerateUniform(1, 8, 1023, &rng)[0];
  uint64_t key = 1;
  for (auto _ : state) {
    table.Update(key++, p.coords().data(), +1);
  }
}
BENCHMARK(BM_RibltInsert);

void BM_RibltDecode(benchmark::State& state) {
  // Convenience-wrapper decode: a fresh RibltDecodeResult per call, so every
  // iteration pays the result's arena/key-vector allocations. Baseline for
  // BM_RibltDecodeStore.
  RibltParams params;
  params.num_cells = 288;
  params.dim = 8;
  params.delta = 1023;
  params.seed = 11;
  Riblt table(params);
  Rng rng(12);
  for (int i = 0; i < 16; ++i) {
    table.Update(rng.Next(),
                 GenerateUniform(1, 8, 1023, &rng)[0].coords().data(), +1);
  }
  for (auto _ : state) {
    Rng decode_rng(13);
    benchmark::DoNotOptimize(table.Decode(64, 32, &decode_rng));
  }
}
BENCHMARK(BM_RibltDecode);

void BM_RibltDecodeStore(benchmark::State& state) {
  // Store-native decode on a reused result (the EMD protocol's per-level
  // loop): after the first call the arenas and key vectors are warm, so the
  // whole peel runs with zero heap allocations. Same table/coins as
  // BM_RibltDecode; the delta against it is pure allocation cost.
  RibltParams params;
  params.num_cells = 288;
  params.dim = 8;
  params.delta = 1023;
  params.seed = 11;
  Riblt table(params);
  Rng rng(12);
  for (int i = 0; i < 16; ++i) {
    table.Update(rng.Next(),
                 GenerateUniform(1, 8, 1023, &rng)[0].coords().data(), +1);
  }
  RibltDecodeResult result;
  for (auto _ : state) {
    Rng decode_rng(13);
    benchmark::DoNotOptimize(table.DecodeInto(64, 32, &decode_rng, &result));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RibltDecodeStore);

void BM_RibltBuildSharded(benchmark::State& state) {
  // Building one LARGE RIBLT (2^23 cells x dim=8 values, ~830 MB of cell
  // slabs — several times the LLC) from 2^20 keys. Arg = num_shards: 1 is
  // the classic sequential UpdateMany; higher counts run the partitioned
  // build (hash once, bucket the updates by cell block, apply per shard),
  // whose cell writes stay inside one L2-sized block slice at a time
  // instead of random-walking the whole table. Wire bytes are identical for
  // every shard count. Shards write disjoint cell ranges with no
  // coordination, so on a multi-core host wall-clock scales near-linearly
  // with min(shards, cores); single-core the partitioning alone is a
  // constant-factor win that depends on how latency-bound the host's
  // memory system is. Each iteration inserts then deletes the full key set,
  // returning the table to the empty state without reallocating; items/sec
  // counts the 2n cell-update batches.
  const size_t num_shards = static_cast<size_t>(state.range(0));
  RibltParams params;
  params.num_cells = size_t{1} << 23;
  params.dim = 8;
  params.delta = 1023;
  params.seed = 21;
  Riblt table(params);
  Rng rng(22);
  const size_t n = size_t{1} << 20;
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.Next();
  PointStore values = GenerateUniformStore(n, 8, 1023, &rng);
  for (auto _ : state) {
    table.UpdateManySharded(keys, values, +1, num_shards, /*num_threads=*/1);
    table.UpdateManySharded(keys, values, -1, num_shards, /*num_threads=*/1);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * n));
}
BENCHMARK(BM_RibltBuildSharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Fold-down projection of a cap-size table to a ladder rung — the warm
/// adaptive serving hot path. Arg = number of keys built into the source
/// table; the fold touches CELLS, not keys, so the three timings must be
/// flat across n (that n-independence is the whole point of serving folds
/// instead of rebuilds). Cap = 9216 cells (c q^2 k at q=3, k=256), rung =
/// 1152 cells (divisor 384 of the 3072 cells per subtable).
void BM_RibltFold(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  RibltParams params;
  params.num_cells = 9216;
  params.num_hashes = 3;
  params.dim = 4;
  params.delta = 1023;
  params.seed = 31;
  static auto* sources = new std::map<size_t, Riblt>();
  auto it = sources->find(n);
  if (it == sources->end()) {
    Riblt table(params);
    Rng rng(32);
    std::vector<uint64_t> keys(n);
    for (auto& k : keys) k = rng.Next();
    PointStore values = GenerateUniformStore(n, 4, 1023, &rng);
    table.InsertMany(keys, values);
    it = sources->emplace(n, std::move(table)).first;
  }
  RibltParams rung = params;
  rung.num_cells = 1152;
  Riblt dst(rung);
  RSR_CHECK(it->second.FoldInto(&dst).ok());  // warm the destination
  for (auto _ : state) {
    Status st = it->second.FoldInto(&dst);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RibltFold)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Unit(benchmark::kMicrosecond);

void BM_EmdExact(benchmark::State& state) {
  Rng rng(14);
  size_t n = static_cast<size_t>(state.range(0));
  PointSet x = GenerateUniform(n, 4, 1023, &rng);
  PointSet y = GenerateUniform(n, 4, 1023, &rng);
  Metric metric(MetricKind::kL2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmdExact(x, y, metric));
  }
}
BENCHMARK(BM_EmdExact)->Arg(32)->Arg(128);

void BM_EmdKAll(benchmark::State& state) {
  Rng rng(15);
  size_t n = static_cast<size_t>(state.range(0));
  PointSet x = GenerateUniform(n, 4, 1023, &rng);
  PointSet y = GenerateUniform(n, 4, 1023, &rng);
  Metric metric(MetricKind::kL2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmdKAll(x, y, metric));
  }
}
BENCHMARK(BM_EmdKAll)->Arg(32)->Arg(64);

// ---- Maintained sketches (core/sync_dataset.h, core/sync_server.h) ------

EmdProtocolParams SyncBenchParams() {
  EmdProtocolParams params;
  params.metric = MetricKind::kL1;
  params.dim = 4;
  params.delta = 1023;
  params.k = 8;
  // d1/d2 pinned: with d2 == 0 the level ladder is derived from n, and the
  // per-mutation cost would scale with levels(n) by design. An explicit
  // ladder makes BM_SyncDatasetInsert's n-independence claim directly
  // readable off the three Arg timings.
  params.d1 = 1;
  params.d2 = 1024;
  params.seed = 42;
  return params;
}

PointStore DistinctBenchRows(size_t count, uint64_t seed) {
  Rng rng(seed);
  PointSet points = GenerateUniform(count * 2, 4, 1023, &rng);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  RSR_CHECK(points.size() >= count);  // dim 4, delta 1023: ~2^40 row space
  points.resize(count);
  return PointStore::FromPointSet(4, points);
}

struct SyncBenchState {
  std::unique_ptr<SyncDataset> dataset;
  Point spare;  // a row NOT in the dataset: inserted + deleted per cycle
};

/// One maintained dataset per n, built once per process: the benchmarks time
/// steady-state mutations, never the cold build.
SyncBenchState* CachedSyncState(size_t n) {
  static auto* cache = new std::map<size_t, SyncBenchState>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    PointStore rows = DistinctBenchRows(n + 1, 0xabc0 + n);
    PointStore initial(4);
    for (size_t i = 0; i < n; ++i) initial.Append(rows[i]);
    auto ds = SyncDataset::Create(initial, SyncBenchParams());
    RSR_CHECK(ds.ok());
    SyncBenchState state{std::make_unique<SyncDataset>(std::move(*ds)),
                         rows.MakePoint(n)};
    state.dataset->Reserve(n + 2);
    it = cache->emplace(n, std::move(state)).first;
  }
  return &it->second;
}

/// One insert + one delete against a maintained dataset. The acceptance
/// claim is O(levels * k) per mutation, INDEPENDENT of n: the three Arg
/// timings (2^10, 2^14, 2^18 rows) should be flat.
void BM_SyncDatasetInsert(benchmark::State& state) {
  SyncBenchState* s = CachedSyncState(static_cast<size_t>(state.range(0)));
  SyncDataset* ds = s->dataset.get();
  PointRef spare(s->spare.coords().data(), s->spare.dim());
  {  // warm the pooled scratch outside the timed loop
    auto key = ds->Insert(spare);
    RSR_CHECK(key.ok() && ds->Delete(*key).ok());
  }
  for (auto _ : state) {
    auto key = ds->Insert(spare);
    Status st = ds->Delete(*key);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_SyncDatasetInsert)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18)
    ->Unit(benchmark::kMicrosecond);

/// Server-side message production per sync over a maintained dataset under
/// churn: one insert + one delete between syncs, then snapshot + serialize.
/// Acceptance target: >= 10x faster than BM_SessionSyncRebuild.
void BM_SessionSyncWarm(benchmark::State& state) {
  constexpr size_t kN = 4096;
  static SyncServer* server = nullptr;
  static Point* spare = nullptr;
  if (server == nullptr) {
    PointStore rows = DistinctBenchRows(kN + 1, 0x5e55);
    PointStore initial(4);
    for (size_t i = 0; i < kN; ++i) initial.Append(rows[i]);
    auto ds = SyncDataset::Create(initial, SyncBenchParams());
    RSR_CHECK(ds.ok());
    ds->Reserve(kN + 2);
    server = new SyncServer(std::move(*ds));
    spare = new Point(rows.MakePoint(kN));
  }
  PointRef spare_ref(spare->coords().data(), spare->dim());
  for (auto _ : state) {
    auto key = server->Insert(spare_ref);
    Status st = server->Delete(*key);
    benchmark::DoNotOptimize(st);
    auto snap = server->AcquireSnapshot();
    ByteWriter message;
    snap->WriteSketchMessage(&message);
    benchmark::DoNotOptimize(message.buffer().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SessionSyncWarm)->Unit(benchmark::kMicrosecond);

/// The pre-SyncDataset serving cost: rebuild every level sketch from scratch
/// and serialize, once per sync.
void BM_SessionSyncRebuild(benchmark::State& state) {
  constexpr size_t kN = 4096;
  static auto* rows = new PointStore(DistinctBenchRows(kN, 0x5e55));
  const EmdProtocolParams params = SyncBenchParams();
  for (auto _ : state) {
    auto sketches = BuildEmdSketches(*rows, params, /*build_estimators=*/false);
    RSR_CHECK(sketches.ok());
    ByteWriter message;
    for (const Riblt& table : sketches->tables) table.WriteTo(&message);
    benchmark::DoNotOptimize(message.buffer().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SessionSyncRebuild)->Unit(benchmark::kMicrosecond);

/// Gap far detection at the gap_hamming key shape (h = 44, tau = 31.246):
/// n Bob keys over 16 slot values (m = 4 sampled bits per slot, so unrelated
/// keys share ~1/16 of their entries), Alice holding each at 2 flipped slots
/// plus 16 unrelated far keys. Per-key time grows only with the log n of the
/// sorts and lookups, where a pairwise scan would grow linearly in n.
void BM_GapFarDetect(benchmark::State& state) {
  constexpr size_t kH = 44;
  constexpr double kTau = 31.246;
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(0xfa4);
  auto random_key = [&] {
    SlottedSet key(kH);
    for (auto& v : key) v = static_cast<uint32_t>(rng.Below(16));
    return key;
  };
  std::vector<SlottedSet> bob(n);
  for (auto& key : bob) key = random_key();
  std::vector<SlottedSet> alice = bob;
  for (auto& key : alice) {
    for (int flip = 0; flip < 2; ++flip) key[rng.Below(kH)] ^= 1;
  }
  for (size_t i = 0; i < 16; ++i) alice[rng.Below(n)] = random_key();
  for (auto _ : state) {
    internal::FarKeys far = internal::FindFarKeys(alice, bob, kH, kTau);
    benchmark::DoNotOptimize(far.rows.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_GapFarDetect)
    ->Arg(2048)
    ->Arg(8192)
    ->Arg(32768)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rsr

int main(int argc, char** argv) {
  // Every BENCH_micro.json records which hashing kernels actually ran: the
  // host's CPU feature set and the dispatcher's decision ("avx2"/"scalar",
  // including the RSR_FORCE_SCALAR override). Without this a baseline file
  // from a different host (or a forced-scalar run) would be silently
  // incomparable.
  benchmark::AddCustomContext("rsr_cpu_features", rsr::CpuFeatureString());
  benchmark::AddCustomContext("rsr_dispatch",
                              rsr::lsh_internal::ActiveBatchKernelName());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
