#include "core/gap_protocol.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "hashing/hash64.h"
#include "hashing/pairwise.h"
#include "lsh/eval_pipeline.h"
#include "util/parallel.h"

namespace rsr {

namespace internal {

Result<GapPipelineResult> RunGapPipeline(
    const PointStore& alice, const PointStore& bob,
    const std::vector<std::unique_ptr<LshFunction>>& functions,
    const GapPipelineConfig& config) {
  RSR_CHECK_EQ(functions.size(), config.h * config.m);
  RSR_CHECK(config.h >= 1 && config.h < kMaxSlots);

  // Batch hashes: one pairwise-independent vector hash per key entry.
  Rng shared(Mix64(config.seed) ^ 0x6a9);
  std::vector<PairwiseVectorHash> batch_hashes;
  batch_hashes.reserve(config.h);
  for (size_t j = 0; j < config.h; ++j) {
    batch_hashes.push_back(PairwiseVectorHash::Draw(&shared));
  }

  // Batch pipeline: one row-major n x (h*m) evaluation matrix (one virtual
  // call per LSH function per shard), then per slot j a batched vector hash
  // over the m-wide row segment at column j*m. Bit-identical to the
  // historical per-point loop  keys[i][j] = H_j(Eval_{jm}(p_i)..Eval_{jm+m-1}).
  auto build_keys = [&](const PointStore& points) {
    const size_t n_points = points.size();
    std::vector<SlottedSet> keys(n_points);
    for (auto& key : keys) key.resize(config.h);
    EvalMatrix evals;
    EvaluateAllInto(points, functions, config.num_threads, &evals);
    const size_t cols = config.h * config.m;
    for (const auto& h : batch_hashes) h.Reserve(config.m);  // thread safety
    ParallelShards(n_points, config.num_threads,
                   [&](size_t begin, size_t end) {
                     std::vector<uint64_t> slot_keys(end - begin);
                     for (size_t j = 0; j < config.h; ++j) {
                       batch_hashes[j].EvalBatch(
                           evals.data() + begin * cols + j * config.m,
                           end - begin, cols, config.m, slot_keys.data());
                       // Theta(log n)-bit entries: truncate the 61-bit hash
                       // to 32 bits.
                       for (size_t i = begin; i < end; ++i) {
                         keys[i][j] =
                             static_cast<uint32_t>(slot_keys[i - begin]);
                       }
                     }
                   });
    return keys;
  };

  std::vector<SlottedSet> alice_keys = build_keys(alice);
  std::vector<SlottedSet> bob_keys = build_keys(bob);

  // ---- Rounds 1-3: Alice recovers the multiset of Bob's keys. ----
  GapPipelineResult result;
  RSR_ASSIGN_OR_RETURN(
      result.reconciliation,
      ReconcileSetsOfSets(alice_keys, bob_keys, config.reconciler));
  result.comm.Append(result.reconciliation.comm);
  const std::vector<SlottedSet>& bob_recovered = result.reconciliation.bob_sets;

  // ---- Far detection: best entry-match count of each Alice key against
  // every Bob key (exact-equal keys short-circuit at h matches). ----
  std::unordered_map<uint64_t, std::vector<size_t>> entry_index;
  for (size_t b = 0; b < bob_recovered.size(); ++b) {
    for (size_t slot = 0; slot < config.h; ++slot) {
      uint64_t entry =
          (static_cast<uint64_t>(slot) << 32) | bob_recovered[b][slot];
      entry_index[entry].push_back(b);
    }
  }

  std::map<SlottedSet, std::vector<size_t>> alice_by_key;
  for (size_t i = 0; i < alice.size(); ++i) {
    alice_by_key[alice_keys[i]].push_back(i);
  }

  std::vector<size_t> match_count(bob_recovered.size(), 0);
  std::vector<size_t> touched;
  for (const auto& [key, owners] : alice_by_key) {
    touched.clear();
    size_t best = 0;
    for (size_t slot = 0; slot < config.h; ++slot) {
      uint64_t entry = (static_cast<uint64_t>(slot) << 32) | key[slot];
      auto it = entry_index.find(entry);
      if (it == entry_index.end()) continue;
      for (size_t b : it->second) {
        if (match_count[b] == 0) touched.push_back(b);
        ++match_count[b];
        best = std::max(best, match_count[b]);
      }
    }
    for (size_t b : touched) match_count[b] = 0;
    if (static_cast<double>(best) < config.tau) {
      ++result.far_keys;
      for (size_t i : owners) result.transmitted.push_back(alice.MakePoint(i));
    }
  }

  // ---- Round 4: Alice transmits T_A. ----
  ByteWriter message;
  message.PutVarint64(result.transmitted.size());
  for (const Point& p : result.transmitted) p.WriteTo(&message);
  Transcript transcript;
  transcript.Send("A->B far elements", message);
  result.comm.Append(transcript.stats());

  // Bob: S'_B = S_B ∪ T_A (parsed from the wire).
  // Rows are read at Alice's dimension, and the wire count is bounded by the
  // bytes present (PointStore::ReadFrom). A nonzero count implies Alice has
  // points, hence a dimension.
  ByteReader reader(message.buffer());
  const uint64_t count = reader.GetVarint64();
  result.s_b_prime = bob.ToPointSet();
  if (count > 0) {
    const PointStore received =
        PointStore::ReadFrom(&reader, alice.dim(), static_cast<size_t>(count));
    for (size_t i = 0; i < received.size(); ++i) {
      result.s_b_prime.push_back(received.MakePoint(i));
    }
  }
  RSR_RETURN_NOT_OK(reader.FinishAndCheckConsumed());
  return result;
}

}  // namespace internal

Result<GapProtocolReport> RunGapProtocol(const PointStore& alice,
                                         const PointStore& bob,
                                         const GapProtocolParams& params) {
  if (alice.empty() && bob.empty()) {
    return Status::InvalidArgument("both point sets empty");
  }
  if (params.dim == 0) return Status::InvalidArgument("dim must be positive");
  ValidatePointStore(alice, params.dim, params.delta);
  ValidatePointStore(bob, params.dim, params.delta);

  const size_t n = std::max(alice.size(), bob.size());

  GapProtocolReport report;
  RSR_ASSIGN_OR_RETURN(GapLshConfig lsh,
                       MakeGapLsh(params.metric, params.dim, params.r1,
                                  params.r2));
  GapDerived& derived = report.derived;
  derived.p1 = lsh.lsh.p1;
  derived.p2 = lsh.lsh.p2;
  derived.rho = lsh.lsh.rho();

  // m = log_{p2}(1/2) so that each entry matches a far pair w.p. <= 1/2.
  derived.m = static_cast<size_t>(
      std::max(1.0, std::ceil(std::log(2.0) / std::log(1.0 / derived.p2))));
  derived.q1 = std::pow(derived.p1, static_cast<double>(derived.m));
  derived.q2 = std::pow(derived.p2, static_cast<double>(derived.m));
  if (derived.q1 <= derived.q2) {
    return Status::InvalidArgument("no usable gap: p1^m <= p2^m");
  }
  derived.h = static_cast<size_t>(std::ceil(
      params.h_multiplier * std::log2(static_cast<double>(std::max<size_t>(n, 4)))));
  if (derived.h < 2) derived.h = 2;
  // Paper threshold h(1/2 + eps/6) specializes q2 = 1/2; with q2 < 1/2 the
  // Chernoff midpoint of the two expectations is the natural generalization.
  derived.tau = static_cast<double>(derived.h) * (derived.q1 + derived.q2) / 2.0;

  // Auto-size the reconciler sketches from the expected differences.
  internal::GapPipelineConfig config;
  config.h = derived.h;
  config.m = derived.m;
  config.tau = derived.tau;
  config.reconciler = params.reconciler;
  config.num_threads = params.num_threads;
  config.seed = params.seed;
  double expect_entry_diff_rate = 1.0 - derived.q1;  // per close-pair entry
  double expected_diff_sets =
      2.0 * (static_cast<double>(params.k) +
             static_cast<double>(n) *
                 std::min(1.0, static_cast<double>(derived.h) *
                                   expect_entry_diff_rate));
  double expected_diff_elems =
      2.0 * static_cast<double>(derived.h) *
      (static_cast<double>(params.k) +
       static_cast<double>(n) * expect_entry_diff_rate);
  if (config.reconciler.sig_cells == 0) {
    config.reconciler.sig_cells =
        std::max<size_t>(64, static_cast<size_t>(2.5 * expected_diff_sets));
  }
  if (config.reconciler.elem_cells == 0) {
    config.reconciler.elem_cells =
        std::max<size_t>(128, static_cast<size_t>(2.5 * expected_diff_elems));
  }
  if (config.reconciler.seed == 0) {
    config.reconciler.seed = HashCombine(params.seed, 0x5e75ULL);
  }

  // Public coins: draw the h*m LSH functions from the shared seed.
  Rng shared(params.seed);
  std::vector<std::unique_ptr<LshFunction>> functions =
      DrawMany(*lsh.family, derived.h * derived.m, &shared);

  RSR_ASSIGN_OR_RETURN(
      internal::GapPipelineResult pipeline,
      internal::RunGapPipeline(alice, bob, functions, config));
  report.s_b_prime = std::move(pipeline.s_b_prime);
  report.transmitted = std::move(pipeline.transmitted);
  report.far_keys = pipeline.far_keys;
  report.reconciliation = std::move(pipeline.reconciliation);
  report.comm = std::move(pipeline.comm);
  return report;
}

}  // namespace rsr
