#include "core/gap_protocol.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <numeric>
#include <utility>

#include "hashing/hash64.h"
#include "hashing/pairwise.h"
#include "lsh/eval_pipeline.h"
#include "util/parallel.h"

namespace rsr {

namespace internal {

Result<size_t> KeyLength(double h_real, size_t min_h) {
  const double h = std::ceil(h_real);
  if (!(h >= 0 && h < static_cast<double>(kMaxSlots))) {
    return Status::InvalidArgument(
        "derived key length h must be finite, non-negative and below 2^16");
  }
  return std::max(min_h, static_cast<size_t>(h));
}

FarKeys FindFarKeys(const std::vector<SlottedSet>& alice_keys,
                    const std::vector<SlottedSet>& bob_keys, size_t h,
                    double tau) {
  // T_A order: distinct keys in lexicographic order, owners in index order.
  std::vector<size_t> order(alice_keys.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const auto by_key = alice_keys[a] <=> alice_keys[b];
    return by_key < 0 || (by_key == 0 && a < b);
  });
  FarKeys result;
  auto flag_far_groups = [&](auto&& is_far) {
    for (size_t g = 0; g < order.size();) {
      const SlottedSet& key = alice_keys[order[g]];
      size_t end = g + 1;
      while (end < order.size() && alice_keys[order[end]] == key) ++end;
      if (is_far(key)) {
        ++result.far_keys;
        result.rows.insert(result.rows.end(), order.data() + g,
                           order.data() + end);
      }
      g = end;
    }
  };

  // The best match count is an integer, so best < tau iff best < need.
  const double need_real = std::ceil(tau);
  if (!(need_real > 0)) return result;  // every key meets the threshold
  if (need_real > static_cast<double>(h)) {  // no key can meet it
    flag_far_groups([](const SlottedSet&) { return true; });
    return result;
  }
  const size_t need = static_cast<size_t>(need_real);
  const size_t max_mismatches = h - need;

  // Pigeonhole: a Bob key within max_mismatches of an Alice key equals it on
  // at least one of max_mismatches + 1 disjoint slot blocks, so indexing
  // Bob's keys by block hash finds every close candidate.
  const size_t nb = bob_keys.size();
  const size_t blocks = max_mismatches + 1;
  auto block_hash = [&](const SlottedSet& key, size_t j) {
    const size_t begin = j * h / blocks;
    const size_t end = (j + 1) * h / blocks;
    return HashBytes(key.data() + begin, (end - begin) * sizeof(uint32_t), j);
  };
  // Block j's (hash, Bob index) pairs at [j * nb, (j + 1) * nb), sorted.
  std::vector<std::pair<uint64_t, size_t>> index(blocks * nb);
  for (size_t j = 0; j < blocks; ++j) {
    auto* segment = index.data() + j * nb;
    for (size_t b = 0; b < nb; ++b) {
      segment[b] = {block_hash(bob_keys[b], j), b};
    }
    std::sort(segment, segment + nb);
  }

  auto is_close = [&](const SlottedSet& a, const SlottedSet& b) {
    RSR_DCHECK(a.size() == h && b.size() == h);
    size_t mismatches = 0;
    for (size_t slot = 0; slot < h; ++slot) {
      if (a[slot] != b[slot] && ++mismatches > max_mismatches) return false;
    }
    return true;
  };
  std::vector<size_t> stamp(nb, 0);  // Bob keys verified for key `round`
  size_t round = 0;
  flag_far_groups([&](const SlottedSet& key) {
    ++round;
    for (size_t j = 0; j < blocks; ++j) {
      const uint64_t hash = block_hash(key, j);
      const auto* segment_end = index.data() + (j + 1) * nb;
      const auto* it = std::lower_bound(segment_end - nb, segment_end,
                                        std::make_pair(hash, size_t{0}));
      for (; it != segment_end && it->first == hash; ++it) {
        if (stamp[it->second] == round) continue;
        stamp[it->second] = round;
        if (is_close(key, bob_keys[it->second])) return false;
      }
    }
    return true;
  });
  return result;
}

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

  // ---- Far detection: keys no Bob key matches in >= tau entries. ----
  const FarKeys far =
      FindFarKeys(alice_keys, bob_recovered, config.h, config.tau);
  result.far_keys = far.far_keys;
  result.transmitted.reserve(far.rows.size());
  for (size_t i : far.rows) result.transmitted.push_back(alice.MakePoint(i));

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
  RSR_ASSIGN_OR_RETURN(
      derived.h,
      internal::KeyLength(
          params.h_multiplier *
              std::log2(static_cast<double>(std::max<size_t>(n, 4))),
          2));
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
