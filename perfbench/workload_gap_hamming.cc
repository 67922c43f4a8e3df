// gap_hamming: RunGapProtocol on Hamming d = 1024 (bit sampling).
//
// Chosen as the paper's second problem and the workload that hashing
// changes bypass: LSH and slot keys are a small share of a sync, set-of-sets
// reconciliation (XOR IBLTs, several rounds) a larger one, and far detection
// and output in gap_protocol.cc most of it — a share that grows faster
// than n.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "core/gap_protocol.h"
#include "core/params.h"
#include "harness.h"
#include "hashing/hash64.h"
#include "hashing/pairwise.h"
#include "lsh/eval_pipeline.h"
#include "setsets/reconciler.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using rsr::PointStore;

constexpr size_t kN = 2048;
constexpr size_t kVerifyN = 512;
constexpr size_t kDim = 1024;
constexpr size_t kK = 16;
constexpr double kR1 = 4;
constexpr double kR2 = 192;
constexpr size_t kPool = 3;
constexpr size_t kVerifyInstances = 8;
constexpr size_t kMinSyncs = 100;
constexpr size_t kMinTracedSyncs = 20;
constexpr size_t kSmokeSyncs = 3;

struct Instance {
  PointStore alice, bob;
  rsr::GapProtocolParams params;
};

Instance MakeInstance(size_t n, uint64_t seed) {
  rsr::NoisyPairConfig config;
  config.metric = rsr::MetricKind::kHamming;
  config.dim = kDim;
  config.delta = 1;
  config.n = n;
  config.outliers = kK;
  config.noise = 2;
  config.outlier_dist = 320;
  config.seed = seed;
  auto workload = rsr::GenerateNoisyPairStore(config);
  RSR_CHECK(workload.ok());
  Instance instance{std::move(workload->alice), std::move(workload->bob), {}};
  rsr::GapProtocolParams& params = instance.params;
  params.metric = rsr::MetricKind::kHamming;
  params.dim = kDim;
  params.delta = 1;
  params.r1 = kR1;
  params.r2 = kR2;
  params.k = kK;
  params.h_multiplier = 4.0;
  params.reconciler.mode = rsr::SetsReconcilerMode::kFingerprint;
  params.reconciler.codec = rsr::WireCodec::kClassic;
  params.num_threads = 1;
  params.seed = rsr::Mix64(seed);
  return instance;
}

/// Rows packed 64 bits to a word, for popcount distances.
std::vector<uint64_t> Pack(const rsr::Coord* row) {
  std::vector<uint64_t> words(kDim / 64, 0);
  for (size_t b = 0; b < kDim; ++b) {
    if (row[b] != 0) words[b / 64] |= uint64_t{1} << (b % 64);
  }
  return words;
}

/// max over a in S_A of the Hamming distance to the nearest point of S'_B.
double WorstCaseGap(const PointStore& alice, const rsr::PointSet& s_b_prime) {
  std::vector<std::vector<uint64_t>> theirs;
  for (const rsr::Point& p : s_b_prime) theirs.push_back(Pack(p.coords().data()));
  int worst = 0;
  for (size_t i = 0; i < alice.size(); ++i) {
    const std::vector<uint64_t> mine = Pack(alice.row(i));
    int best = static_cast<int>(kDim);
    for (const auto& other : theirs) {
      int d = 0;
      for (size_t w = 0; w < mine.size(); ++w) {
        d += std::popcount(mine[w] ^ other[w]);
      }
      best = std::min(best, d);
      if (best == 0) break;
    }
    worst = std::max(worst, best);
  }
  return worst;
}

/// The child calls of RunGapProtocol, re-run through their public entry
/// points with the derivations of core/gap_protocol.cc: function draws,
/// batch evaluation, slot keys, set-of-sets reconciliation. Far detection
/// and output have no public entry; the caller books them as the untraced
/// sync's time minus these children.
rsr::Result<rsr::SetsReconcilerReport> TracedGapChildren(
    const Instance& in, Tracer* tracer) {
  const rsr::GapProtocolParams& params = in.params;
  const size_t n = std::max(in.alice.size(), in.bob.size());
  size_t h = 0, m = 0;
  std::vector<std::unique_ptr<rsr::LshFunction>> functions;
  std::vector<rsr::PairwiseVectorHash> batch_hashes;
  double q1 = 0;
  {
    Tracer::Span span(tracer, Layer::kLshDraw);
    RSR_ASSIGN_OR_RETURN(rsr::GapLshConfig lsh,
                         rsr::MakeGapLsh(params.metric, params.dim, params.r1,
                                         params.r2));
    m = static_cast<size_t>(
        std::max(1.0, std::ceil(std::log(2.0) / std::log(1.0 / lsh.lsh.p2))));
    q1 = std::pow(lsh.lsh.p1, static_cast<double>(m));
    h = std::max<size_t>(
        2, static_cast<size_t>(std::ceil(
               params.h_multiplier *
               std::log2(static_cast<double>(std::max<size_t>(n, 4))))));
    rsr::Rng shared(params.seed);
    functions = rsr::DrawMany(*lsh.family, h * m, &shared);
    rsr::Rng batch_rng(rsr::Mix64(params.seed) ^ 0x6a9);
    for (size_t j = 0; j < h; ++j) {
      batch_hashes.push_back(rsr::PairwiseVectorHash::Draw(&batch_rng));
    }
  }

  auto build_keys = [&](const PointStore& points) {
    rsr::EvalMatrix evals;
    {
      Tracer::Span span(tracer, Layer::kLshBatch);
      rsr::EvaluateAllInto(points, functions, params.num_threads, &evals);
    }
    tracer->Count(Counter::kLshEvals,
                  static_cast<double>(points.size() * functions.size()));
    std::vector<rsr::SlottedSet> keys(points.size(), rsr::SlottedSet(h));
    std::vector<uint64_t> slot_keys(points.size());
    const size_t cols = h * m;
    Tracer::Span span(tracer, Layer::kSlotKeys);
    for (size_t j = 0; j < h; ++j) {
      batch_hashes[j].EvalBatch(evals.data() + j * m, points.size(), cols, m,
                                slot_keys.data());
      for (size_t i = 0; i < points.size(); ++i) {
        keys[i][j] = static_cast<uint32_t>(slot_keys[i]);
      }
    }
    return keys;
  };
  const std::vector<rsr::SlottedSet> alice_keys = build_keys(in.alice);
  const std::vector<rsr::SlottedSet> bob_keys = build_keys(in.bob);

  // Reconciler sizing from the expected differences (RunGapProtocol).
  rsr::SetsReconcilerParams reconciler = params.reconciler;
  const double hd = static_cast<double>(h);
  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(params.k);
  const double entry_diff_rate = 1.0 - q1;
  const double diff_sets = 2.0 * (kd + nd * std::min(1.0, hd * entry_diff_rate));
  const double diff_elems = 2.0 * hd * (kd + nd * entry_diff_rate);
  if (reconciler.sig_cells == 0) {
    reconciler.sig_cells =
        std::max<size_t>(64, static_cast<size_t>(2.5 * diff_sets));
  }
  if (reconciler.elem_cells == 0) {
    reconciler.elem_cells =
        std::max<size_t>(128, static_cast<size_t>(2.5 * diff_elems));
  }
  if (reconciler.seed == 0) {
    reconciler.seed = rsr::HashCombine(params.seed, 0x5e75ULL);
  }
  Tracer::Span span(tracer, Layer::kSetsReconcile);
  return rsr::ReconcileSetsOfSets(alice_keys, bob_keys, reconciler);
}

bool SameComm(const rsr::CommStats& a, const rsr::CommStats& b) {
  if (a.messages.size() != b.messages.size()) return false;
  for (size_t i = 0; i < a.messages.size(); ++i) {
    if (a.messages[i].label != b.messages[i].label ||
        a.messages[i].bytes != b.messages[i].bytes) {
      return false;
    }
  }
  return true;
}

struct Fingerprint {
  size_t transmitted = 0;
  size_t bytes = 0;
};

}  // namespace

RunReport RunGapHamming(const Options& options) {
  RunReport report;
  report.codec = "classic";
  char shape[256];
  std::snprintf(shape, sizeof(shape),
                "Hamming bit sampling d=%zu n=%zu k=%zu r1=%g r2=%g "
                "h_multiplier=4, fingerprint reconciler, classic codec, "
                "num_threads=1, pool=%zu noisy pairs (noise 2, outlier_dist "
                "320)",
                kDim, kN, kK, kR1, kR2, kPool);
  report.shape = shape;

  std::vector<Instance> pool;
  for (size_t i = 0; i < kPool; ++i) {
    pool.push_back(MakeInstance(kN, rsr::HashCombine(options.seed, i)));
  }
  std::vector<Instance> verify;
  for (size_t i = 0; i < (options.smoke ? 1 : kVerifyInstances); ++i) {
    verify.push_back(
        MakeInstance(kVerifyN, rsr::HashCombine(options.seed, 1000 + i)));
  }

  // Set-up: one discarded sync per pool instance, whose outcome every later
  // repeat must reproduce and whose output the Gap check verifies.
  std::vector<Fingerprint> reference(kPool);
  size_t verified = 0, violations = 0, verify_failures = 0;
  auto check_gap = [&](const Instance& in,
                       const rsr::GapProtocolReport& result) {
    ++verified;
    if (WorstCaseGap(in.alice, result.s_b_prime) > kR2) ++violations;
  };
  const Clock::time_point setup_start = Clock::now();
  std::vector<rsr::Result<rsr::GapProtocolReport>> first;
  for (const Instance& in : pool) {
    first.push_back(rsr::RunGapProtocol(in.alice, in.bob, in.params));
  }
  const double setup_s = SecondsSince(setup_start);
  for (size_t i = 0; i < kPool; ++i) {
    if (!first[i].ok()) {
      ++verify_failures;
      continue;
    }
    reference[i] = {first[i]->transmitted.size(),
                    first[i]->comm.total_bytes()};
    check_gap(pool[i], *first[i]);
  }
  first.clear();

  SyncSamples samples;
  std::vector<double> untraced_ms;
  Tracer tracer;
  bool repeats_identical = true;
  std::string trace_mismatch;
  const size_t min_syncs = options.trace ? kMinTracedSyncs : kMinSyncs;
  const Clock::time_point loop_start = Clock::now();
  for (size_t i = 0;; ++i) {
    const double elapsed = SecondsSince(loop_start);
    if (options.smoke ? i >= kSmokeSyncs
                      : (elapsed >= options.seconds && i >= min_syncs)) {
      samples.loop_seconds = elapsed;
      samples.peak_rss_mb = PeakRssMiB();
      break;
    }
    const Instance& in = pool[i % kPool];
    const Clock::time_point start = Clock::now();
    auto result = rsr::RunGapProtocol(in.alice, in.bob, in.params);
    const double seconds = SecondsSince(start);
    ++report.attempted;
    if (!result.ok()) {
      ++report.failed;
      continue;
    }
    samples.sync_ms.push_back(seconds * 1e3);
    samples.bytes.push_back(static_cast<double>(result->comm.total_bytes()));
    samples.rounds.push_back(static_cast<double>(result->comm.rounds()));
    const Fingerprint& ref = reference[i % kPool];
    repeats_identical &= ref.transmitted == result->transmitted.size() &&
                         ref.bytes == result->comm.total_bytes();
    if (!options.trace) continue;

    untraced_ms.push_back(seconds * 1e3);
    tracer.BeginRequest(RequestKind::kSync);
    const Clock::time_point children_start = Clock::now();
    auto children = TracedGapChildren(in, &tracer);
    const double children_s = SecondsSince(children_start);
    tracer.AddDerived(Layer::kCoreFarDetect,
                      std::max(0.0, seconds - children_s) * 1e9);
    if (children.ok()) {
      tracer.Count(Counter::kSigAttempts, children->sig_attempts);
      tracer.Count(Counter::kElemAttempts, children->elem_attempts);
      tracer.Count(Counter::kFallbackSets,
                   static_cast<double>(children->fallback_sets));
      tracer.Count(Counter::kFullTransfers, children->full_transfer ? 1 : 0);
      tracer.Count(Counter::kWireBytes,
                   static_cast<double>(result->comm.total_bytes()));
    }
    tracer.EndRequest();
    const bool same =
        children.ok() && SameComm(children->comm, result->reconciliation.comm) &&
        children->bob_sets == result->reconciliation.bob_sets;
    if (!same && trace_mismatch.empty()) {
      trace_mismatch = children.ok() ? "decomposed reconciliation differs"
                                     : children.status().ToString();
    }
  }

  for (const Instance& in : verify) {
    auto result = rsr::RunGapProtocol(in.alice, in.bob, in.params);
    if (!result.ok()) {
      ++verify_failures;
      continue;
    }
    check_gap(in, *result);
  }
  const double violation_rate =
      verified ? static_cast<double>(violations) / static_cast<double>(verified)
               : 0;

  report.Gate("failure_rate", report.failed == 0 && verify_failures == 0,
              std::to_string(report.failed) + " timed and " +
                  std::to_string(verify_failures) + " verification syncs failed");
  report.Gate("repeat_identical", repeats_identical,
              "a repeated instance transmitted a different set or size");
  report.Gate("gap_violation_rate", verified > 0 && violations == 0,
              std::to_string(violations) + " of " + std::to_string(verified) +
                  " verified syncs left a point of S_A beyond r2");
  if (options.trace) {
    report.Gate("trace_identity", trace_mismatch.empty(), trace_mismatch);
  }

  report.AddOutcome("failure_rate",
                    report.attempted ? static_cast<double>(report.failed) /
                                           static_cast<double>(report.attempted)
                                     : 0,
                    "ratio");
  report.AddOutcome("gap_violation_rate", violation_rate, "ratio");
  if (options.trace) {
    AddLayerMetrics(tracer.Summarize(), untraced_ms, &report);
  } else {
    AddSyncMetrics(samples, setup_s, &report);
  }
  return report;
}

}  // namespace perfbench
