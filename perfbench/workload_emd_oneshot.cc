// emd_oneshot: cold RunEmdProtocol over a pool of seeded noisy L2 pairs.
//
// Chosen because LSH evaluation and level-key derivation are nearly all of a
// cold sync, so a hashing change shows here; it is also the only threaded
// workload (num_threads = 2), so thread scaling shows.
#include <cmath>
#include <cstdio>

#include "core/emd_protocol.h"
#include "core/emd_sketch.h"
#include "emd/emd.h"
#include "emd_trace.h"
#include "harness.h"
#include "hashing/hash64.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

constexpr size_t kN = 2048;
constexpr size_t kVerifyN = 256;
constexpr size_t kDim = 4;
constexpr rsr::Coord kDelta = 1023;
constexpr size_t kK = 8;
constexpr size_t kPool = 4;
constexpr size_t kVerifyInstances = 8;
constexpr size_t kMinSyncs = 100;
constexpr size_t kMinTracedSyncs = 20;
constexpr size_t kSmokeSyncs = 3;

struct Instance {
  rsr::PointStore alice, bob;
  rsr::EmdProtocolParams params;
};

Instance MakeInstance(size_t n, uint64_t seed) {
  rsr::NoisyPairConfig config;
  config.metric = rsr::MetricKind::kL2;
  config.dim = kDim;
  config.delta = kDelta;
  config.n = n;
  config.outliers = kK;
  config.noise = 2.0;
  config.outlier_dist = 150;
  config.seed = seed;
  auto workload = rsr::GenerateNoisyPairStore(config);
  RSR_CHECK(workload.ok());
  Instance instance{std::move(workload->alice), std::move(workload->bob), {}};
  rsr::EmdProtocolParams& params = instance.params;
  params.metric = rsr::MetricKind::kL2;
  params.dim = kDim;
  params.delta = kDelta;
  params.k = kK;
  params.d1 = 8;
  params.d2 = 8192;
  params.codec = rsr::WireCodec::kClassic;
  params.num_threads = 2;
  params.seed = rsr::Mix64(seed);
  return instance;
}

struct Fingerprint {
  size_t decoded_level = 0;
  size_t bytes = 0;
};

}  // namespace

RunReport RunEmdOneshot(const Options& options) {
  RunReport report;
  report.codec = "classic";
  char shape[256];
  std::snprintf(shape, sizeof(shape),
                "L2 p-stable dim=%zu delta=%lld n=%zu k=%zu D1=8 D2=8192 "
                "static sizing, classic codec, num_threads=2, pool=%zu noisy "
                "pairs (noise 2, outlier_dist 150)",
                kDim, static_cast<long long>(kDelta), kN, kK, kPool);
  report.shape = shape;

  // Inputs first, outside any timing.
  std::vector<Instance> pool;
  for (size_t i = 0; i < kPool; ++i) {
    pool.push_back(MakeInstance(kN, rsr::HashCombine(options.seed, i)));
  }
  std::vector<Instance> verify;
  for (size_t i = 0; i < (options.smoke ? 2 : kVerifyInstances); ++i) {
    verify.push_back(
        MakeInstance(kVerifyN, rsr::HashCombine(options.seed, 1000 + i)));
  }

  // Set-up: discarded warm-up syncs; each pool instance's first outcome is
  // the reference every later repeat must reproduce.
  std::vector<Fingerprint> reference(kPool);
  const Clock::time_point setup_start = Clock::now();
  for (size_t w = 0; w < kPool; ++w) {
    auto result = rsr::RunEmdProtocol(pool[w].alice, pool[w].bob,
                                      pool[w].params);
    if (result.ok()) {
      reference[w] = {result->decoded_level, result->comm.total_bytes()};
    }
  }
  const double setup_s = SecondsSince(setup_start);

  SyncSamples samples;
  std::vector<double> untraced_ms;
  Tracer tracer;
  bool repeats_identical = true;
  std::string trace_mismatch;
  bool message_checked = false;
  bool message_identical = true;
  const Clock::time_point loop_start = Clock::now();
  const size_t min_syncs = options.trace ? kMinTracedSyncs : kMinSyncs;
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
    auto result = rsr::RunEmdProtocol(in.alice, in.bob, in.params);
    const double ms = SecondsSince(start) * 1e3;
    ++report.attempted;
    if (!result.ok() || result->failure) {
      ++report.failed;
      continue;
    }
    samples.sync_ms.push_back(ms);
    samples.bytes.push_back(static_cast<double>(result->comm.total_bytes()));
    samples.rounds.push_back(static_cast<double>(result->comm.rounds()));
    const Fingerprint& ref = reference[i % kPool];
    repeats_identical &= ref.decoded_level == result->decoded_level &&
                         ref.bytes == result->comm.total_bytes();
    if (!options.trace) continue;

    untraced_ms.push_back(ms);
    tracer.BeginRequest(RequestKind::kSync);
    auto traced = TracedColdEmdSync(in.alice, in.bob, in.params, &tracer);
    tracer.EndRequest();
    const std::string diff = traced.ok() ? CompareTracedSync(*traced, *result)
                                         : traced.status().ToString();
    if (!diff.empty() && trace_mismatch.empty()) trace_mismatch = diff;
    if (traced.ok() && !message_checked) {
      // The decomposed message against the library's own Alice half.
      message_checked = true;
      auto sketches = rsr::BuildEmdSketches(in.alice, in.params, false);
      rsr::ByteWriter message;
      if (sketches.ok()) {
        for (const rsr::Riblt& t : sketches->tables) {
          t.WriteTo(&message, in.params.codec);
        }
      }
      message_identical = sketches.ok() &&
                          message.buffer() == traced->sketch_message;
    }
  }

  // Quality on fixed seeded instances of the same shape at n = 256, where
  // the exact EMD_k and EMD are affordable.
  std::vector<double> ratios;
  size_t verify_failures = 0;
  for (const Instance& in : verify) {
    auto result = rsr::RunEmdProtocol(in.alice, in.bob, in.params);
    if (!result.ok() || result->failure) {
      ++verify_failures;
      continue;
    }
    const rsr::Metric metric(in.params.metric);
    const double emd_k = rsr::EmdK(in.alice, in.bob, metric, kK);
    const double emd = rsr::EmdExact(in.alice, result->s_b_prime, metric);
    ratios.push_back(emd / std::max(emd_k, 1.0));
  }
  const double ratio_p50 = Median(ratios);
  const double ratio_bound = std::log2(static_cast<double>(kVerifyN));

  report.Gate("failure_rate", report.failed == 0 && verify_failures == 0,
              std::to_string(report.failed) + " timed and " +
                  std::to_string(verify_failures) + " verification syncs failed");
  report.Gate("repeat_identical", repeats_identical,
              "a repeated instance decoded a different level or size");
  report.Gate("emd_ratio", !ratios.empty() && ratio_p50 <= ratio_bound,
              "median EMD ratio " + std::to_string(ratio_p50) + " above log2 n");
  if (options.trace) {
    report.Gate("trace_identity", trace_mismatch.empty(), trace_mismatch);
    report.Gate("trace_message_bytes", message_checked && message_identical,
                "decomposed sketch message differs from BuildEmdSketches");
  }

  report.AddOutcome("failure_rate",
                    report.attempted ? static_cast<double>(report.failed) /
                                           static_cast<double>(report.attempted)
                                     : 0,
                    "ratio");
  report.AddOutcome("emd_ratio_p50", ratio_p50, "ratio");
  if (options.trace) {
    AddLayerMetrics(tracer.Summarize(), untraced_ms, &report);
  } else {
    AddSyncMetrics(samples, setup_s, &report);
  }
  return report;
}

}  // namespace perfbench
