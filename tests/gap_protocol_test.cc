// End-to-end tests for the Gap Guarantee protocol (Theorem 4.2) and its
// low-dimension variant (Theorem 4.5).
//
// The defining property (Definition 4.1): after the protocol, every point of
// S_A is within r2 of some point of S'_B = S_B ∪ T_A.
#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/gap_lowdim.h"
#include "core/gap_protocol.h"
#include "hashing/hash64.h"
#include "workload/generators.h"

namespace rsr {
namespace {

/// Max over a in alice of min distance to s_b_prime.
double WorstCaseGap(const PointStore& alice, const PointSet& s_b_prime,
                    const Metric& metric) {
  double worst = 0;
  for (size_t i = 0; i < alice.size(); ++i) {
    double best = 1e300;
    for (const Point& b : s_b_prime) {
      best = std::min(best, metric.Distance(alice.row(i), b.coords().data(),
                                            alice.dim()));
    }
    worst = std::max(worst, best);
  }
  return worst;
}

GapProtocolParams HammingParams(size_t dim, double r1, double r2, size_t k,
                                uint64_t seed) {
  GapProtocolParams params;
  params.metric = MetricKind::kHamming;
  params.dim = dim;
  params.delta = 1;
  params.r1 = r1;
  params.r2 = r2;
  params.k = k;
  params.seed = seed;
  return params;
}

TEST(GapParamsTest, MakeGapLshValidatesRadii) {
  EXPECT_FALSE(MakeGapLsh(MetricKind::kHamming, 32, 5, 5).ok());
  EXPECT_FALSE(MakeGapLsh(MetricKind::kHamming, 32, 5, 3).ok());
  EXPECT_TRUE(MakeGapLsh(MetricKind::kHamming, 32, 1, 8).ok());
}

TEST(GapParamsTest, P2NearHalfByConstruction) {
  for (MetricKind kind :
       {MetricKind::kHamming, MetricKind::kL1, MetricKind::kL2}) {
    auto config = MakeGapLsh(kind, 16, 2.0, 24.0);
    ASSERT_TRUE(config.ok());
    EXPECT_GE(config->lsh.p2, 0.45);
    EXPECT_LE(config->lsh.p2, 0.75);
    EXPECT_GT(config->lsh.p1, config->lsh.p2);
    EXPECT_LT(config->lsh.rho(), 1.0);
  }
}

TEST(GapProtocolTest, IdenticalSetsTransmitNothing) {
  Rng rng(1);
  PointStore pts = GenerateUniformStore(64, 128, 1, &rng);
  auto report = RunGapProtocol(pts, pts, HammingParams(128, 2, 32, 1, 5));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->transmitted.size(), 0u);
  EXPECT_EQ(report->far_keys, 0u);
  EXPECT_EQ(report->s_b_prime.size(), pts.size());
}

TEST(GapProtocolTest, GuaranteeHoldsWithOutliersHamming) {
  int violations = 0;
  const int kTrials = 8;
  for (int trial = 0; trial < kTrials; ++trial) {
    NoisyPairConfig config;
    config.metric = MetricKind::kHamming;
    config.dim = 256;
    config.delta = 1;
    config.n = 48;
    config.outliers = 2;
    config.noise = 2;          // close pairs within r1 = 4
    config.outlier_dist = 80;  // far points beyond r2 = 64
    config.seed = static_cast<uint64_t>(900 + trial);
    auto workload = GenerateNoisyPairStore(config);
    ASSERT_TRUE(workload.ok());

    auto report = RunGapProtocol(workload->alice, workload->bob,
                                 HammingParams(256, 4, 64, 2, static_cast<uint64_t>(40 + trial)));
    ASSERT_TRUE(report.ok());
    Metric metric(MetricKind::kHamming);
    if (WorstCaseGap(workload->alice, report->s_b_prime, metric) > 64.0) {
      ++violations;
    }
    // Alice's outliers must always be among the transmitted points.
    EXPECT_GE(report->transmitted.size(), workload->alice_outliers.size());
  }
  EXPECT_EQ(violations, 0);
}

TEST(GapProtocolTest, GuaranteeHoldsL1) {
  int violations = 0;
  for (int trial = 0; trial < 6; ++trial) {
    NoisyPairConfig config;
    config.metric = MetricKind::kL1;
    config.dim = 8;
    config.delta = 1023;
    config.n = 40;
    config.outliers = 1;
    config.noise = 3;
    config.outlier_dist = 300;
    config.seed = static_cast<uint64_t>(700 + trial);
    auto workload = GenerateNoisyPairStore(config);
    ASSERT_TRUE(workload.ok());

    GapProtocolParams params;
    params.metric = MetricKind::kL1;
    params.dim = 8;
    params.delta = 1023;
    params.r1 = 3;
    params.r2 = 200;
    params.k = 1;
    params.seed = static_cast<uint64_t>(60 + trial);
    auto report = RunGapProtocol(workload->alice, workload->bob, params);
    ASSERT_TRUE(report.ok());
    Metric metric(MetricKind::kL1);
    if (WorstCaseGap(workload->alice, report->s_b_prime, metric) > 200.0) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
}

TEST(GapProtocolTest, SBPrimeIsSupersetOfBob) {
  NoisyPairConfig config;
  config.metric = MetricKind::kHamming;
  config.dim = 128;
  config.delta = 1;
  config.n = 24;
  config.outliers = 1;
  config.noise = 1;
  config.outlier_dist = 40;
  config.seed = 31;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());
  auto report = RunGapProtocol(workload->alice, workload->bob,
                               HammingParams(128, 2, 32, 1, 8));
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report->s_b_prime.size(), workload->bob.size());
  for (size_t i = 0; i < workload->bob.size(); ++i) {
    EXPECT_EQ(report->s_b_prime[i], workload->bob.MakePoint(i));
  }
  EXPECT_EQ(report->s_b_prime.size(),
            workload->bob.size() + report->transmitted.size());
}

TEST(GapProtocolTest, CommunicationBeatsNaiveWhenFewDifferences) {
  // High-dimensional regime (Corollary 4.3 flavor): the protocol's polylog-
  // per-point cost must undercut shipping n*d raw bits.
  NoisyPairConfig config;
  config.metric = MetricKind::kHamming;
  config.dim = 1024;
  config.delta = 1;
  config.n = 96;
  config.outliers = 1;
  config.noise = 1;
  config.outlier_dist = 256;
  config.seed = 17;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());
  GapProtocolParams params = HammingParams(1024, 2, 192, 1, 23);
  params.h_multiplier = 4.0;
  auto report = RunGapProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  Metric metric(MetricKind::kHamming);
  EXPECT_LE(WorstCaseGap(workload->alice, report->s_b_prime, metric), 192.0);
  size_t naive_bits = 96 * 1024;  // n*d bits for binary vectors
  EXPECT_LT(report->comm.total_bits(), naive_bits);
}

TEST(GapProtocolTest, FourRoundsPlusReconcilerRetries) {
  Rng rng(2);
  PointStore pts = GenerateUniformStore(32, 128, 1, &rng);
  auto report = RunGapProtocol(pts, pts, HammingParams(128, 2, 32, 1, 3));
  ASSERT_TRUE(report.ok());
  // 3 reconciler messages + 1 transmission when nothing retries.
  EXPECT_EQ(report->comm.rounds(), 4);
}

TEST(GapProtocolTest, WorksWithVerbatimReconciler) {
  NoisyPairConfig config;
  config.metric = MetricKind::kHamming;
  config.dim = 128;
  config.delta = 1;
  config.n = 32;
  config.outliers = 1;
  config.noise = 1;
  config.outlier_dist = 48;
  config.seed = 19;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());
  GapProtocolParams params = HammingParams(128, 2, 40, 1, 29);
  params.reconciler.mode = SetsReconcilerMode::kVerbatim;
  auto report = RunGapProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  Metric metric(MetricKind::kHamming);
  EXPECT_LE(WorstCaseGap(workload->alice, report->s_b_prime, metric), 40.0);
}

TEST(GapProtocolTest, DeterministicGivenSeed) {
  Rng rng(3);
  PointStore a = GenerateUniformStore(24, 128, 1, &rng);
  PointStore b = GenerateUniformStore(24, 128, 1, &rng);
  auto r1 = RunGapProtocol(a, b, HammingParams(128, 2, 32, 2, 77));
  auto r2 = RunGapProtocol(a, b, HammingParams(128, 2, 32, 2, 77));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->transmitted, r2->transmitted);
  EXPECT_EQ(r1->comm.total_bytes(), r2->comm.total_bytes());
}

TEST(GapProtocolTest, DerivedParametersSane) {
  Rng rng(4);
  PointStore pts = GenerateUniformStore(16, 64, 1, &rng);
  auto report = RunGapProtocol(pts, pts, HammingParams(64, 1, 16, 1, 31));
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->derived.m, 1u);
  EXPECT_GT(report->derived.h, 0u);
  EXPECT_GT(report->derived.q1, report->derived.q2);
  EXPECT_LE(report->derived.q2, 0.5 + 1e-9);
  EXPECT_GT(report->derived.tau, 0.0);
  EXPECT_LT(report->derived.tau, static_cast<double>(report->derived.h));
}

TEST(GapProtocolTest, RejectsOversizedOrNonFiniteKeyLength) {
  // h = ceil(20000 * log2 32) = 100000 key slots exceeds the 2^16 limit;
  // the protocol refuses before drawing h*m LSH functions.
  Rng rng(7);
  PointStore pts = GenerateUniformStore(32, 64, 1, &rng);
  GapProtocolParams params = HammingParams(64, 1, 16, 1, 3);
  params.h_multiplier = 20000;
  EXPECT_EQ(RunGapProtocol(pts, pts, params).status().code(),
            StatusCode::kInvalidArgument);
  for (double bad : {-1.0, std::nan(""), HUGE_VAL}) {
    params.h_multiplier = bad;
    EXPECT_EQ(RunGapProtocol(pts, pts, params).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

// ------------------------------------------------------------- low-dim --

TEST(LowDimGapTest, RejectsRhoHatAboveOne) {
  Rng rng(5);
  PointStore pts = GenerateUniformStore(8, 8, 255, &rng);
  LowDimGapParams params;
  params.metric = MetricKind::kL1;
  params.dim = 8;
  params.delta = 255;
  params.r1 = 10;
  params.r2 = 20;  // rho_hat = 10*8/20 = 4 >= 1
  params.seed = 1;
  EXPECT_FALSE(RunLowDimGapProtocol(pts, pts, params).ok());
}

TEST(LowDimGapTest, RejectsOversizedKeyLength) {
  // rho_hat = 1*4/4.0001 passes the < 1 check, but h = ceil(log2 64 /
  // log2(1/rho_hat)) is about 166000 key slots, beyond the 2^16 limit.
  Rng rng(8);
  PointStore pts = GenerateUniformStore(64, 4, 255, &rng);
  LowDimGapParams params;
  params.metric = MetricKind::kL1;
  params.dim = 4;
  params.delta = 255;
  params.r1 = 1;
  params.r2 = 4.0001;
  params.seed = 1;
  EXPECT_EQ(RunLowDimGapProtocol(pts, pts, params).status().code(),
            StatusCode::kInvalidArgument);
  params.h_multiplier = std::nan("");
  params.r2 = 100;
  EXPECT_EQ(RunLowDimGapProtocol(pts, pts, params).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LowDimGapTest, RejectsTwoEmptyStoresLikeTheGeneralVariant) {
  // Both variants share their input checks, which run before any LSH draw:
  // two empty stores fail up front, not inside the reconciler.
  const PointStore empty;
  LowDimGapParams params;
  params.metric = MetricKind::kL1;
  params.dim = 2;
  params.delta = 255;
  params.r1 = 1;
  params.r2 = 100;
  params.seed = 1;
  const Status low = RunLowDimGapProtocol(empty, empty, params).status();
  const Status general =
      RunGapProtocol(empty, empty, HammingParams(64, 1, 16, 1, 1)).status();
  EXPECT_EQ(low.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(low.message(), "both point sets empty");
  EXPECT_EQ(general.code(), low.code());
  EXPECT_EQ(general.message(), low.message());
}

TEST(LowDimGapTest, GuaranteeHoldsL1) {
  int violations = 0;
  for (int trial = 0; trial < 6; ++trial) {
    NoisyPairConfig config;
    config.metric = MetricKind::kL1;
    config.dim = 2;
    config.delta = 4095;
    config.n = 40;
    config.outliers = 2;
    config.noise = 2;
    config.outlier_dist = 200;
    config.seed = static_cast<uint64_t>(500 + trial);
    auto workload = GenerateNoisyPairStore(config);
    ASSERT_TRUE(workload.ok());

    LowDimGapParams params;
    params.metric = MetricKind::kL1;
    params.dim = 2;
    params.delta = 4095;
    params.r1 = 2;
    params.r2 = 100;  // rho_hat = 2*2/100 = 0.04
    params.k = 2;
    params.h_multiplier = 2.0;
    params.seed = static_cast<uint64_t>(80 + trial);
    auto report =
        RunLowDimGapProtocol(workload->alice, workload->bob, params);
    ASSERT_TRUE(report.ok());
    Metric metric(MetricKind::kL1);
    if (WorstCaseGap(workload->alice, report->s_b_prime, metric) > 100.0) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
}

TEST(LowDimGapTest, OneSidedErrorNeverMissesFarPoints) {
  // p2 = 0: a far point can never match any entry, so it is always
  // transmitted — across every trial, not just whp.
  for (int trial = 0; trial < 10; ++trial) {
    NoisyPairConfig config;
    config.metric = MetricKind::kL2;
    config.dim = 2;
    config.delta = 4095;
    config.n = 24;
    config.outliers = 1;
    config.noise = 1;
    config.outlier_dist = 400;
    config.seed = static_cast<uint64_t>(5100 + trial);
    auto workload = GenerateNoisyPairStore(config);
    ASSERT_TRUE(workload.ok());

    LowDimGapParams params;
    params.metric = MetricKind::kL2;
    params.dim = 2;
    params.delta = 4095;
    params.r1 = 3;
    params.r2 = 300;
    params.k = 1;
    params.h_multiplier = 2.0;
    params.seed = static_cast<uint64_t>(90 + trial);
    auto report =
        RunLowDimGapProtocol(workload->alice, workload->bob, params);
    ASSERT_TRUE(report.ok());
    // Alice's outlier is >= 400 > r2 away from everything of Bob's; with
    // p2 = 0 its key shares no entry with any Bob key, so it MUST be sent.
    bool found = false;
    Point outlier = workload->alice_outliers.MakePoint(0);
    for (const Point& p : report->transmitted) {
      if (p == outlier) found = true;
    }
    EXPECT_TRUE(found) << "trial " << trial;
  }
}

TEST(LowDimGapTest, DerivedHScalesWithRhoHat) {
  Rng rng(6);
  PointStore pts = GenerateUniformStore(16, 2, 4095, &rng);
  LowDimGapParams tight;
  tight.metric = MetricKind::kL1;
  tight.dim = 2;
  tight.delta = 4095;
  tight.r1 = 10;
  tight.r2 = 50;  // rho_hat = 0.4
  tight.seed = 7;
  LowDimGapParams loose = tight;
  loose.r2 = 2000;  // rho_hat = 0.01
  auto rt = RunLowDimGapProtocol(pts, pts, tight);
  auto rl = RunLowDimGapProtocol(pts, pts, loose);
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(rl.ok());
  EXPECT_GT(rt->derived.h, rl->derived.h);
}

// ------------------------------------------------------- far detection --

/// The definition, by brute force over every (Alice key, Bob key) pair:
/// distinct Alice keys in lexicographic order whose best entry-match count
/// is below tau, each key's rows in index order.
internal::FarKeys BruteForceFarKeys(const std::vector<SlottedSet>& alice,
                                    const std::vector<SlottedSet>& bob,
                                    size_t h, double tau) {
  std::map<SlottedSet, std::vector<size_t>> by_key;
  for (size_t i = 0; i < alice.size(); ++i) by_key[alice[i]].push_back(i);
  internal::FarKeys far;
  for (const auto& [key, owners] : by_key) {
    size_t best = 0;
    for (const SlottedSet& b : bob) {
      size_t matches = 0;
      for (size_t slot = 0; slot < h; ++slot) matches += key[slot] == b[slot];
      best = std::max(best, matches);
    }
    if (static_cast<double>(best) < tau) {
      ++far.far_keys;
      far.rows.insert(far.rows.end(), owners.begin(), owners.end());
    }
  }
  return far;
}

/// Random keys over a small alphabet (unrelated keys share about a third of
/// their entries), with Alice keys planted at `plant_mismatches` (and one
/// either side) slots from a Bob key, and duplicates on both sides.
void PlantedKeys(size_t h, size_t plant_mismatches, uint64_t seed,
                 std::vector<SlottedSet>* alice, std::vector<SlottedSet>* bob) {
  Rng rng(seed);
  auto random_key = [&] {
    SlottedSet key(h);
    for (auto& v : key) v = static_cast<uint32_t>(rng.Below(3));
    return key;
  };
  bob->clear();
  alice->clear();
  for (int i = 0; i < 40; ++i) bob->push_back(random_key());
  for (int i = 0; i < 8; ++i) bob->push_back((*bob)[rng.Below(bob->size())]);
  for (int i = 0; i < 60; ++i) {
    if (rng.Bernoulli(0.3)) {
      alice->push_back(random_key());
      continue;
    }
    SlottedSet key = (*bob)[rng.Below(bob->size())];
    const int64_t lo = static_cast<int64_t>(plant_mismatches) - 1;
    const int64_t e = std::clamp<int64_t>(rng.UniformInt(lo, lo + 2), 0,
                                          static_cast<int64_t>(h));
    // Flip e distinct slots to values no Bob key uses.
    std::vector<size_t> slots(h);
    std::iota(slots.begin(), slots.end(), size_t{0});
    for (int64_t k = 0; k < e; ++k) {
      const size_t pick = static_cast<size_t>(k) +
                          rng.Below(h - static_cast<size_t>(k));
      std::swap(slots[static_cast<size_t>(k)], slots[pick]);
      key[slots[static_cast<size_t>(k)]] += 3;
    }
    alice->push_back(key);
  }
  for (int i = 0; i < 10; ++i) {
    alice->push_back((*alice)[rng.Below(alice->size())]);
  }
}

TEST(FindFarKeysTest, MatchesBruteForceOnPlantedKeys) {
  for (size_t h : {size_t{1}, size_t{2}, size_t{44}, size_t{64}}) {
    const double hd = static_cast<double>(h);
    for (double tau : {0.0, 0.5, 1.0, 2.0, 31.246, hd - 1, hd - 0.5, hd,
                       hd + 1}) {
      const double need = std::max(0.0, std::ceil(tau));
      const size_t plant = need >= hd ? 0 : h - static_cast<size_t>(need);
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        std::vector<SlottedSet> alice, bob;
        PlantedKeys(h, plant, seed * 1000 + h, &alice, &bob);
        SCOPED_TRACE(testing::Message()
                     << "h=" << h << " tau=" << tau << " seed=" << seed);
        const internal::FarKeys expected =
            BruteForceFarKeys(alice, bob, h, tau);
        const internal::FarKeys got = internal::FindFarKeys(alice, bob, h, tau);
        EXPECT_EQ(got.far_keys, expected.far_keys);
        EXPECT_EQ(got.rows, expected.rows);

        const std::vector<SlottedSet> no_bob;
        const internal::FarKeys expected_empty =
            BruteForceFarKeys(alice, no_bob, h, tau);
        const internal::FarKeys got_empty =
            internal::FindFarKeys(alice, no_bob, h, tau);
        EXPECT_EQ(got_empty.far_keys, expected_empty.far_keys);
        EXPECT_EQ(got_empty.rows, expected_empty.rows);
      }
    }
  }
}

TEST(FindFarKeysTest, PlantedKeysStraddleTheThreshold) {
  // Guards the differential test above: at the gap_hamming shape the planted
  // keys must produce both far and close keys, or agreement proves little.
  std::vector<SlottedSet> alice, bob;
  PlantedKeys(44, 44 - 32, 1044, &alice, &bob);
  const internal::FarKeys far = internal::FindFarKeys(alice, bob, 44, 31.246);
  EXPECT_GT(far.far_keys, 5u);
  EXPECT_LT(far.rows.size(), alice.size() - 5);
}

// ------------------------------------------------------ transcript pins --
//
// Fixed-seed transcripts of three configurations: the far-key count, the
// size and content hash of T_A (in transmission order), and every message's
// label and byte count. Any change to key construction, reconciliation or
// far detection that alters what goes on the wire fails here. ROADMAP item 4
// (sending fewer bits per key) changes transcripts on purpose and will
// re-pin these values.

struct GapTranscriptPin {
  size_t far_keys;
  size_t transmitted;
  uint64_t transmitted_hash;
  std::vector<std::pair<std::string, size_t>> messages;
};

void ExpectTranscriptPin(const GapProtocolReport& report,
                         const GapTranscriptPin& pin) {
  uint64_t hash = 0;
  for (const Point& p : report.transmitted) {
    hash = HashCombine(hash, PointRef(p.coords().data(), p.dim())
                                 .ContentHash(0x9a9));
  }
  std::vector<std::pair<std::string, size_t>> messages;
  for (const MessageRecord& m : report.comm.messages) {
    messages.emplace_back(m.label, m.bytes);
  }
  EXPECT_EQ(report.far_keys, pin.far_keys);
  EXPECT_EQ(report.transmitted.size(), pin.transmitted);
  EXPECT_EQ(hash, pin.transmitted_hash);
  EXPECT_EQ(messages, pin.messages);
}

TEST(GapTranscriptPinTest, HammingAtBenchmarkShape) {
  // perfbench's gap_hamming shape (d = 1024, k = 16, r1 = 4, r2 = 192,
  // h_multiplier 4, fingerprint reconciler) at n = 512.
  NoisyPairConfig config;
  config.metric = MetricKind::kHamming;
  config.dim = 1024;
  config.delta = 1;
  config.n = 512;
  config.outliers = 16;
  config.noise = 2;
  config.outlier_dist = 320;
  config.seed = 1;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());
  GapProtocolParams params = HammingParams(1024, 4, 192, 16, Mix64(1));
  params.h_multiplier = 4.0;
  params.reconciler.mode = SetsReconcilerMode::kFingerprint;
  params.reconciler.codec = WireCodec::kClassic;
  auto report = RunGapProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  ExpectTranscriptPin(*report, {16, 16, 0xa2150f6a10bff4abULL,
                                {{"B->A sig-iblt", 18558},
                                 {"A->B missing-sigs", 1754},
                                 {"B->A elem-iblt+fps", 65004},
                                 {"A->B far elements", 16417}}});
}

TEST(GapTranscriptPinTest, L1Gap) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL1;
  config.dim = 8;
  config.delta = 1023;
  config.n = 96;
  config.outliers = 3;
  config.noise = 3;
  config.outlier_dist = 300;
  config.seed = 17;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());
  GapProtocolParams params;
  params.metric = MetricKind::kL1;
  params.dim = 8;
  params.delta = 1023;
  params.r1 = 3;
  params.r2 = 200;
  params.k = 3;
  params.reconciler.codec = WireCodec::kClassic;
  params.seed = 23;
  auto report = RunGapProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  ExpectTranscriptPin(*report, {3, 3, 0xa84e9bba78577412ULL,
                                {{"B->A sig-iblt", 2841},
                                 {"A->B missing-sigs", 345},
                                 {"B->A elem-iblt+fps", 10765},
                                 {"A->B far elements", 50}}});
}

TEST(GapTranscriptPinTest, LowDimL1) {
  NoisyPairConfig config;
  config.metric = MetricKind::kL1;
  config.dim = 2;
  config.delta = 4095;
  config.n = 96;
  config.outliers = 3;
  config.noise = 2;
  config.outlier_dist = 200;
  config.seed = 29;
  auto workload = GenerateNoisyPairStore(config);
  ASSERT_TRUE(workload.ok());
  LowDimGapParams params;
  params.metric = MetricKind::kL1;
  params.dim = 2;
  params.delta = 4095;
  params.r1 = 2;
  params.r2 = 100;
  params.k = 3;
  params.h_multiplier = 2.0;
  params.reconciler.codec = WireCodec::kClassic;
  params.seed = 31;
  auto report = RunLowDimGapProtocol(workload->alice, workload->bob, params);
  ASSERT_TRUE(report.ok());
  ExpectTranscriptPin(*report, {3, 3, 0x222a214953c8d36ULL,
                                {{"B->A sig-iblt", 1033},
                                 {"A->B missing-sigs", 121},
                                 {"B->A elem-iblt+fps", 1336},
                                 {"A->B far elements", 16}}});
}

}  // namespace
}  // namespace rsr
