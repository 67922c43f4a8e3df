// Unit tests for hashing/: mixers, pairwise and k-independent families,
// checksums.
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "hashing/checksum.h"
#include "hashing/hash64.h"
#include "hashing/kindependent.h"
#include "hashing/pairwise.h"
#include "util/random.h"

namespace rsr {
namespace {

// ------------------------------------------------------------------ Mix --

TEST(Hash64Test, Mix64IsDeterministic) {
  EXPECT_EQ(Mix64(12345), Mix64(12345));
  EXPECT_NE(Mix64(12345), Mix64(12346));
}

TEST(Hash64Test, Mix64Avalanche) {
  // Flipping one input bit should flip ~32 output bits on average.
  Rng rng(1);
  double total_flips = 0;
  const int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    uint64_t x = rng.Next();
    int bit = static_cast<int>(rng.Below(64));
    uint64_t diff = Mix64(x) ^ Mix64(x ^ (uint64_t{1} << bit));
    total_flips += __builtin_popcountll(diff);
  }
  EXPECT_NEAR(total_flips / kTrials, 32.0, 2.0);
}

TEST(Hash64Test, HashBytesSeedSensitivity) {
  const char data[] = "robust set reconciliation";
  EXPECT_NE(HashBytes(data, sizeof(data), 1), HashBytes(data, sizeof(data), 2));
}

TEST(Hash64Test, HashBytesLengthSensitivity) {
  const char data[] = "aaaaaaaaaaaaaaaa";
  EXPECT_NE(HashBytes(data, 8, 7), HashBytes(data, 9, 7));
}

TEST(Hash64Test, HashU64SpanMatchesContent) {
  std::vector<uint64_t> a = {1, 2, 3};
  std::vector<uint64_t> b = {1, 2, 4};
  EXPECT_EQ(HashU64Span(a.data(), a.size(), 5),
            HashU64Span(a.data(), a.size(), 5));
  EXPECT_NE(HashU64Span(a.data(), a.size(), 5),
            HashU64Span(b.data(), b.size(), 5));
}

// ------------------------------------------------------------- Mersenne --

TEST(PairwiseTest, Mod61Identities) {
  EXPECT_EQ(Mod61(0), 0u);
  EXPECT_EQ(Mod61(kMersenne61), 0u);
  EXPECT_EQ(Mod61(kMersenne61 + 5), 5u);
  unsigned __int128 big =
      static_cast<unsigned __int128>(kMersenne61) * kMersenne61;
  EXPECT_EQ(Mod61(big), 0u);
  EXPECT_EQ(Mod61(big + 17), 17u);
}

TEST(PairwiseTest, MulAddMod61MatchesNaive) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    uint64_t a = rng.Below(kMersenne61);
    uint64_t x = rng.Below(kMersenne61);
    uint64_t b = rng.Below(kMersenne61);
    unsigned __int128 expect =
        (static_cast<unsigned __int128>(a) * x + b) %
        static_cast<unsigned __int128>(kMersenne61);
    EXPECT_EQ(MulAddMod61(a, x, b), static_cast<uint64_t>(expect));
  }
}

TEST(PairwiseTest, OutputBelowPrime) {
  Rng rng(4);
  PairwiseHash h = PairwiseHash::Draw(&rng);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(h.Eval(rng.Next()), kMersenne61);
  }
}

TEST(PairwiseTest, EvalBitsMasksCorrectly) {
  Rng rng(5);
  PairwiseHash h = PairwiseHash::Draw(&rng);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(h.EvalBits(rng.Next(), 10), 1u << 10);
  }
}

TEST(PairwiseTest, PairwiseCollisionRateNearUniform) {
  // For a pairwise-independent family into b bits, Pr[h(x)=h(y)] ~ 2^-b.
  Rng rng(6);
  const int kBits = 12;
  const int kPairs = 40000;
  int collisions = 0;
  for (int t = 0; t < kPairs; ++t) {
    PairwiseHash h = PairwiseHash::Draw(&rng);
    collisions += (h.EvalBits(static_cast<uint64_t>(2 * t), kBits) ==
                   h.EvalBits(static_cast<uint64_t>(2 * t + 1), kBits));
  }
  double expected = kPairs / 4096.0;
  EXPECT_NEAR(collisions, expected, 4 * std::sqrt(expected) + 3);
}

TEST(PairwiseVectorTest, DeterministicAndPrefixSensitive) {
  Rng rng(7);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  std::vector<uint64_t> v = {10, 20, 30, 40};
  EXPECT_EQ(h.Eval(v, 4), h.Eval(v, 4));
  EXPECT_NE(h.Eval(v, 2), h.Eval(v, 3));  // whp
}

TEST(PairwiseVectorTest, ContentSensitive) {
  Rng rng(8);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  std::vector<uint64_t> a = {1, 2, 3};
  std::vector<uint64_t> b = {1, 2, 4};
  EXPECT_NE(h.Eval(a), h.Eval(b));
}

TEST(PairwiseVectorTest, PrefixEvalMatchesTruncatedVector) {
  Rng rng(9);
  PairwiseVectorHash h = PairwiseVectorHash::Draw(&rng);
  std::vector<uint64_t> v = {5, 6, 7, 8, 9};
  std::vector<uint64_t> prefix = {5, 6, 7};
  EXPECT_EQ(h.Eval(v, 3), h.Eval(prefix, 3));
}

TEST(PairwiseVectorTest, IndependentDrawsDisagree) {
  Rng rng(10);
  PairwiseVectorHash h1 = PairwiseVectorHash::Draw(&rng);
  PairwiseVectorHash h2 = PairwiseVectorHash::Draw(&rng);
  std::vector<uint64_t> v = {42, 43};
  EXPECT_NE(h1.Eval(v), h2.Eval(v));  // whp
}

// --------------------------------------------------------- KIndependent --

TEST(KIndependentTest, DeterministicPolynomial) {
  Rng rng(11);
  KIndependentHash h = KIndependentHash::Draw(4, &rng);
  EXPECT_EQ(h.Eval(123), h.Eval(123));
  EXPECT_LT(h.Eval(123), kMersenne61);
}

TEST(KIndependentTest, DegreeOneIsConstant) {
  Rng rng(12);
  KIndependentHash h = KIndependentHash::Draw(1, &rng);
  EXPECT_EQ(h.Eval(1), h.Eval(2));
}

TEST(KIndependentTest, UniformBucketDistribution) {
  Rng rng(13);
  KIndependentHash h = KIndependentHash::Draw(3, &rng);
  const int kBuckets = 16;
  std::vector<int> counts(kBuckets, 0);
  const int kSamples = 32000;
  for (int i = 0; i < kSamples; ++i) {
    counts[h.Eval(static_cast<uint64_t>(i)) % kBuckets]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, 5 * std::sqrt(kSamples / kBuckets));
  }
}

TEST(KIndependentTest, PairCollisionRate) {
  Rng rng(14);
  const int kTrials = 30000;
  int collisions = 0;
  for (int t = 0; t < kTrials; ++t) {
    KIndependentHash h = KIndependentHash::Draw(3, &rng);
    collisions += (h.Eval(static_cast<uint64_t>(t)) % 1024 ==
                   h.Eval(static_cast<uint64_t>(t + kTrials)) % 1024);
  }
  double expected = kTrials / 1024.0;
  EXPECT_NEAR(collisions, expected, 5 * std::sqrt(expected) + 3);
}

// ------------------------------------------------------------- Checksum --

TEST(ChecksumTest, DistinctKeysDistinctChecksums) {
  std::set<uint64_t> seen;
  for (uint64_t k = 0; k < 10000; ++k) {
    seen.insert(KeyChecksum(k, 77));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(ChecksumTest, SaltChangesChecksum) {
  EXPECT_NE(KeyChecksum(5, 1), KeyChecksum(5, 2));
}

}  // namespace
}  // namespace rsr
