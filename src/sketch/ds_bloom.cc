#include "sketch/ds_bloom.h"

#include <algorithm>
#include <cmath>

#include "hashing/hash64.h"
#include "lsh/eval_pipeline.h"

namespace rsr {

size_t DistanceSensitiveBloomFilter::RecommendedHashesPerBank(
    const LshParams& lsh, size_t n) {
  double g = 1.0;
  for (; g < 256.0; g += 1.0) {
    double close = std::pow(lsh.p1, g);
    double far = static_cast<double>(n) * std::pow(lsh.p2, g);
    if (far <= close / 2.0) break;
  }
  return static_cast<size_t>(g);
}

DistanceSensitiveBloomFilter::DistanceSensitiveBloomFilter(
    const LshFamily& family, LshParams lsh, const DsBloomParams& params)
    : params_(params) {
  RSR_CHECK(params.num_banks >= 1);
  RSR_CHECK(params.hashes_per_bank >= 1);
  RSR_CHECK(params.bits_per_bank >= 8);

  Rng rng(params.seed);
  functions_ = DrawMany(family, params.num_banks * params.hashes_per_bank,
                        &rng);
  mix_salts_.resize(params.num_banks);
  for (auto& salt : mix_salts_) salt = rng.Next();
  banks_.assign(params.num_banks,
                std::vector<uint8_t>((params.bits_per_bank + 7) / 8, 0));

  if (params.threshold > 0) {
    threshold_ = params.threshold;
  } else {
    double g = static_cast<double>(params.hashes_per_bank);
    double close_rate = std::pow(lsh.p1, g);
    double far_rate =
        std::min(1.0, static_cast<double>(std::max<size_t>(
                          params.expected_set_size, 1)) *
                          std::pow(lsh.p2, g));
    threshold_ = (close_rate + far_rate) / 2.0;
  }
}

size_t DistanceSensitiveBloomFilter::BitIndex(size_t bank, PointRef p) const {
  uint64_t h = mix_salts_[bank];
  for (size_t j = 0; j < params_.hashes_per_bank; ++j) {
    h = HashCombine(h,
                    functions_[bank * params_.hashes_per_bank + j]->Eval(p));
  }
  return static_cast<size_t>(h % params_.bits_per_bank);
}

void DistanceSensitiveBloomFilter::Insert(PointRef p) {
  for (size_t bank = 0; bank < params_.num_banks; ++bank) {
    size_t idx = BitIndex(bank, p);
    banks_[bank][idx / 8] |= static_cast<uint8_t>(1u << (idx % 8));
  }
}

void DistanceSensitiveBloomFilter::InsertMany(const PointStore& points) {
  EvalMatrix evals;
  EvaluateAllInto(points, functions_, /*num_threads=*/1, &evals);
  const size_t g = params_.hashes_per_bank;
  for (size_t i = 0; i < evals.rows(); ++i) {
    const uint64_t* row = evals.row(i);
    for (size_t bank = 0; bank < params_.num_banks; ++bank) {
      uint64_t h = mix_salts_[bank];
      for (size_t j = 0; j < g; ++j) h = HashCombine(h, row[bank * g + j]);
      size_t idx = static_cast<size_t>(h % params_.bits_per_bank);
      banks_[bank][idx / 8] |= static_cast<uint8_t>(1u << (idx % 8));
    }
  }
}

double DistanceSensitiveBloomFilter::VoteFraction(PointRef p) const {
  size_t hits = 0;
  for (size_t bank = 0; bank < params_.num_banks; ++bank) {
    size_t idx = BitIndex(bank, p);
    hits += static_cast<size_t>(banks_[bank][idx / 8] >> (idx % 8)) & 1u;
  }
  return static_cast<double>(hits) / static_cast<double>(params_.num_banks);
}

bool DistanceSensitiveBloomFilter::QueryNear(PointRef p) const {
  return VoteFraction(p) >= threshold_;
}

}  // namespace rsr
