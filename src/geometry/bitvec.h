// Packed bit-vectors for fast operations in binary Hamming space.
//
// Theorem 4.6's hard instance and the Gap benchmarks on ({0,1}^d, Hamming)
// use d as large as n; popcount over packed words keeps distance evaluation
// ~64x faster than the generic row kernels (metric.h).
#ifndef RSR_GEOMETRY_BITVEC_H_
#define RSR_GEOMETRY_BITVEC_H_

#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace rsr {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  size_t size() const { return num_bits_; }

  bool Get(size_t i) const {
    RSR_DCHECK(i < num_bits_);
    return (words_[i / 64] >> (i % 64)) & 1;
  }
  void Set(size_t i, bool v) {
    RSR_DCHECK(i < num_bits_);
    uint64_t mask = uint64_t{1} << (i % 64);
    if (v) {
      words_[i / 64] |= mask;
    } else {
      words_[i / 64] &= ~mask;
    }
  }
  void Flip(size_t i) {
    RSR_DCHECK(i < num_bits_);
    words_[i / 64] ^= uint64_t{1} << (i % 64);
  }

  /// Hamming distance via popcount.
  int64_t DistanceTo(const BitVec& other) const;

  bool operator==(const BitVec& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace rsr

#endif  // RSR_GEOMETRY_BITVEC_H_
