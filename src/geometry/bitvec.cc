#include "geometry/bitvec.h"

#include <bit>

namespace rsr {

int64_t BitVec::DistanceTo(const BitVec& other) const {
  RSR_DCHECK(num_bits_ == other.num_bits_);
  int64_t dist = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    dist += std::popcount(words_[i] ^ other.words_[i]);
  }
  return dist;
}

}  // namespace rsr
