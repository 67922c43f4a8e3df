#include "lsh/bit_sampling.h"

#include <cmath>

#include "hashing/hash64.h"

namespace rsr {

namespace {

class BitSamplingFunction : public LshFunction {
 public:
  // index < 0 encodes the constant-0 function.
  explicit BitSamplingFunction(int64_t index) : index_(index) {}

  uint64_t Eval(const Point& x) const override {
    if (index_ < 0) return 0;
    return static_cast<uint64_t>(x[static_cast<size_t>(index_)]);
  }

  // Arena path: a strided gather straight out of the PointStore rows. Bit
  // sampling consumes raw integer coordinates, so this (not the double
  // plane) is its store-native batch. The coordinate-index offset is folded
  // into the base pointer once and both cursors step by their strides, so
  // the per-point loop carries no index arithmetic beyond two adds.
  void EvalCoordBatch(const Coord* coords, size_t n, size_t dim, uint64_t* out,
                      size_t out_stride) const override {
    if (index_ < 0) {
      for (size_t i = 0; i < n; ++i) out[i * out_stride] = 0;
      return;
    }
    const Coord* at = coords + static_cast<size_t>(index_);
    for (size_t i = 0; i < n; ++i, at += dim, out += out_stride) {
      *out = static_cast<uint64_t>(*at);
    }
  }

 private:
  int64_t index_;
};

}  // namespace

BitSamplingFamily::BitSamplingFamily(size_t dim, double w) : dim_(dim), w_(w) {
  RSR_CHECK(dim >= 1);
  RSR_CHECK(w >= static_cast<double>(dim));
}

std::unique_ptr<LshFunction> BitSamplingFamily::Draw(Rng* rng) const {
  double sample_prob = static_cast<double>(dim_) / w_;
  if (rng->Bernoulli(sample_prob)) {
    return std::make_unique<BitSamplingFunction>(
        static_cast<int64_t>(rng->Below(dim_)));
  }
  return std::make_unique<BitSamplingFunction>(-1);
}

double BitSamplingFamily::CollisionProbability(double dist) const {
  double p = 1.0 - dist / w_;
  return p < 0.0 ? 0.0 : p;
}

MlshParams BitSamplingFamily::mlsh_params() const {
  return MlshParams{0.79 * w_, std::exp(-2.0 / w_), 0.5};
}

}  // namespace rsr
