#include "lsh/grid.h"

#include <cmath>

#include "hashing/hash64.h"
#include "lsh/batch_kernels.h"

namespace rsr {

namespace {

class GridFunction : public LshFunction {
 public:
  GridFunction(std::vector<double> offsets, double w, uint64_t salt)
      : offsets_(std::move(offsets)), w_(w), salt_(salt) {}

  uint64_t Eval(const Point& x) const override {
    RSR_DCHECK(x.dim() == offsets_.size());
    uint64_t h = salt_;
    for (size_t j = 0; j < offsets_.size(); ++j) {
      int64_t cell = static_cast<int64_t>(
          std::floor((static_cast<double>(x[j]) + offsets_[j]) / w_));
      h = HashCombine(h, static_cast<uint64_t>(cell));
    }
    return h;
  }

  // Function-major hot path: offsets/width/salt are loaded once for the
  // whole point block, with interleaved HashCombine chains
  // (batch_kernels.h). The per-coordinate `/ w` division is kept (not
  // replaced by a reciprocal multiply) so cell indices round exactly like
  // Eval's. The kernel is runtime-dispatched (AVX2 when the host supports
  // it; bit-identical either way).
  bool SupportsFlatBatch() const override { return true; }
  void EvalColsBatch(const double* cols, size_t col_stride, size_t n,
                     size_t dim, uint64_t* out,
                     size_t out_stride) const override {
    RSR_DCHECK(dim == offsets_.size());
    lsh_internal::GridHashCols(cols, col_stride, n, dim, offsets_.data(), w_,
                               salt_, out, out_stride);
  }

 private:
  std::vector<double> offsets_;
  double w_;
  uint64_t salt_;
};

}  // namespace

GridFamily::GridFamily(size_t dim, double w) : dim_(dim), w_(w) {
  RSR_CHECK(dim >= 1);
  RSR_CHECK(w > 0.0);
}

std::unique_ptr<LshFunction> GridFamily::Draw(Rng* rng) const {
  std::vector<double> offsets(dim_);
  for (auto& o : offsets) o = rng->UniformDouble() * w_;
  return std::make_unique<GridFunction>(std::move(offsets), w_, rng->Next());
}

double GridFamily::CollisionProbability(double dist) const {
  // Concentrated layout (all of dist in one coordinate): the minimum over
  // layouts; see header.
  double p = 1.0 - dist / w_;
  return p < 0.0 ? 0.0 : p;
}

MlshParams GridFamily::mlsh_params() const {
  return MlshParams{0.79 * w_, std::exp(-2.0 / w_), 0.5};
}

}  // namespace rsr
