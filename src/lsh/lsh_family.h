// Locality sensitive hashing interfaces (Definitions 2.1 and 2.2).
//
// A drawn LshFunction maps points to 64-bit bucket ids; equality of bucket
// ids is collision. LshFamily::CollisionProbability exposes the analytic
// collision curve used by the property tests and bench_mlsh_curves to verify
// the MLSH sandwich  p^f <= Pr[h(x)=h(y)] <= p^{alpha f}  (f = distance).
#ifndef RSR_LSH_LSH_FAMILY_H_
#define RSR_LSH_LSH_FAMILY_H_

#include <cmath>
#include <memory>
#include <string>

#include "geometry/metric.h"
#include "geometry/point.h"
#include "util/random.h"

namespace rsr {

/// Parameters of a standard LSH family (Definition 2.1).
struct LshParams {
  double r1 = 0;
  double r2 = 0;
  double p1 = 0;
  double p2 = 0;

  /// rho = log(1/p1) / log(1/p2), the meta-parameter of Section 4.
  double rho() const { return std::log(1.0 / p1) / std::log(1.0 / p2); }
};

/// Parameters of a multi-scale LSH family (Definition 2.2):
/// Pr[h(x)=h(y)] <= p^{alpha f(x,y)}, and Pr >= p^{f(x,y)} for f(x,y) <= r.
struct MlshParams {
  double r = 0;
  double p = 0;
  double alpha = 0;
};

/// A single drawn hash function.
///
/// Eval is the scalar reference. Each family also implements exactly one
/// batch entry, over the one layout its arithmetic starts from, and the
/// eval pipeline (eval_pipeline.h) feeds it: one virtual call per
/// (function, block) instead of one per (point, function), with the drawn
/// parameters hoisted out of the point loop. Both entries write
/// out[i * out_stride] for i in [0, n), so a call fills one column of a
/// row-major evaluation matrix, and must produce bucket ids bit-identical to
/// Eval (pinned by lsh_batch_test and simd_dispatch_test), so transcripts
/// never depend on which path a caller takes.
class LshFunction {
 public:
  virtual ~LshFunction() = default;
  virtual uint64_t Eval(const Point& x) const = 0;

  /// Selects the batch entry: true for families whose arithmetic starts
  /// from double coordinates (grid, one-sided grid, 2-stable), which
  /// implement EvalColsBatch; false for families that consume raw integer
  /// coordinates (bit sampling), which implement EvalCoordBatch. int64 ->
  /// double is a single well-defined rounding, so converting once per block
  /// cannot change any bucket id.
  virtual bool SupportsFlatBatch() const { return false; }

  /// Batch over COLUMN-major double coordinates:
  /// cols[j * col_stride + i] == (double)points[i][j]. A vector lane load of
  /// consecutive points' coordinate j is one contiguous load. Implemented
  /// iff SupportsFlatBatch(); the base version CHECK-fails.
  virtual void EvalColsBatch(const double* cols, size_t col_stride, size_t n,
                             size_t dim, uint64_t* out,
                             size_t out_stride) const;

  /// Batch over a row-major n x dim matrix of raw integer coordinates (one
  /// PointStore arena: coords + i * dim is point i's row). Implemented iff
  /// !SupportsFlatBatch(); the base version CHECK-fails.
  virtual void EvalCoordBatch(const Coord* coords, size_t n, size_t dim,
                              uint64_t* out, size_t out_stride) const;
};

/// A distribution over hash functions.
class LshFamily {
 public:
  virtual ~LshFamily() = default;

  virtual std::unique_ptr<LshFunction> Draw(Rng* rng) const = 0;
  virtual std::string Name() const = 0;

  /// Analytic Pr[h(x)=h(y)] for points at distance `dist` under the family's
  /// metric. For families whose collision probability depends on the
  /// coordinate layout (grid/l1), this returns the concentrated-layout value
  /// (all distance in one coordinate), which is the layout minimizing the
  /// probability; the MLSH sandwich holds for every layout.
  virtual double CollisionProbability(double dist) const = 0;

  virtual MetricKind metric() const = 0;
};

/// An LshFamily that additionally satisfies Definition 2.2.
class MlshFamily : public LshFamily {
 public:
  virtual MlshParams mlsh_params() const = 0;
};

/// Draws `count` independent functions from a family.
std::vector<std::unique_ptr<LshFunction>> DrawMany(const LshFamily& family,
                                                   size_t count, Rng* rng);

}  // namespace rsr

#endif  // RSR_LSH_LSH_FAMILY_H_
