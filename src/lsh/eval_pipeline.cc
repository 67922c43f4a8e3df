#include "lsh/eval_pipeline.h"

#include <algorithm>

#include "util/parallel.h"

namespace rsr {

void EvaluateRowsInto(
    const PointStore& points, size_t row_begin, size_t row_count,
    const std::vector<std::unique_ptr<LshFunction>>& functions,
    size_t num_threads, EvalMatrix* out) {
  RSR_CHECK(row_begin + row_count <= points.size());
  const size_t n = row_count;
  const size_t s = functions.size();
  out->Reset(n, s);
  if (n == 0 || s == 0) return;
  uint64_t* data = out->mutable_data();
  const size_t dim = points.dim();
  // All draws come from one family, so one representative picks the layout.
  // Flat families read column blocks transposed from the store's cached
  // double plane (the store converts coordinates once, the first time any
  // pipeline asks); integer-coordinate families stream the arena directly.
  // Both are touched here, before the fan-out, so workers only ever read.
  const bool flat = functions[0]->SupportsFlatBatch();
  // Base pointers are offset to row_begin so the block loop below can index
  // rows [0, row_count) uniformly. DoublePlane() converts at most the dirty
  // tail (see PointStore), so a tail evaluation right after appends costs
  // O(row_count · dim) conversion, not O(n · dim).
  const double* plane =
      flat ? points.DoublePlane() + row_begin * dim : nullptr;
  const Coord* arena = points.coord_data() + row_begin * dim;
  // Block the point range so one block's matrix slice (block * s * 8 bytes)
  // stays L1-resident across all s strided column writes; without blocking
  // every write of a function pass lands on a distinct line of the full
  // n x s buffer. The column kernels re-touch their slice with SIMD-rate
  // stores, so they want the slice well inside L1 (16 KiB); the coord path's
  // scalar gather tolerates a larger footprint and prefers fewer virtual
  // calls. The transpose scratch is a fixed stack buffer (this pipeline is
  // allocation-free when warm — pinned by pointstore_test), so wide points
  // shrink the block, down to one row.
  constexpr size_t kColsScratchDoubles = 4096;  // 32 KiB per worker
  size_t block = (flat ? (size_t{1} << 11) : (size_t{1} << 13)) / s;
  if (block < 16) block = 16;
  if (flat && block * dim > kColsScratchDoubles) {
    block = std::max<size_t>(kColsScratchDoubles / dim, 1);
  }
  ParallelShards(n, num_threads, [&](size_t begin, size_t end) {
    alignas(32) double scratch[kColsScratchDoubles];
    for (size_t b = begin; b < end; b += block) {
      const size_t len = std::min(block, end - b);
      // Transpose each block of plane rows to column-major ONCE
      // (cols[j * len + i]), amortized over all s function passes. A
      // one-row block is already column-major (col_stride 1), so it is
      // read in place; that is also what lets any dim fit the scratch.
      const double* cols = nullptr;
      if (flat) {
        cols = plane + b * dim;
        if (len > 1) {
          for (size_t j = 0; j < dim; ++j) {
            double* col = scratch + j * len;
            for (size_t i = 0; i < len; ++i) col[i] = cols[i * dim + j];
          }
          cols = scratch;
        }
      }
      // Function-major within the block: one virtual call per function, with
      // its drawn parameters hoisted for the whole point range.
      for (size_t g = 0; g < s; ++g) {
        if (flat) {
          functions[g]->EvalColsBatch(cols, len, len, dim, data + b * s + g,
                                      s);
        } else {
          functions[g]->EvalCoordBatch(arena + b * dim, len, dim,
                                       data + b * s + g, s);
        }
      }
    }
  });
}

void EvaluateAllInto(const PointStore& points,
                     const std::vector<std::unique_ptr<LshFunction>>& functions,
                     size_t num_threads, EvalMatrix* out) {
  EvaluateRowsInto(points, 0, points.size(), functions, num_threads, out);
}

}  // namespace rsr
