// AVX2 implementations of the column-major batch kernels.
//
// Compiled with -mavx2 -ffp-contract=off (see CMakeLists.txt). Bit-exactness
// strategy: one 64-bit lane == one point, and every lane performs the scalar
// reference's per-point operations in the scalar order —
//
//   grid:    cell_j = (int64)floor((x_j + offset_j) / w), folded through a
//            HashCombine chain (hash64_avx2.h lanes == scalar HashCombine);
//   2-stable: dot = offset; dot += direction_j * x_j (separate IEEE multiply
//            and add per step, never an FMA — matching the scalar kernel,
//            whose baseline-x86-64 codegen cannot fuse either); then
//            cell = (int64)floor(dot / w).
//
// vdivpd / vaddpd / vmulpd / vroundpd are IEEE-754 operations identical to
// their scalar counterparts, and double -> int64 goes through per-lane
// cvttsd2si exactly like the scalar casts. The only reordering is ACROSS
// points, which share no state.
//
// Memory layout: cols[j * col_stride + i], so 4 consecutive points'
// coordinate j is one contiguous load — no transpose shuffles, no gathers.
// The eval pipeline transposes each point block once and amortizes it over
// all s drawn functions, so these run at pure arithmetic throughput.
#include "lsh/batch_kernels_avx2.h"

#include "lsh/batch_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include "hashing/hash64_avx2.h"

namespace rsr {
namespace lsh_internal {

const bool kAvx2KernelsCompiled = true;

namespace {

/// Lane-wise (int64)value for already-floored doubles; per-lane cvttsd2si,
/// the same instruction the scalar casts compile to (AVX2 has no packed
/// double -> int64 conversion).
inline __m256i TruncToI64(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return _mm256_set_epi64x(
      static_cast<int64_t>(lanes[3]), static_cast<int64_t>(lanes[2]),
      static_cast<int64_t>(lanes[1]), static_cast<int64_t>(lanes[0]));
}

inline void Store4(uint64_t* out, size_t out_stride, __m256i v) {
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  out[0 * out_stride] = lanes[0];
  out[1 * out_stride] = lanes[1];
  out[2 * out_stride] = lanes[2];
  out[3 * out_stride] = lanes[3];
}

}  // namespace

void GridHashColsAvx2(const double* cols, size_t col_stride, size_t n,
                      size_t dim, const double* offsets, double w,
                      uint64_t salt, uint64_t* out, size_t out_stride) {
  const __m256d vw = _mm256_set1_pd(w);
  const __m256i vsalt = _mm256_set1_epi64x(static_cast<int64_t>(salt));
  size_t i = 0;
  // 8 points = two independent hash chains so one chain's serial Mix64
  // latency overlaps the other's divides.
  for (; i + 8 <= n; i += 8) {
    __m256i h0 = vsalt;
    __m256i h1 = vsalt;
    for (size_t j = 0; j < dim; ++j) {
      const double* c = cols + j * col_stride + i;
      const __m256d voff = _mm256_set1_pd(offsets[j]);
      __m256d cell0 =
          _mm256_floor_pd(_mm256_div_pd(_mm256_add_pd(_mm256_loadu_pd(c), voff),
                                        vw));
      __m256d cell1 = _mm256_floor_pd(
          _mm256_div_pd(_mm256_add_pd(_mm256_loadu_pd(c + 4), voff), vw));
      h0 = hash_avx2::HashCombine4(h0, TruncToI64(cell0));
      h1 = hash_avx2::HashCombine4(h1, TruncToI64(cell1));
    }
    Store4(out + i * out_stride, out_stride, h0);
    Store4(out + (i + 4) * out_stride, out_stride, h1);
  }
  for (; i + 4 <= n; i += 4) {
    __m256i h = vsalt;
    for (size_t j = 0; j < dim; ++j) {
      __m256d cell = _mm256_floor_pd(_mm256_div_pd(
          _mm256_add_pd(_mm256_loadu_pd(cols + j * col_stride + i),
                        _mm256_set1_pd(offsets[j])),
          vw));
      h = hash_avx2::HashCombine4(h, TruncToI64(cell));
    }
    Store4(out + i * out_stride, out_stride, h);
  }
  if (i < n) {
    GridHashBatch(
        [cols, col_stride, i](size_t t) {
          return ColRowView{cols + i + t, col_stride};
        },
        n - i, offsets, dim, w, salt, out + i * out_stride, out_stride);
  }
}

void DotCellColsAvx2(const double* cols, size_t col_stride, size_t n,
                     size_t dim, const double* direction, double offset,
                     double w, uint64_t* out, size_t out_stride) {
  const __m256d vw = _mm256_set1_pd(w);
  const __m256d voffset = _mm256_set1_pd(offset);
  size_t i = 0;
  // 16 points = four independent accumulator chains (vaddpd latency cover;
  // each lane's adds stay serial in scalar order).
  for (; i + 16 <= n; i += 16) {
    __m256d a0 = voffset, a1 = voffset, a2 = voffset, a3 = voffset;
    for (size_t j = 0; j < dim; ++j) {
      const double* c = cols + j * col_stride + i;
      const __m256d dir = _mm256_set1_pd(direction[j]);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(dir, _mm256_loadu_pd(c)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(dir, _mm256_loadu_pd(c + 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(dir, _mm256_loadu_pd(c + 8)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(dir, _mm256_loadu_pd(c + 12)));
    }
    // Batch the floored quotients onto the stack and convert per lane: the
    // compiler emits one cvttsd2si-from-memory per point, exactly the scalar
    // reference's cast.
    alignas(32) double cells[16];
    _mm256_store_pd(cells + 0, _mm256_floor_pd(_mm256_div_pd(a0, vw)));
    _mm256_store_pd(cells + 4, _mm256_floor_pd(_mm256_div_pd(a1, vw)));
    _mm256_store_pd(cells + 8, _mm256_floor_pd(_mm256_div_pd(a2, vw)));
    _mm256_store_pd(cells + 12, _mm256_floor_pd(_mm256_div_pd(a3, vw)));
    for (size_t t = 0; t < 16; ++t) {
      out[(i + t) * out_stride] =
          static_cast<uint64_t>(static_cast<int64_t>(cells[t]));
    }
  }
  for (; i + 4 <= n; i += 4) {
    __m256d acc = voffset;
    for (size_t j = 0; j < dim; ++j) {
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(_mm256_set1_pd(direction[j]),
                             _mm256_loadu_pd(cols + j * col_stride + i)));
    }
    alignas(32) double cells[4];
    _mm256_store_pd(cells, _mm256_floor_pd(_mm256_div_pd(acc, vw)));
    for (size_t t = 0; t < 4; ++t) {
      out[(i + t) * out_stride] =
          static_cast<uint64_t>(static_cast<int64_t>(cells[t]));
    }
  }
  if (i < n) {
    DotCellBatch(
        [cols, col_stride, i](size_t t) {
          return ColRowView{cols + i + t, col_stride};
        },
        n - i, direction, dim, offset, w, out + i * out_stride, out_stride);
  }
}

}  // namespace lsh_internal
}  // namespace rsr

#else  // !defined(__AVX2__)

// Built without AVX2 code generation: keep the symbols linkable by
// forwarding to the scalar reference. The dispatcher never selects them
// (kAvx2KernelsCompiled is false); only a test calling the AVX2 entry
// points directly would land here, and it gets correct results.
namespace rsr {
namespace lsh_internal {

const bool kAvx2KernelsCompiled = false;

void GridHashColsAvx2(const double* cols, size_t col_stride, size_t n,
                      size_t dim, const double* offsets, double w,
                      uint64_t salt, uint64_t* out, size_t out_stride) {
  GridHashBatch(
      [cols, col_stride](size_t i) { return ColRowView{cols + i, col_stride}; },
      n, offsets, dim, w, salt, out, out_stride);
}

void DotCellColsAvx2(const double* cols, size_t col_stride, size_t n,
                     size_t dim, const double* direction, double offset,
                     double w, uint64_t* out, size_t out_stride) {
  DotCellBatch(
      [cols, col_stride](size_t i) { return ColRowView{cols + i, col_stride}; },
      n, direction, dim, offset, w, out, out_stride);
}

}  // namespace lsh_internal
}  // namespace rsr

#endif  // defined(__AVX2__)
