// Runtime dispatch for the column-major batch kernels.
//
// A single function-pointer table is resolved once per process (thread-safe
// static initialization) from three inputs — were the AVX2 sources compiled
// with AVX2 codegen, does CPUID report AVX2, is RSR_FORCE_SCALAR unset — so
// one binary runs everywhere and the hot loops pay one indirect call per
// (function, block), which the surrounding virtual EvalColsBatch call
// already dwarfs.
#include "lsh/batch_kernels.h"

#include "lsh/batch_kernels_avx2.h"
#include "util/cpu_features.h"

namespace rsr {
namespace lsh_internal {

namespace {

void GridHashColsScalar(const double* cols, size_t col_stride, size_t n,
                        size_t dim, const double* offsets, double w,
                        uint64_t salt, uint64_t* out, size_t out_stride) {
  GridHashBatch(
      [cols, col_stride](size_t i) { return ColRowView{cols + i, col_stride}; },
      n, offsets, dim, w, salt, out, out_stride);
}

void DotCellColsScalar(const double* cols, size_t col_stride, size_t n,
                       size_t dim, const double* direction, double offset,
                       double w, uint64_t* out, size_t out_stride) {
  DotCellBatch(
      [cols, col_stride](size_t i) { return ColRowView{cols + i, col_stride}; },
      n, direction, dim, offset, w, out, out_stride);
}

struct KernelTable {
  decltype(&GridHashColsScalar) grid_cols;
  decltype(&DotCellColsScalar) dot_cols;
  const char* name;
};

const KernelTable& ActiveKernels() {
  static const KernelTable table = [] {
    if (kAvx2KernelsCompiled && CpuSupportsAvx2() && !ForceScalarKernels()) {
      return KernelTable{GridHashColsAvx2, DotCellColsAvx2, "avx2"};
    }
    return KernelTable{GridHashColsScalar, DotCellColsScalar, "scalar"};
  }();
  return table;
}

}  // namespace

void GridHashCols(const double* cols, size_t col_stride, size_t n, size_t dim,
                  const double* offsets, double w, uint64_t salt, uint64_t* out,
                  size_t out_stride) {
  ActiveKernels().grid_cols(cols, col_stride, n, dim, offsets, w, salt, out,
                            out_stride);
}

void DotCellCols(const double* cols, size_t col_stride, size_t n, size_t dim,
                 const double* direction, double offset, double w,
                 uint64_t* out, size_t out_stride) {
  ActiveKernels().dot_cols(cols, col_stride, n, dim, direction, offset, w, out,
                           out_stride);
}

const char* ActiveBatchKernelName() { return ActiveKernels().name; }

}  // namespace lsh_internal
}  // namespace rsr
