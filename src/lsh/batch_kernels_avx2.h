// AVX2 entry points for the column-major batch kernels.
//
// These are the vector twins of the scalar templates in batch_kernels.h,
// specialized to the column-major layout the eval pipeline feeds
// (cols[j * col_stride + i]), where a 4-point lane load is one contiguous
// vmovupd with no shuffles. Callers never invoke them directly —
// batch_kernels.cc selects them at runtime (util/cpu_features.h) — except
// the bit-identity tests, which pin scalar == AVX2 regardless of the
// dispatch decision.
//
// The definitions live in batch_kernels_avx2.cc, the one translation unit
// CMake compiles with -mavx2 (and -ffp-contract=off, so no multiply-add is
// ever contracted into an FMA the scalar reference does not perform). When
// that TU is built without AVX2 (non-x86 target, unsupported compiler),
// kAvx2KernelsCompiled is false and these symbols forward to the scalar
// reference so the dispatch table stays linkable everywhere.
#ifndef RSR_LSH_BATCH_KERNELS_AVX2_H_
#define RSR_LSH_BATCH_KERNELS_AVX2_H_

#include <cstddef>
#include <cstdint>

namespace rsr {
namespace lsh_internal {

/// True iff batch_kernels_avx2.cc was compiled with AVX2 code generation
/// enabled (the dispatcher requires this on top of the CPUID probe).
extern const bool kAvx2KernelsCompiled;

void GridHashColsAvx2(const double* cols, size_t col_stride, size_t n,
                      size_t dim, const double* offsets, double w,
                      uint64_t salt, uint64_t* out, size_t out_stride);
void DotCellColsAvx2(const double* cols, size_t col_stride, size_t n,
                     size_t dim, const double* direction, double offset,
                     double w, uint64_t* out, size_t out_stride);

}  // namespace lsh_internal
}  // namespace rsr

#endif  // RSR_LSH_BATCH_KERNELS_AVX2_H_
