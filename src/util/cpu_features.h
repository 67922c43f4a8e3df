// Runtime CPU feature detection and the SIMD dispatch policy.
//
// The batch kernels (lsh/batch_kernels.h) ship a portable scalar reference
// plus AVX2 implementations compiled into a separate translation unit with
// -mavx2 (CMakeLists.txt gates that on an x86-64 GNU/Clang toolchain). One
// binary runs everywhere: the dispatcher probes the CPU once at startup and
// selects the widest implementation the host supports, so no part of the
// portable build ever executes an instruction the CPU lacks.
//
// Policy, decided once per process (thread-safe static init):
//   AVX2 kernels run iff
//     (a) the AVX2 translation unit was compiled with AVX2 enabled
//         (lsh_internal::kAvx2KernelsCompiled),
//     (b) CPUID reports AVX2 support (CpuSupportsAvx2), and
//     (c) the RSR_FORCE_SCALAR environment override is not set.
//   Anything else falls back to the scalar reference kernels.
//
// RSR_FORCE_SCALAR: set to any value other than "" or "0" to pin the scalar
// path (CI runs the full test suite under both arms; see
// ci/build_and_test.sh). Read once, at the first dispatch decision.
//
// Both paths are bit-identical by construction — the AVX2 kernels preserve
// each point's scalar operation order — so the override is a coverage and
// debugging knob, never a correctness one.
#ifndef RSR_UTIL_CPU_FEATURES_H_
#define RSR_UTIL_CPU_FEATURES_H_

#include <string>

namespace rsr {

/// True iff CPUID reports AVX2 (always false on non-x86 builds). Cached
/// after the first call.
bool CpuSupportsAvx2();

/// True iff the RSR_FORCE_SCALAR environment variable pins the scalar
/// kernels (set and neither empty nor "0"). Read once per process.
bool ForceScalarKernels();

/// Human-readable summary of the probed instruction-set extensions, e.g.
/// "sse2 sse4.2 avx avx2 fma" — recorded in bench_micro's JSON context so
/// the host behind a run is identifiable.
std::string CpuFeatureString();

}  // namespace rsr

#endif  // RSR_UTIL_CPU_FEATURES_H_
