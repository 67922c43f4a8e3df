#include "lsh/lsh_family.h"

namespace rsr {

// Each family implements exactly one of the two batch entries (see
// SupportsFlatBatch); reaching the other is a pipeline bug.
void LshFunction::EvalColsBatch(const double* /*cols*/, size_t /*col_stride*/,
                                size_t /*n*/, size_t /*dim*/,
                                uint64_t* /*out*/,
                                size_t /*out_stride*/) const {
  RSR_CHECK(false);  // only valid when SupportsFlatBatch()
}

void LshFunction::EvalCoordBatch(const Coord* /*coords*/, size_t /*n*/,
                                 size_t /*dim*/, uint64_t* /*out*/,
                                 size_t /*out_stride*/) const {
  RSR_CHECK(false);  // only valid when !SupportsFlatBatch()
}

}  // namespace rsr
