#include "core/gap_lowdim.h"

#include <algorithm>
#include <cmath>

#include "hashing/hash64.h"
#include "lsh/one_sided_grid.h"

namespace rsr {

Result<GapProtocolReport> RunLowDimGapProtocol(const PointStore& alice,
                                               const PointStore& bob,
                                               const LowDimGapParams& params) {
  if (params.dim == 0) return Status::InvalidArgument("dim must be positive");
  if (params.metric != MetricKind::kL1 && params.metric != MetricKind::kL2) {
    return Status::InvalidArgument("one-sided grid supports l1/l2 only");
  }
  if (!(0 < params.r1 && params.r1 < params.r2)) {
    return Status::InvalidArgument("need 0 < r1 < r2");
  }
  ValidatePointStore(alice, params.dim, params.delta);
  ValidatePointStore(bob, params.dim, params.delta);

  const int p_exp = params.metric == MetricKind::kL1 ? 1 : 2;
  OneSidedGridFamily family(params.dim, params.r2, p_exp);
  double rho_hat = family.RhoHat(params.r1);
  if (rho_hat >= 1.0) {
    return Status::InvalidArgument(
        "rho_hat = r1*d/r2 >= 1: Theorem 4.5 regime requires r2 > r1*d");
  }

  const size_t n = std::max<size_t>(std::max(alice.size(), bob.size()), 4);
  GapProtocolReport report;
  GapDerived& derived = report.derived;
  derived.p1 = 1.0 - rho_hat;
  derived.p2 = 0.0;
  derived.rho = rho_hat;  // the theorem's meta-parameter rho_hat
  derived.m = 1;
  derived.q1 = derived.p1;
  derived.q2 = 0.0;
  RSR_ASSIGN_OR_RETURN(
      derived.h,
      internal::KeyLength(params.h_multiplier *
                              std::log2(static_cast<double>(n)) /
                              std::log2(1.0 / rho_hat),
                          1));
  derived.tau = 1.0;  // far iff NO entry matches (p2 = 0 one-sided error)

  internal::GapPipelineConfig config;
  config.h = derived.h;
  config.m = 1;
  config.tau = derived.tau;
  config.reconciler = params.reconciler;
  config.num_threads = params.num_threads;
  config.seed = params.seed;
  double expect_entry_diff_rate = rho_hat;
  double expected_diff_sets =
      2.0 * (static_cast<double>(params.k) +
             static_cast<double>(n) *
                 std::min(1.0, static_cast<double>(derived.h) *
                                   expect_entry_diff_rate));
  double expected_diff_elems =
      2.0 * static_cast<double>(derived.h) *
      (static_cast<double>(params.k) +
       static_cast<double>(n) * expect_entry_diff_rate);
  if (config.reconciler.sig_cells == 0) {
    config.reconciler.sig_cells =
        std::max<size_t>(64, static_cast<size_t>(2.5 * expected_diff_sets));
  }
  if (config.reconciler.elem_cells == 0) {
    config.reconciler.elem_cells =
        std::max<size_t>(128, static_cast<size_t>(2.5 * expected_diff_elems));
  }
  if (config.reconciler.seed == 0) {
    config.reconciler.seed = HashCombine(params.seed, 0x10d5e75ULL);
  }

  Rng shared(params.seed);
  std::vector<std::unique_ptr<LshFunction>> functions =
      DrawMany(family, derived.h, &shared);

  RSR_ASSIGN_OR_RETURN(
      internal::GapPipelineResult pipeline,
      internal::RunGapPipeline(alice, bob, functions, config));
  report.s_b_prime = std::move(pipeline.s_b_prime);
  report.transmitted = std::move(pipeline.transmitted);
  report.far_keys = pipeline.far_keys;
  report.reconciliation = std::move(pipeline.reconciliation);
  report.comm = std::move(pipeline.comm);
  return report;
}

}  // namespace rsr
