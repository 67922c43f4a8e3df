// The Gap Guarantee protocol (Section 4.1, Theorem 4.2).
//
// Four rounds. Each party builds, per point, a key: a vector of h =
// Theta(log n) entries, where entry j is a pairwise-independent hash of a
// batch of m = log_{p2}(1/2) LSH evaluations. Close points (distance <= r1)
// agree on almost all entries; far points (distance >= r2) agree on few.
// Alice recovers the multiset of Bob's keys via set-of-sets reconciliation
// (3 messages; setsets/reconciler.h), flags each of her keys whose best
// match against Bob's keys falls below the threshold tau, and transmits the
// elements carrying flagged keys (the 4th message). Bob concludes with
// S'_B = S_B ∪ T_A, and every point of S_A ∪ S_B is within r2 of S'_B whp.
#ifndef RSR_CORE_GAP_PROTOCOL_H_
#define RSR_CORE_GAP_PROTOCOL_H_

#include "core/params.h"
#include "core/transcript.h"
#include "geometry/point.h"
#include "geometry/point_store.h"
#include "setsets/reconciler.h"
#include "util/status.h"

namespace rsr {

struct GapProtocolParams {
  MetricKind metric = MetricKind::kHamming;
  size_t dim = 0;
  Coord delta = 1;
  /// Gap radii 0 < r1 < r2 of Definition 4.1.
  double r1 = 0;
  double r2 = 0;
  /// Far-point budget k (used only for sketch sizing; correctness never
  /// depends on it thanks to the reconciler's retries).
  size_t k = 1;
  /// h = ceil(h_multiplier * log2 n) key entries.
  double h_multiplier = 6.0;
  /// Reconciler configuration; sig/elem cell counts of 0 are auto-sized from
  /// the expected difference counts. Setting reconciler.adaptive.enabled
  /// turns on strata-driven sizing of the signature IBLT (the single-level
  /// variant of core/adaptive.h): the auto-sized sig_cells become the cap,
  /// and the actual starting size is negotiated from an estimator over the
  /// parties' key multisets (one extra message, counted in comm).
  SetsReconcilerParams reconciler;
  /// Worker threads for the batch LSH/key evaluation (<= 1 = inline).
  /// Transcripts are bit-identical for every value.
  size_t num_threads = 1;
  /// Shared seed (public coins).
  uint64_t seed = 0;
};

/// Parameters derived per Theorem 4.2.
struct GapDerived {
  size_t h = 0;    // key entries
  size_t m = 0;    // LSH evaluations per entry
  double p1 = 0;   // close-pair collision lower bound (single LSH)
  double p2 = 0;   // far-pair collision upper bound (single LSH)
  double rho = 0;  // log(1/p1)/log(1/p2)
  double q1 = 0;   // per-entry close match prob p1^m
  double q2 = 0;   // per-entry far match prob p2^m (<= 1/2)
  double tau = 0;  // far iff best match count < tau
};

struct GapProtocolReport {
  /// Bob's final set S_B ∪ T_A.
  PointSet s_b_prime;
  /// T_A: Alice's transmitted elements.
  PointSet transmitted;
  /// Number of Alice's distinct keys flagged far.
  size_t far_keys = 0;
  GapDerived derived;
  SetsReconcilerReport reconciliation;
  CommStats comm;
};

Result<GapProtocolReport> RunGapProtocol(const PointStore& alice,
                                         const PointStore& bob,
                                         const GapProtocolParams& params);

namespace internal {

/// Shared pipeline for the general and low-dimension variants: key
/// construction from `functions` (h batches of m), reconciliation, far
/// detection at threshold tau, final transmission.
struct GapPipelineConfig {
  size_t h = 0;
  size_t m = 0;
  double tau = 0;
  SetsReconcilerParams reconciler;
  size_t num_threads = 1;
  uint64_t seed = 0;
};

struct GapPipelineResult {
  PointSet s_b_prime;
  PointSet transmitted;
  size_t far_keys = 0;
  SetsReconcilerReport reconciliation;
  CommStats comm;
};

/// The key length h = max(min_h, ceil(h_real)). InvalidArgument when h_real
/// is NaN, negative or infinite, or h reaches kMaxSlots; the entry points
/// call it before drawing the h*m LSH functions.
Result<size_t> KeyLength(double h_real, size_t min_h);

/// Alice's far keys: each distinct key whose best entry-match count against
/// every Bob key is below tau.
struct FarKeys {
  /// Number of distinct far keys.
  size_t far_keys = 0;
  /// Alice's rows carrying a far key (T_A): far keys in lexicographic order,
  /// each key's rows in index order.
  std::vector<size_t> rows;
};

/// Far detection over keys of length h (src/core/README.md, "Gap far
/// detection"): exact, in near-linear time, by pigeonhole block lookup.
FarKeys FindFarKeys(const std::vector<SlottedSet>& alice_keys,
                    const std::vector<SlottedSet>& bob_keys, size_t h,
                    double tau);

Result<GapPipelineResult> RunGapPipeline(
    const PointStore& alice, const PointStore& bob,
    const std::vector<std::unique_ptr<LshFunction>>& functions,
    const GapPipelineConfig& config);

}  // namespace internal

}  // namespace rsr

#endif  // RSR_CORE_GAP_PROTOCOL_H_
