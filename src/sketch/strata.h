// Strata estimator for set-difference size (Eppstein et al. [10]).
//
// Keys are assigned to stratum i with probability 2^{-(i+1)} (by the number
// of trailing zeros of a shared hash); each stratum holds a small IBLT.
// To estimate |A xor B|, subtract the two estimators cell-wise and walk the
// strata from deepest to shallowest: as long as strata decode completely,
// accumulate their exact counts; at the first failing stratum i, extrapolate
// by 2^{i+1}. Protocol components use this for adaptive sketch sizing.
#ifndef RSR_SKETCH_STRATA_H_
#define RSR_SKETCH_STRATA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "sketch/iblt.h"

namespace rsr {

struct StrataParams {
  int num_strata = 20;
  size_t cells_per_stratum = 48;
  int num_hashes = 4;
  /// Wire width of per-cell checksums (see IbltParams::checksum_bytes).
  int checksum_bytes = 4;
  uint64_t seed = 0;
};

namespace strata_internal {

/// Extrapolates an estimate from the first undecodable stratum: the
/// `exact_from_deeper` entries recovered below stratum `stratum` sampled the
/// difference at cumulative rate 2^{-(stratum+1)}, so the estimate is
/// exact_from_deeper << (stratum+1), floored at one undecoded element's worth
/// (1 << (stratum+1)) and SATURATED at UINT64_MAX: with up to 63 strata the
/// raw shift reaches 63 bits and used to wrap to a tiny value, turning a
/// huge difference into a near-zero estimate.
uint64_t ExtrapolateEstimate(uint64_t exact_from_deeper, int stratum);

}  // namespace strata_internal

class StrataEstimator {
 public:
  explicit StrataEstimator(const StrataParams& params);

  void Insert(uint64_t key);
  /// Removes a previously inserted key (signed cell update on the key's
  /// stratum). XOR cells make insert-then-delete cancel exactly, so a
  /// maintained estimator equals a cold build over the surviving key set.
  void Delete(uint64_t key);

  /// Batched insertion for whole key sets (one stratum lookup per key; the
  /// underlying IBLT updates are allocation-free).
  void InsertMany(std::span<const uint64_t> keys);
  void DeleteMany(std::span<const uint64_t> keys);

  /// Estimated symmetric-difference size versus `other` (same parameters).
  /// Reentrant and thread-safe: the per-stratum peel runs on thread_local
  /// scratch (Iblt::DecodeDiff), so any number of threads may estimate
  /// against one shared estimator concurrently — the warm adaptive serving
  /// path negotiates every session against the snapshot's estimators this
  /// way.
  Result<uint64_t> EstimateDiff(const StrataEstimator& other) const;

  const StrataParams& params() const { return params_; }

  /// Serializes every stratum's IBLT under `codec`. With the adaptive
  /// defaults (2-byte checksums, small strata) the compact codec ships the
  /// full configured checksum width, so EstimateDiff over parsed estimators
  /// — and therefore adaptive size negotiation — is codec-invariant; wider
  /// configurations may truncate down to the 16 + log2(cells) per-peel
  /// budget (CompactChecksumBits in sketch/cell_codec.h).
  void WriteTo(ByteWriter* w, WireCodec codec = DefaultWireCodec()) const;
  static Result<StrataEstimator> ReadFrom(
      ByteReader* r, const StrataParams& params,
      WireCodec codec = DefaultWireCodec());

 private:
  int StratumOf(uint64_t key) const;

  StrataParams params_;
  std::vector<Iblt> strata_;
};

}  // namespace rsr

#endif  // RSR_SKETCH_STRATA_H_
