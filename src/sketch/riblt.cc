#include "sketch/riblt.h"

#include <algorithm>
#include <cmath>

#include "hashing/checksum.h"
#include "sketch/cell_codec.h"

namespace rsr {

using sketch_internal::BitWidth;
using sketch_internal::ColumnRange;
using sketch_internal::CompactCellPass;
using sketch_internal::CompactChecksumBits;
using sketch_internal::CompactHeader;
using sketch_internal::CompactLayout;
using sketch_internal::ForRange;
using sketch_internal::kSparseMode;
using sketch_internal::LowMask;
using sketch_internal::PickCompactLayout;
using sketch_internal::ReadCompactHeader;
using sketch_internal::ReadInclusionBitmap;

namespace {

// RIBLT checksums are 32-bit: checksum *sums* of up to 2^31 items still fit
// a 64-bit word, which keeps the wire format small, and 2^-32 per-peel
// false-positive probability is far below the protocol's failure budget.
// Takes the pre-mixed ChecksumSalt so hot loops skip one Mix64 per key.
inline uint64_t CellChecksum(uint64_t key, uint64_t mixed_salt) {
  return ChecksumWithSalt(key, mixed_salt) & 0xffffffffULL;
}

using sketch_internal::U128;

/// Compact mode bit 1 (above the shared sparse bit): value sums ship as
/// mod-2^Wv residues instead of count-slope FoR residuals.
constexpr uint8_t kValuesModMode = 2;

/// If the cell's contents are C copies of a single key from a single side,
/// fills |C|, key, side and returns true. Operates on raw slabs so the
/// peeler can run on scratch buffers without copying the table. Checksum
/// comparisons run under `mask` — tables parsed from a compact stream only
/// know their checksum sums mod the wire width, and truncation commutes
/// with the wrapping sums, so comparing residues is exactly as sound as the
/// narrower width's false-positive rate. |C| is unsigned, so a hostile
/// count of INT64_MIN is just a large magnitude.
inline bool CellIsPure(const int64_t* counts, const U128* key_sums,
                       const U128* checksum_sums, uint64_t mixed_salt,
                       U128 mask, size_t cell, uint64_t* copies,
                       uint64_t* key, int* side) {
  const int64_t c = counts[cell];
  if (c == 0) return false;
  const int s = c > 0 ? +1 : -1;
  // Normalize the wrapped sums to the inserting direction.
  const U128 key_sum =
      s > 0 ? key_sums[cell] : static_cast<U128>(0) - key_sums[cell];
  const U128 checksum_sum =
      s > 0 ? checksum_sums[cell] : static_cast<U128>(0) - checksum_sums[cell];
  const uint64_t magnitude = sketch_internal::Magnitude(c);
  uint64_t k = 0;
  if (magnitude == 1) {
    // |count| == 1 dominates every peel (each decoded pair is visited q
    // times at magnitude 1): purity degenerates to exact-match checks, no
    // 128-bit division. Identical accept/reject to the general path.
    if (key_sum > static_cast<U128>(~uint64_t{0})) return false;
    k = static_cast<uint64_t>(key_sum);
  } else {
    if (key_sum % magnitude != 0) return false;
    const U128 candidate = key_sum / magnitude;
    if (candidate > ~uint64_t{0}) return false;
    k = static_cast<uint64_t>(candidate);
  }
  // checksum(K/C) == S/C, equivalently S == C * checksum(K/C) (mod mask+1).
  if (((checksum_sum - static_cast<U128>(magnitude) *
                           static_cast<U128>(CellChecksum(k, mixed_salt))) &
       mask) != 0) {
    return false;
  }
  *copies = magnitude;
  *key = k;
  *side = s;
  return true;
}
}  // namespace

Riblt::Riblt(const RibltParams& params)
    : params_(params),
      geometry_(params.num_cells, params.num_hashes, params.seed,
                0x1ab17c0ffeeULL) {
  RSR_CHECK(params.num_hashes >= 3);  // Algorithm 1 requires q >= 3.
  RSR_CHECK(params.dim > 0);
  RSR_CHECK(params.delta >= 1);
  const size_t total = geometry_.num_cells();
  params_.num_cells = total;
  checksum_salt_ = ChecksumSalt(params_.seed);
  counts_.assign(total, 0);
  key_sums_.assign(total, 0);
  checksum_sums_.assign(total, 0);
  value_sums_.assign(total * params_.dim, 0);
}

// RSR_ZERO_ALLOC: same contract as Update.
inline void Riblt::CellSlabs::Apply(size_t cell, U128 key_term,
                                    U128 checksum_term, const Coord* value,
                                    int direction) const {
  counts[cell] = sketch_internal::WrapAdd(counts[cell], direction);
  int64_t* const vs = value_sums + cell * dim;
  if (direction > 0) {
    key_sums[cell] += key_term;
    checksum_sums[cell] += checksum_term;
    for (size_t i = 0; i < dim; ++i) {
      vs[i] = sketch_internal::WrapAdd(vs[i], value[i]);
    }
  } else {
    key_sums[cell] -= key_term;
    checksum_sums[cell] -= checksum_term;
    for (size_t i = 0; i < dim; ++i) {
      vs[i] = sketch_internal::WrapSub(vs[i], value[i]);
    }
  }
}

// RSR_ZERO_ALLOC: pinned by SketchHotPathTest.RibltUpdateDoesNotAllocate.
void Riblt::Update(uint64_t key, const Coord* value, int direction) {
  const U128 checksum_term = CellChecksum(key, checksum_salt_);
  const CellSlabs slabs = Slabs();
  geometry_.ForEachCell(key, [&](size_t cell) {
    slabs.Apply(cell, key, checksum_term, value, direction);
  });
}

// RSR_ZERO_ALLOC: pinned by SketchHotPathTest.RibltUpdateManyDoesNotAllocate.
void Riblt::UpdateMany(std::span<const uint64_t> keys, const PointStore& values,
                       int direction) {
  UpdateManySharded(keys, values, direction, /*num_shards=*/1,
                    /*num_threads=*/1);
}

void Riblt::UpdateManySharded(std::span<const uint64_t> keys,
                              const PointStore& values, int direction,
                              size_t num_shards, size_t num_threads) {
  RSR_CHECK_EQ(keys.size(), values.size());
  if (keys.empty()) return;
  RSR_CHECK_EQ(values.dim(), params_.dim);
  const size_t dim = params_.dim;
  const Coord* const rows = values.coord_data();
  const uint64_t salt = checksum_salt_;
  const CellSlabs slabs = Slabs();
  sketch_internal::ShardedUpdate(
      geometry_, keys,
      /*cell_bytes=*/sizeof(int64_t) + 2 * sizeof(U128) + dim * sizeof(int64_t),
      num_shards, num_threads, shard_scratch_.get(),
      [=](uint64_t key) { return CellChecksum(key, salt); },
      [=](size_t cell, size_t i, uint64_t checksum) {
        slabs.Apply(cell, keys[i], checksum, rows + i * dim, direction);
      });
}

Status Riblt::AddScaled(const Riblt& other, int64_t factor) {
  if (other.params_.num_cells != params_.num_cells ||
      other.params_.num_hashes != params_.num_hashes ||
      other.params_.dim != params_.dim ||
      other.params_.delta != params_.delta ||
      other.params_.seed != params_.seed) {
    return Status::InvalidArgument("RIBLT parameter mismatch in AddScaled");
  }
  // All sums wrap consistently under negative factors. The combined
  // table's checksum comparisons are only sound at the narrower of the two
  // operands' widths, so the masks intersect.
  checksum_mask_ &= other.checksum_mask_;
  value_mask_ &= other.value_mask_;
  const U128 factor128 = static_cast<U128>(static_cast<__int128>(factor));
  for (size_t c = 0; c < counts_.size(); ++c) {
    counts_[c] = sketch_internal::WrapAdd(
        counts_[c], sketch_internal::WrapMul(factor, other.counts_[c]));
    key_sums_[c] += factor128 * other.key_sums_[c];
    checksum_sums_[c] += factor128 * other.checksum_sums_[c];
  }
  for (size_t i = 0; i < value_sums_.size(); ++i) {
    value_sums_[i] = sketch_internal::WrapAdd(
        value_sums_[i], sketch_internal::WrapMul(factor, other.value_sums_[i]));
  }
  return Status::OK();
}

// RSR_ZERO_ALLOC: warm folds reuse dst's slabs
// (CellTableFoldTest.WarmFoldIntoPerformsZeroAllocations).
Status Riblt::FoldInto(Riblt* dst) const {
  if (dst->params_.num_hashes != params_.num_hashes ||
      dst->params_.dim != params_.dim ||
      dst->params_.delta != params_.delta ||
      dst->params_.seed != params_.seed) {
    return Status::InvalidArgument("RIBLT parameter mismatch in FoldInto");
  }
  // Every field adds (int64 adds, wrapping 128-bit adds).
  const size_t dim = params_.dim;
  RSR_RETURN_NOT_OK(sketch_internal::FoldBlocks(
      geometry_, dst->geometry_,
      [&](size_t src_off, size_t dst_off, size_t len, bool first) {
        const int64_t* const sc = counts_.data() + src_off;
        const U128* const sk = key_sums_.data() + src_off;
        const U128* const ss = checksum_sums_.data() + src_off;
        const int64_t* const sv = value_sums_.data() + src_off * dim;
        int64_t* const dc = dst->counts_.data() + dst_off;
        U128* const dk = dst->key_sums_.data() + dst_off;
        U128* const dsum = dst->checksum_sums_.data() + dst_off;
        int64_t* const dv = dst->value_sums_.data() + dst_off * dim;
        if (first) {
          std::copy(sc, sc + len, dc);
          std::copy(sk, sk + len, dk);
          std::copy(ss, ss + len, dsum);
          std::copy(sv, sv + len * dim, dv);
          return;
        }
        for (size_t i = 0; i < len; ++i) {
          dc[i] = sketch_internal::WrapAdd(dc[i], sc[i]);
        }
        for (size_t i = 0; i < len; ++i) dk[i] += sk[i];
        for (size_t i = 0; i < len; ++i) dsum[i] += ss[i];
        for (size_t i = 0; i < len * dim; ++i) {
          dv[i] = sketch_internal::WrapAdd(dv[i], sv[i]);
        }
      }));
  dst->checksum_mask_ = checksum_mask_;
  dst->value_mask_ = value_mask_;
  return Status::OK();
}

Result<Riblt> Riblt::FoldTo(size_t num_cells) const {
  return sketch_internal::FoldTableTo(*this, num_cells);
}

Status Riblt::DecodeInto(size_t max_pairs, size_t max_per_side, Rng* rng,
                         RibltDecodeResult* out) const {
  const size_t total = num_cells();
  const size_t dim = params_.dim;

  // Reset the result in place. A reused result keeps its arena and key
  // capacity, so re-decoding appends into existing storage; only a dimension
  // change (or the very first use) rebuilds the stores.
  if (out->inserted.dim() != dim) out->inserted = PointStore(dim);
  if (out->deleted.dim() != dim) out->deleted = PointStore(dim);
  out->inserted.Clear();
  out->deleted.Clear();
  out->inserted_keys.clear();
  out->deleted_keys.clear();
  out->complete = false;
  out->peel_steps = 0;

  // Peel on per-thread scratch copies of the cell slabs (the engine's one
  // peel-scratch policy): concurrent decodes of one table never share
  // buffers, and after a thread's first call these are memcpys into
  // existing capacity, not allocations.
  struct DecodeScratch {
    std::vector<int64_t> counts;
    std::vector<U128> key_sums;
    std::vector<U128> checksum_sums;
    std::vector<int64_t> value_sums;
    std::vector<uint32_t> queue;  // FIFO via head index
    std::vector<uint8_t> queued;
    std::vector<double> average;       // dim-sized per-peel workspace
    std::vector<int64_t> cell_values;  // dim-sized per-peel workspace
  };
  static thread_local DecodeScratch scratch_;
  scratch_.counts.assign(counts_.begin(), counts_.end());
  scratch_.key_sums.assign(key_sums_.begin(), key_sums_.end());
  scratch_.checksum_sums.assign(checksum_sums_.begin(), checksum_sums_.end());
  scratch_.value_sums.assign(value_sums_.begin(), value_sums_.end());
  int64_t* counts = scratch_.counts.data();
  U128* key_sums = scratch_.key_sums.data();
  U128* checksum_sums = scratch_.checksum_sums.data();
  int64_t* value_sums = scratch_.value_sums.data();

  // FIFO breadth-first order (RIBLT requirement 1): cells become eligible in
  // the order they turn pure, and are processed first-come first-served.
  const U128 mask = checksum_mask_;
  auto is_pure = [&](size_t c, uint64_t* n, uint64_t* k, int* s) {
    return CellIsPure(counts, key_sums, checksum_sums, checksum_salt_, mask,
                      c, n, k, s);
  };
  uint64_t copies;
  uint64_t key;
  int side;
  std::vector<uint32_t>& queue = scratch_.queue;
  queue.clear();
  scratch_.queued.assign(total, 0);
  uint8_t* queued = scratch_.queued.data();
  for (size_t c = 0; c < total; ++c) {
    if (is_pure(c, &copies, &key, &side)) {
      queue.push_back(static_cast<uint32_t>(c));
      queued[c] = 1;
    }
  }

  scratch_.average.resize(dim);
  scratch_.cell_values.resize(dim);
  double* average = scratch_.average.data();
  int64_t* cell_values = scratch_.cell_values.data();

  size_t total_pairs = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const size_t cell = queue[head];
    queued[cell] = 0;
    if (!is_pure(cell, &copies, &key, &side)) continue;
    ++out->peel_steps;

    if (copies > max_pairs - total_pairs) {
      return Status::DecodeFailure("RIBLT decoded more than max_pairs pairs");
    }
    total_pairs += copies;

    // Extract |C| pairs. Average value = value_sum / count (signed), then
    // clamp into [0, Delta] and randomized-round each fractional coordinate
    // independently per copy (RIBLT requirement 5). Under a narrowed value
    // mask (compact mod-2^Wv streams) the slab holds residues; a centered
    // lift recovers the true small sum — exact whenever |sum| < 2^(Wv-1),
    // which the Wv = bit_width(delta)+4 wire width guarantees for any cell
    // whose diff multiplicity (plus propagated error) stays below ~8 —
    // and clamping bounds the damage exactly as for Figure 1 value error.
    const int64_t* vs = &value_sums[cell * dim];
    const double signed_count =
        side > 0 ? static_cast<double>(copies) : -static_cast<double>(copies);
    const uint64_t vmask = value_mask_;
    const uint64_t vhalf = (vmask >> 1) + 1;
    for (size_t j = 0; j < dim; ++j) {
      int64_t v = vs[j];
      if (vmask != ~static_cast<uint64_t>(0)) {
        const uint64_t res = static_cast<uint64_t>(v) & vmask;
        v = res >= vhalf ? static_cast<int64_t>(res - vmask - 1)
                         : static_cast<int64_t>(res);
      }
      average[j] = static_cast<double>(v) / signed_count;
      if (average[j] < 0.0) average[j] = 0.0;
      double delta = static_cast<double>(params_.delta);
      if (average[j] > delta) average[j] = delta;
    }
    PointStore& values_out = side > 0 ? out->inserted : out->deleted;
    std::vector<uint64_t>& keys_out =
        side > 0 ? out->inserted_keys : out->deleted_keys;
    for (uint64_t copy = 0; copy < copies; ++copy) {
      Coord* row = values_out.AppendRow();
      for (size_t j = 0; j < dim; ++j) {
        double floor_val = std::floor(average[j]);
        double frac = average[j] - floor_val;
        Coord v = static_cast<Coord>(floor_val);
        if (frac > 0.0 && rng->Bernoulli(frac)) v += 1;
        if (v > params_.delta) v = params_.delta;
        row[j] = v;
      }
      keys_out.push_back(key);
      if (values_out.size() > max_per_side) {
        return Status::DecodeFailure("RIBLT exceeded per-side pair cap");
      }
    }

    // Subtract the *exact cell contents* (including any accumulated value
    // error) from every cell of the key — this is the error-propagation
    // mechanism of Figure 1.
    const int64_t cell_count = counts[cell];
    const U128 cell_key_sum = key_sums[cell];
    const U128 cell_checksum_sum = checksum_sums[cell];
    for (size_t j = 0; j < dim; ++j) cell_values[j] = vs[j];
    geometry_.ForEachCell(key, [&](size_t touched) {
      counts[touched] = sketch_internal::WrapSub(counts[touched], cell_count);
      key_sums[touched] -= cell_key_sum;
      checksum_sums[touched] -= cell_checksum_sum;
      int64_t* tv = &value_sums[touched * dim];
      for (size_t i = 0; i < dim; ++i) {
        tv[i] = sketch_internal::WrapSub(tv[i], cell_values[i]);
      }
      uint64_t n2, k2;
      int s2;
      if (!queued[touched] && is_pure(touched, &n2, &k2, &s2)) {
        queue.push_back(static_cast<uint32_t>(touched));
        queued[touched] = 1;
      }
    });
  }

  // Success: all counts and key material drained. Value residue from
  // canceled equal-key pairs is expected (it is exactly the in-bucket error
  // the analysis charges to mu).
  out->complete = true;
  for (size_t c = 0; c < total; ++c) {
    if (counts[c] != 0 || key_sums[c] != 0 ||
        (checksum_sums[c] & mask) != 0) {
      out->complete = false;
      break;
    }
  }
  if (!out->complete) {
    return Status::DecodeFailure("RIBLT peeling stuck (nonempty 2-core)");
  }
  return Status::OK();
}

Result<RibltDecodeResult> Riblt::Decode(size_t max_pairs, size_t max_per_side,
                                        Rng* rng) const {
  RibltDecodeResult result;
  RSR_RETURN_NOT_OK(DecodeInto(max_pairs, max_per_side, rng, &result));
  return result;
}

// RSR_ZERO_ALLOC: warm serves encode into a pooled writer
// (SyncServerTest.WarmServeSerializeDoesNotAllocate).
void Riblt::WriteTo(ByteWriter* w, WireCodec codec) const {
  const size_t m = num_cells();
  const size_t dim = params_.dim;
  if (codec == WireCodec::kClassic) {
    // Varint-coded sums: an empty cell costs 3 bytes + d value bytes; tables
    // serialized before any deletion (Algorithm 1 ships Alice's inserts
    // only) have nonnegative sums, so the encoding stays compact. Wrapped
    // (negative) sums still round-trip correctly, just at the full 19-byte
    // width.
    for (size_t c = 0; c < m; ++c) {
      w->PutSignedVarint64(counts_[c]);
      w->PutVarint128(key_sums_[c]);
      w->PutVarint128(checksum_sums_[c]);
      const int64_t* vs = &value_sums_[c * dim];
      for (size_t j = 0; j < dim; ++j) w->PutSignedVarint64(vs[j]);
    }
    return;
  }

  // Compact: the shared cell codec (cell_codec.h: FoR counts, truncated
  // checksum sums, dense or sparse layout) around the RIBLT's own columns:
  // key sums as a 128-bit FoR column, and value sums in one of two forms,
  // whichever is smaller:
  //  - FoR residuals against a per-dim count-slope predictor
  //    (val ~ count * val_mu): subtracting the shipped slope removes the
  //    occupancy component of the spread, and the width tracks only the
  //    intrinsic coordinate variance. Exact full-width round trip.
  //  - mod-2^Wv residues (mode bit 1), Wv = bit_width(delta)+4: the decoder
  //    only ever needs value sums of the *difference* table after
  //    subtracting its own sketch, and those are bounded by per-cell diff
  //    multiplicity * delta — so shipping residues and centered-lifting at
  //    extraction is exact for any cell with <= 8 net diff copies (plus
  //    slack for propagated Figure 1 error). This is what keeps dense
  //    maintained tables from paying full sum width for every cell.
  // Layout per docs/WIRE.md: header prefix · key_base varint128 + key_bits
  // u8 · values-mod ? (wv u8) : per-dim (val_mu svarint + val_base svarint +
  // val_bits u8) · [bitmap] · bitstream (cnt Δ, key Δ, chk residue, val
  // residual Δs or mod residues per included cell) · zero-pad to byte.
  // Purity trials scale with the decodable load (~m/4 entries at the peeling
  // threshold), not with the cell count. Checksum terms are 32-bit, so
  // 64-bit residues are exact for any realistic batch.
  const int chk_bits =
      CompactChecksumBits((m + 3) / 4, 64, BitWidth(checksum_mask_));
  const U128 wire_mask = LowMask<U128>(chk_bits);

  // Count-slope predictor: val_mu[j] = (sum of value sums) / (sum of
  // counts), in wrapping arithmetic. Any slope round-trips exactly; a
  // wrapped or skewed one only widens the residual FoR.
  uint64_t total_cnt = 0;
  static thread_local std::vector<uint64_t> total_val;
  total_val.assign(dim, 0);
  for (size_t c = 0; c < m; ++c) {
    total_cnt += static_cast<uint64_t>(counts_[c]);
    const int64_t* vs = &value_sums_[c * dim];
    for (size_t j = 0; j < dim; ++j) {
      total_val[j] += static_cast<uint64_t>(vs[j]);
    }
  }
  static thread_local std::vector<int64_t> val_mu;
  val_mu.assign(dim, 0);
  const int64_t cnt_sum = static_cast<int64_t>(total_cnt);
  for (size_t j = 0; cnt_sum != 0 && j < dim; ++j) {
    // INT64_MIN / -1 overflows; the wrapped quotient is the same slope.
    const int64_t val_sum = static_cast<int64_t>(total_val[j]);
    val_mu[j] = cnt_sum == -1 ? sketch_internal::WrapSub(0, val_sum)
                              : val_sum / cnt_sum;
  }
  auto val_resid = [&](size_t c, size_t j) {
    return static_cast<int64_t>(
        static_cast<uint64_t>(value_sums_[c * dim + j]) -
        static_cast<uint64_t>(counts_[c]) *
            static_cast<uint64_t>(val_mu[j]));
  };

  CompactCellPass pass(m);
  ColumnRange<U128> key_range;
  static thread_local std::vector<ColumnRange<int64_t>> val_ranges;
  val_ranges.assign(dim, {});
  for (size_t c = 0; c < m; ++c) {
    const int64_t* vs = &value_sums_[c * dim];
    const bool included =
        counts_[c] != 0 || key_sums_[c] != 0 ||
        (checksum_sums_[c] & wire_mask) != 0 ||
        std::any_of(vs, vs + dim, [&](int64_t v) {
          return (static_cast<uint64_t>(v) & value_mask_) != 0;
        });
    pass.Add(c, counts_[c], included);
    key_range.Add(key_sums_[c], included);
    for (size_t j = 0; j < dim; ++j) {
      val_ranges[j].Add(val_resid(c, j), included);
    }
  }

  // Mod-value wire width: enough for +-8 copies of a delta-bounded
  // coordinate after the receiver's subtraction, clamped by an already
  // narrowed value mask (re-serialized parses) and the 64-bit slab.
  const int wv_mod =
      std::min({64,
                BitWidth(static_cast<uint64_t>(params_.delta)) + 4,
                BitWidth(value_mask_)});
  // Four candidates, {dense, sparse} x {FoR values, mod values}, each at its
  // exact byte size.
  auto candidate_bytes = [&](bool sparse, bool vmod) {
    const ForRange<U128>& key = key_range.of(sparse);
    size_t header = pass.HeaderBytes(sparse) + Varint128Size(key.base()) + 1;
    size_t bits = static_cast<size_t>(pass.counts(sparse).bits() +
                                      key.bits() + chk_bits);
    if (vmod) {
      header += 1;
      bits += dim * static_cast<size_t>(wv_mod);
    } else {
      for (size_t j = 0; j < dim; ++j) {
        const ForRange<int64_t>& val = val_ranges[j].of(sparse);
        header += SignedVarint64Size(val_mu[j]) +
                  SignedVarint64Size(val.base()) + 1;
        bits += static_cast<size_t>(val.bits());
      }
    }
    return header + pass.BodyBytes(sparse, bits);
  };
  const CompactLayout layout = PickCompactLayout<2>(
      {candidate_bytes(false, false), candidate_bytes(false, true)},
      {candidate_bytes(true, false), candidate_bytes(true, true)});
  const bool sparse = layout.sparse;
  const bool vmod = layout.variant == 1;
  const ForRange<int64_t>& cnt = pass.counts(sparse);
  const int cnt_bits = cnt.bits();
  const ForRange<U128>& key = key_range.of(sparse);
  const int key_bits = key.bits();
  const uint64_t wv_mask = LowMask<uint64_t>(wv_mod);

  // The candidate sizes are exact, so one reserve covers the whole encode: a
  // cold pooled writer allocates at most once per table and a warm one
  // (EmdServeScratch::message) not at all.
  w->Reserve(w->size_bytes() + layout.bytes);
  const int mode = (sparse ? kSparseMode : 0) | (vmod ? kValuesModMode : 0);
  pass.WriteHeader(w, static_cast<uint8_t>(mode), chk_bits);
  w->PutVarint128(key.base());
  w->PutU8(static_cast<uint8_t>(key_bits));
  if (vmod) {
    w->PutU8(static_cast<uint8_t>(wv_mod));
  } else {
    for (size_t j = 0; j < dim; ++j) {
      const ForRange<int64_t>& val = val_ranges[j].of(sparse);
      w->PutSignedVarint64(val_mu[j]);
      w->PutSignedVarint64(val.base());
      w->PutU8(static_cast<uint8_t>(val.bits()));
    }
  }
  if (sparse) pass.WriteBitmap(w);
  for (size_t c = 0; c < m; ++c) {
    if (sparse && !pass.included(c)) continue;
    w->PutBits(cnt.Offset(counts_[c]), cnt_bits);
    w->PutBits128(key.Offset(key_sums_[c]), key_bits);
    w->PutBits(static_cast<uint64_t>(checksum_sums_[c] & wire_mask),
               chk_bits);
    const int64_t* vs = &value_sums_[c * dim];
    for (size_t j = 0; j < dim; ++j) {
      if (vmod) {
        w->PutBits(static_cast<uint64_t>(vs[j]) & wv_mask, wv_mod);
      } else {
        const ForRange<int64_t>& val = val_ranges[j].of(sparse);
        w->PutBits(val.Offset(val_resid(c, j)), val.bits());
      }
    }
  }
  w->AlignToByte();
}

Result<Riblt> Riblt::ReadFrom(ByteReader* r, const RibltParams& params,
                              WireCodec codec) {
  Riblt table(params);
  const size_t m = table.num_cells();
  const size_t dim = table.params_.dim;
  if (codec == WireCodec::kClassic) {
    for (size_t c = 0; c < m; ++c) {
      table.counts_[c] = r->GetSignedVarint64();
      table.key_sums_[c] = r->GetVarint128();
      table.checksum_sums_[c] = r->GetVarint128();
      int64_t* vs = &table.value_sums_[c * dim];
      for (size_t j = 0; j < dim; ++j) {
        vs[j] = r->GetSignedVarint64();
      }
    }
    RSR_RETURN_NOT_OK(r->status());
    return table;
  }

  CompactHeader hdr;
  RSR_RETURN_NOT_OK(ReadCompactHeader(
      r, /*max_mode=*/kSparseMode | kValuesModMode,
      CompactChecksumBits((m + 3) / 4, 64, BitWidth(table.checksum_mask_)),
      &hdr));
  const U128 key_base = r->GetVarint128();
  const int key_bits = r->GetU8();
  RSR_RETURN_NOT_OK(r->status());
  if (key_bits > 128) {
    r->Invalidate();
    return Status::Corruption("invalid compact RIBLT key column");
  }
  const bool vmod = (hdr.mode & kValuesModMode) != 0;
  int wv_mod = 0;
  static thread_local std::vector<int64_t> val_mu;
  static thread_local std::vector<int64_t> val_base;
  static thread_local std::vector<uint8_t> val_bits;
  val_mu.resize(dim);
  val_base.resize(dim);
  val_bits.resize(dim);
  if (vmod) {
    wv_mod = r->GetU8();
    if (wv_mod < 1 || wv_mod > 64) {
      r->Invalidate();
      return Status::Corruption("invalid compact RIBLT value width");
    }
  } else {
    for (size_t j = 0; j < dim; ++j) {
      val_mu[j] = r->GetSignedVarint64();
      val_base[j] = r->GetSignedVarint64();
      val_bits[j] = r->GetU8();
      if (val_bits[j] > 64) {
        r->Invalidate();
        return Status::Corruption("invalid compact RIBLT value width");
      }
    }
  }
  const uint8_t* included = nullptr;
  RSR_RETURN_NOT_OK(ReadInclusionBitmap(r, hdr.sparse(), m, &included));
  for (size_t c = 0; c < m; ++c) {
    if (!included[c]) continue;
    table.counts_[c] = static_cast<int64_t>(
        static_cast<uint64_t>(hdr.cnt_base) + r->GetBits(hdr.cnt_bits));
    table.key_sums_[c] = key_base + r->GetBits128(key_bits);
    table.checksum_sums_[c] = static_cast<U128>(r->GetBits(hdr.chk_bits));
    int64_t* vs = &table.value_sums_[c * dim];
    if (vmod) {
      // Raw residues mod 2^wv; stored zero-extended. The narrowed value
      // mask (set below) makes every downstream comparison/extraction run
      // in the wire's residue ring.
      for (size_t j = 0; j < dim; ++j) {
        vs[j] = static_cast<int64_t>(r->GetBits(wv_mod));
      }
    } else {
      for (size_t j = 0; j < dim; ++j) {
        // Residual + count * slope: exact inverse of the writer's predictor.
        vs[j] = static_cast<int64_t>(
            static_cast<uint64_t>(val_base[j]) + r->GetBits(val_bits[j]) +
            static_cast<uint64_t>(table.counts_[c]) *
                static_cast<uint64_t>(val_mu[j]));
      }
    }
  }
  r->AlignToByte();
  RSR_RETURN_NOT_OK(r->status());
  table.checksum_mask_ &= LowMask<U128>(hdr.chk_bits);
  if (vmod) table.value_mask_ &= LowMask<uint64_t>(wv_mod);
  return table;
}

}  // namespace rsr
