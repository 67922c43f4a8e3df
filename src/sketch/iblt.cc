#include "sketch/iblt.h"

#include <algorithm>
#include <bit>

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

inline size_t ValueWords(size_t num_cells, size_t value_size) {
  return (num_cells * value_size + 7) / 8;
}

}  // namespace

Iblt::Iblt(const IbltParams& params)
    : params_(params),
      geometry_(params.num_cells, params.num_hashes, params.seed,
                0x1b17a5e11b17ULL) {
  RSR_CHECK(params.checksum_bytes >= 1 && params.checksum_bytes <= 8);
  params_.num_cells = geometry_.num_cells();
  checksum_mask_ = LowMask<uint64_t>(8 * params_.checksum_bytes);
  checksum_salt_ = ChecksumSalt(params_.seed);
  arena_.assign(
      3 * num_cells() + ValueWords(num_cells(), params_.value_size), 0);
}

// RSR_ZERO_ALLOC: pinned by SketchHotPathTest.IbltUpdateManyDoesNotAllocate.
void Iblt::UpdateMany(std::span<const uint64_t> keys, int direction) {
  RSR_CHECK_EQ(params_.value_size, 0u);
  const uint64_t mask = checksum_mask_;
  const uint64_t salt = checksum_salt_;
  const CellSlabs slabs = Slabs();
  sketch_internal::ApplyInKeyOrder(
      geometry_, keys,
      [=](uint64_t key) { return ChecksumWithSalt(key, salt) & mask; },
      [=](size_t cell, size_t i, uint64_t checksum) {
        slabs.Apply(cell, keys[i], checksum, nullptr, direction);
      });
}

Status Iblt::CheckCompatible(const Iblt& other) const {
  if (other.params_.num_cells != params_.num_cells ||
      other.params_.num_hashes != params_.num_hashes ||
      other.params_.value_size != params_.value_size ||
      other.params_.checksum_bytes != params_.checksum_bytes ||
      other.params_.seed != params_.seed) {
    return Status::InvalidArgument("IBLT parameter mismatch");
  }
  return Status::OK();
}

IbltDecodeResult Iblt::Decode() const {
  IbltDecodeResult result;
  PeelInto(nullptr, &result);
  return result;
}

Result<IbltDecodeResult> Iblt::DecodeDiff(const Iblt& other) const {
  RSR_RETURN_NOT_OK(CheckCompatible(other));
  IbltDecodeResult result;
  PeelInto(&other, &result);
  return result;
}

void Iblt::PeelInto(const Iblt* subtrahend, IbltDecodeResult* result) const {
  const size_t total = num_cells();
  const size_t value_size = params_.value_size;
  const uint64_t salt = checksum_salt_;
  // Peel under the mask intersection: a parsed compact table carries a
  // truncated checksum domain, and comparisons against full-width local
  // checksums must happen in that domain.
  const uint64_t eff_mask =
      subtrahend == nullptr ? checksum_mask_
                            : (checksum_mask_ & subtrahend->checksum_mask_);

  // Peel scratch is per thread (the engine's one policy): decode stays const
  // and reentrant, and warm repeat decodes on a thread allocate nothing.
  struct DecodeScratch {
    std::vector<uint64_t> arena;
    std::vector<uint32_t> queue;  // FIFO via head index
    std::vector<uint8_t> queued;
    std::vector<uint8_t> pure;  // cached purity flags, updated incrementally
  };
  static thread_local DecodeScratch scratch_;

  // Work on a pooled copy of the cell arena; with warm (same or larger
  // capacity) scratch this is a memcpy into existing storage.
  scratch_.arena.assign(arena_.begin(), arena_.end());
  int64_t* counts = reinterpret_cast<int64_t*>(scratch_.arena.data());
  uint64_t* keys = scratch_.arena.data() + total;
  uint64_t* checksums = scratch_.arena.data() + 2 * total;
  uint8_t* values =
      reinterpret_cast<uint8_t*>(scratch_.arena.data() + 3 * total);
  const CellSlabs slabs{counts, keys, checksums, values, value_size};
  if (subtrahend != nullptr) {
    const int64_t* sub_counts = subtrahend->Counts();
    for (size_t i = 0; i < total; ++i) {
      counts[i] = sketch_internal::WrapSub(counts[i], sub_counts[i]);
    }
    for (size_t i = total; i < scratch_.arena.size(); ++i) {
      scratch_.arena[i] ^= subtrahend->arena_[i];
    }
    if (eff_mask != checksum_mask_ ||
        eff_mask != subtrahend->checksum_mask_) {
      for (size_t i = 0; i < total; ++i) checksums[i] &= eff_mask;
    }
  }

  // Cached per-cell purity flags, invalidated incrementally as cells mutate:
  // the checksum re-derivation happens once per cell state change instead of
  // once per queue visit.
  scratch_.pure.assign(total, 0);
  scratch_.queued.assign(total, 0);
  uint8_t* pure = scratch_.pure.data();
  uint8_t* queued = scratch_.queued.data();
  auto refresh_pure = [&](size_t cell) {
    pure[cell] =
        (counts[cell] == 1 || counts[cell] == -1) &&
        checksums[cell] == (ChecksumWithSalt(keys[cell], salt) & eff_mask);
  };
  std::vector<uint32_t>& queue = scratch_.queue;
  queue.clear();
  for (size_t c = 0; c < total; ++c) {
    refresh_pure(c);
    if (pure[c]) {
      queue.push_back(static_cast<uint32_t>(c));
      queued[c] = 1;
    }
  }

  // A complete peel can never extract more distinct entries than cells (a
  // q-uniform hypergraph with more edges than vertices has a nonempty
  // 2-core), so anything past this bound is a corrupted table oscillating
  // (truncated compact checksums admit spurious pure cells whose keys hash
  // elsewhere, re-purifying each other forever). Cut the loop and report
  // the decode incomplete instead of growing without bound.
  const size_t max_entries = 2 * total + 16;
  for (size_t head = 0; head < queue.size(); ++head) {
    const size_t cell = queue[head];
    queued[cell] = 0;
    if (!pure[cell]) continue;
    if (result->entries.size() >= max_entries) {
      result->complete = false;
      return;
    }

    IbltEntry entry;
    entry.key = keys[cell];
    entry.count = counts[cell];
    if (value_size > 0) {
      const uint8_t* src = values + cell * value_size;
      entry.value.assign(src, src + value_size);
    }

    // Remove the entry from all its cells (including this one), refreshing
    // purity only for the touched cells.
    const int64_t direction = entry.count > 0 ? -1 : +1;
    const uint64_t checksum = ChecksumWithSalt(entry.key, salt) & eff_mask;
    geometry_.ForEachCell(entry.key, [&](size_t touched) {
      slabs.Apply(touched, entry.key, checksum, entry.value.data(), direction);
      refresh_pure(touched);
      if (!queued[touched] && pure[touched]) {
        queue.push_back(static_cast<uint32_t>(touched));
        queued[touched] = 1;
      }
    });
    result->entries.push_back(std::move(entry));
  }

  // Complete iff every slab drained — counts, keys, checksums, AND value
  // bytes. A residual value XOR with zeroed counts/keys means two sides
  // disagreed on a key's payload; reporting that as complete would silently
  // drop the difference.
  result->complete = true;
  for (size_t i = 0; i < scratch_.arena.size(); ++i) {
    if (scratch_.arena[i] != 0) {
      result->complete = false;
      break;
    }
  }
}

// RSR_ZERO_ALLOC: warm serves encode into a pooled writer without heap
// traffic (SyncServerTest.WarmServeSerializeDoesNotAllocate); the codec's
// inclusion flags are per-thread pooled for the same reason.
void Iblt::WriteTo(ByteWriter* w, WireCodec codec) const {
  const int64_t* counts = Counts();
  const uint64_t* keys = KeyXors();
  const uint64_t* checksums = ChecksumXors();
  if (codec == WireCodec::kClassic) {
    for (size_t c = 0; c < num_cells(); ++c) {
      w->PutSignedVarint64(counts[c]);
      // Empty cells (the common case in a well-sized sketch) cost 3 bytes.
      w->PutVarint64(keys[c]);
      for (int b = 0; b < params_.checksum_bytes; ++b) {
        w->PutU8(static_cast<uint8_t>(checksums[c] >> (8 * b)));
      }
    }
    if (params_.value_size > 0) {
      w->PutBytes(ValueXors(), num_cells() * params_.value_size);
    }
    return;
  }

  // Compact: the shared cell codec (cell_codec.h: FoR counts, truncated
  // checksums, dense or sparse layout) around the IBLT's own columns:
  // width-packed keys minus their common trailing zeros, then the raw value
  // slab. Every included cell ships its (truncated) checksum — a leaner
  // "pure cell" elision that re-derived checksums from keys was rejected
  // because it hands corrupted streams guaranteed-valid pure cells,
  // defeating the probabilistic guard the peeler's termination rests on.
  const size_t m = num_cells();
  const size_t value_size = params_.value_size;
  const uint8_t* values = ValueXors();
  const int chk_bits = CompactChecksumBits(m, 8 * params_.checksum_bytes,
                                           BitWidth(checksum_mask_));
  const uint64_t wire_mask = LowMask<uint64_t>(chk_bits);

  CompactCellPass pass(m);
  ColumnRange<uint64_t> key_range;
  // Common trailing-zero count of every nonzero key XOR, shipped once and
  // stripped from each key field. Strata estimator tables are the target:
  // every key in stratum s ends in exactly s trailing zeros, so their XORs
  // share >= s, and the stratum's cells each save s bits.
  int key_shift = 64;
  for (size_t c = 0; c < m; ++c) {
    if (keys[c] != 0) {
      key_shift = std::min(key_shift, std::countr_zero(keys[c]));
    }
    const uint8_t* v = values + c * value_size;
    const bool included =
        counts[c] != 0 || keys[c] != 0 || (checksums[c] & wire_mask) != 0 ||
        std::any_of(v, v + value_size, [](uint8_t b) { return b != 0; });
    pass.Add(c, counts[c], included);
    key_range.Add(keys[c], included);
  }
  if (key_shift == 64) key_shift = 0;  // no nonzero keys: nothing to strip
  auto key_width = [&](bool sparse) {
    return BitWidth(key_range.of(sparse).max() >> key_shift);
  };
  // Candidates are compared on their bodies: the IBLT leaves the header out.
  auto body_bytes = [&](bool sparse) {
    return pass.BodyBytes(
        sparse,
        static_cast<size_t>(pass.counts(sparse).bits() + key_width(sparse) +
                            chk_bits),
        value_size);
  };
  const CompactLayout layout =
      PickCompactLayout<1>({body_bytes(false)}, {body_bytes(true)});
  const bool sparse = layout.sparse;
  const ForRange<int64_t>& cnt = pass.counts(sparse);
  const int cnt_bits = cnt.bits();
  const int key_bits = key_width(sparse);
  // Exact-size reserve: a cold pooled writer allocates at most once.
  w->Reserve(w->size_bytes() + pass.HeaderBytes(sparse) + 2 + layout.bytes);
  pass.WriteHeader(w, sparse ? kSparseMode : 0, chk_bits);
  w->PutU8(static_cast<uint8_t>(key_bits));
  w->PutU8(static_cast<uint8_t>(key_shift));
  if (sparse) pass.WriteBitmap(w);
  for (size_t c = 0; c < m; ++c) {
    if (sparse && !pass.included(c)) continue;
    w->PutBits(cnt.Offset(counts[c]), cnt_bits);
    w->PutBits(keys[c] >> key_shift, key_bits);
    w->PutBits(checksums[c] & wire_mask, chk_bits);
  }
  w->AlignToByte();
  for (size_t c = 0; value_size > 0 && c < m; ++c) {
    if (sparse && !pass.included(c)) continue;
    w->PutBytes(values + c * value_size, value_size);
  }
}

Result<Iblt> Iblt::ReadFrom(ByteReader* r, const IbltParams& params,
                            WireCodec codec) {
  Iblt table(params);
  int64_t* counts = table.Counts();
  uint64_t* keys = table.KeyXors();
  uint64_t* checksums = table.ChecksumXors();
  if (codec == WireCodec::kClassic) {
    for (size_t c = 0; c < table.num_cells(); ++c) {
      counts[c] = r->GetSignedVarint64();
      keys[c] = r->GetVarint64();
      uint64_t checksum = 0;
      for (int b = 0; b < table.params_.checksum_bytes; ++b) {
        checksum |= static_cast<uint64_t>(r->GetU8()) << (8 * b);
      }
      checksums[c] = checksum;
    }
    if (table.params_.value_size > 0) {
      r->GetBytes(table.ValueXors(),
                  table.num_cells() * table.params_.value_size);
    }
    RSR_RETURN_NOT_OK(r->status());
    return table;
  }

  const size_t m = table.num_cells();
  const size_t value_size = table.params_.value_size;
  CompactHeader hdr;
  RSR_RETURN_NOT_OK(ReadCompactHeader(
      r, /*max_mode=*/kSparseMode,
      CompactChecksumBits(m, 8 * table.params_.checksum_bytes,
                          BitWidth(table.checksum_mask_)),
      &hdr));
  const int key_bits = r->GetU8();
  const int key_shift = r->GetU8();
  RSR_RETURN_NOT_OK(r->status());
  if (key_bits > 64 || key_shift > 63 || key_bits + key_shift > 64) {
    r->Invalidate();
    return Status::Corruption("invalid compact IBLT key column");
  }
  const uint8_t* included = nullptr;
  RSR_RETURN_NOT_OK(ReadInclusionBitmap(r, hdr.sparse(), m, &included));
  for (size_t c = 0; c < m; ++c) {
    if (!included[c]) continue;
    counts[c] = static_cast<int64_t>(static_cast<uint64_t>(hdr.cnt_base) +
                                     r->GetBits(hdr.cnt_bits));
    keys[c] = r->GetBits(key_bits) << key_shift;
    checksums[c] = r->GetBits(hdr.chk_bits);
  }
  r->AlignToByte();
  uint8_t* values = table.ValueXors();
  for (size_t c = 0; value_size > 0 && c < m; ++c) {
    if (included[c]) r->GetBytes(values + c * value_size, value_size);
  }
  RSR_RETURN_NOT_OK(r->status());
  table.checksum_mask_ &= LowMask<uint64_t>(hdr.chk_bits);
  return table;
}

}  // namespace rsr
