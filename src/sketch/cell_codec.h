// Compact cell codec shared by the XOR IBLT (iblt.h) and the sum-cell RIBLT
// (riblt.h).
//
// Both tables ship the same cell columns (count, key, checksum, value), and
// the compact format (docs/WIRE.md, "Compact layouts") makes the same
// decisions for both. Those decisions live here:
//
//   - BitWidth / LowMask over 64 and 128 bits.
//   - ForRange / ColumnRange: a column's frame-of-reference range (it ships
//     as offsets from the minimum, at the width the range needs), tracked
//     for the dense candidate (all cells) and the sparse candidate (included
//     cells) in one pass.
//   - CompactChecksumBits: the truncated checksum width, from the table's
//     purity-trial count.
//   - CompactCellPass: the shared half of that pass (inclusion flags, count
//     column), the exact candidate sizes, the header prefix writer and the
//     sparse-mode bitmap; ReadCompactHeader and ReadInclusionBitmap are the
//     validating readers.
//   - PickCompactLayout: the smallest candidate, dense first on ties.
//
// Each table keeps its own key and value columns and its mode bits above
// kSparseMode. Everything is inline and templated, so the per-cell loops the
// tables write stay monomorphic.
#ifndef RSR_SKETCH_CELL_CODEC_H_
#define RSR_SKETCH_CELL_CODEC_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/serialize.h"
#include "util/status.h"

namespace rsr {
namespace sketch_internal {

using U128 = unsigned __int128;

// ---- Widths and masks -------------------------------------------------------

/// Bits needed to represent v (0 for 0).
inline int BitWidth(uint64_t v) { return static_cast<int>(std::bit_width(v)); }
inline int BitWidth(U128 v) {
  const uint64_t hi = static_cast<uint64_t>(v >> 64);
  return hi != 0 ? 64 + BitWidth(hi) : BitWidth(static_cast<uint64_t>(v));
}

/// The low `bits` bits set; every bit once `bits` reaches T's width.
template <typename T>
T LowMask(int bits) {
  return bits >= static_cast<int>(8 * sizeof(T)) ? ~T{0}
                                                 : (T{1} << bits) - 1;
}

/// Two's-complement view: a FoR offset is the wrapped difference.
inline uint64_t AsUnsigned(int64_t v) { return static_cast<uint64_t>(v); }
inline U128 AsUnsigned(U128 v) { return v; }

// ---- Frame-of-reference ranges ----------------------------------------------

/// The min..max range of one column over a set of cells. The column ships as
/// Offset(v) = v - base() in bits() bits. Offsets wrap, so int64 counts and
/// value sums and 128-bit key sums follow one rule. An empty range ships
/// base 0 at width 0.
template <typename T>
class ForRange {
 public:
  void Add(T v) {
    lo_ = std::min(lo_, v);
    hi_ = std::max(hi_, v);
  }
  bool empty() const { return hi_ < lo_; }
  T base() const { return empty() ? T{0} : lo_; }
  T max() const { return empty() ? T{0} : hi_; }
  int bits() const {
    return empty() ? 0 : BitWidth(AsUnsigned(hi_) - AsUnsigned(lo_));
  }
  auto Offset(T v) const { return AsUnsigned(v) - AsUnsigned(base()); }

 private:
  T lo_ = std::numeric_limits<T>::max();
  T hi_ = std::numeric_limits<T>::min();
};

/// One column's range for both layout candidates: every cell (dense) and the
/// cells the sparse layout ships.
template <typename T>
struct ColumnRange {
  ForRange<T> dense;
  ForRange<T> sparse;

  void Add(T v, bool included) {
    dense.Add(v);
    if (included) sparse.Add(v);
  }
  const ForRange<T>& of(bool sparse_layout) const {
    return sparse_layout ? sparse : dense;
  }
};

// ---- Checksum budget --------------------------------------------------------

/// Wire checksum width for a compact table: a 2^-16 false-positive budget
/// plus one bit per doubling of the purity trials a decode makes, capped at
/// `cap` bits and at `mask_bits`, the width the table currently carries (a
/// parsed table never ships more than it holds). The IBLT counts one trial
/// per cell; the RIBLT one per decodable entry, about a quarter of its cells
/// at the peeling threshold.
inline int CompactChecksumBits(size_t trials, int cap, int mask_bits) {
  return std::min({cap, 16 + BitWidth(uint64_t{trials}), mask_bits});
}

// ---- Layout choice ----------------------------------------------------------

/// Mode bit 0 of every compact table: the sparse layout (inclusion bitmap,
/// then the included cells only). Tables define their own bits above it.
inline constexpr uint8_t kSparseMode = 1;

struct CompactLayout {
  bool sparse = false;
  size_t variant = 0;  // index into the table's value encodings
  size_t bytes = 0;    // the chosen candidate's exact size
};

/// The smallest candidate. `dense[v]` and `sparse[v]` are the exact sizes of
/// value encoding v under each layout; ties go to dense, then to the lower v.
template <size_t N>
CompactLayout PickCompactLayout(const std::array<size_t, N>& dense,
                                const std::array<size_t, N>& sparse) {
  CompactLayout best{false, 0, dense[0]};
  for (size_t v = 1; v < N; ++v) {
    if (dense[v] < best.bytes) best = {false, v, dense[v]};
  }
  for (size_t v = 0; v < N; ++v) {
    if (sparse[v] < best.bytes) best = {true, v, sparse[v]};
  }
  return best;
}

// ---- Encode pass ------------------------------------------------------------

/// Per-thread inclusion flags for one compact encode or parse at a time:
/// encodes and parses run on concurrent serving threads, so the pool is per
/// thread, not per table.
inline std::vector<uint8_t>& InclusionFlagsPool() {
  static thread_local std::vector<uint8_t> flags;
  return flags;
}

/// The shared half of a compact encode's one pass over the cells: which
/// cells the sparse layout ships and the count column's range. The table
/// feeds every cell through Add and tracks its own columns in the same loop.
class CompactCellPass {
 public:
  // RSR_ZERO_ALLOC: sizes the thread's pooled flags.
  explicit CompactCellPass(size_t m) : m_(m) {
    std::vector<uint8_t>& pool = InclusionFlagsPool();
    pool.resize(m);
    flags_ = pool.data();
  }

  void Add(size_t cell, int64_t count, bool included) {
    flags_[cell] = static_cast<uint8_t>(included);
    n_included_ += static_cast<size_t>(included);
    counts_.Add(count, included);
  }

  bool included(size_t cell) const { return flags_[cell] != 0; }
  const ForRange<int64_t>& counts(bool sparse) const {
    return counts_.of(sparse);
  }

  /// Exact size of the header prefix WriteHeader emits.
  size_t HeaderBytes(bool sparse) const {
    return 3 + SignedVarint64Size(counts(sparse).base());
  }
  /// Exact size of a cell body: the bitmap (sparse), `cell_bits` packed bits
  /// per shipped cell zero-padded to a byte, then `cell_bytes` aligned bytes
  /// per shipped cell.
  size_t BodyBytes(bool sparse, size_t cell_bits, size_t cell_bytes = 0) const {
    const size_t cells = sparse ? n_included_ : m_;
    return (sparse ? (m_ + 7) / 8 : 0) + (cells * cell_bits + 7) / 8 +
           cells * cell_bytes;
  }

  /// The header prefix: mode u8, chk_bits u8, then the count column's base
  /// (signed varint) and width (u8) for the layout `mode` selects.
  // RSR_ZERO_ALLOC: byte writes into the caller's pooled writer.
  void WriteHeader(ByteWriter* w, uint8_t mode, int chk_bits) const {
    const ForRange<int64_t>& cnt = counts((mode & kSparseMode) != 0);
    w->PutU8(mode);
    w->PutU8(static_cast<uint8_t>(chk_bits));
    w->PutSignedVarint64(cnt.base());
    w->PutU8(static_cast<uint8_t>(cnt.bits()));
  }

  /// The sparse-mode bitmap: bit i of byte b flags cell 8b + i.
  // RSR_ZERO_ALLOC: byte writes into the caller's pooled writer.
  void WriteBitmap(ByteWriter* w) const {
    for (size_t base = 0; base < m_; base += 8) {
      uint8_t bits = 0;
      for (size_t i = 0; i < 8 && base + i < m_; ++i) {
        bits |= static_cast<uint8_t>(flags_[base + i] << i);
      }
      w->PutU8(bits);
    }
  }

 private:
  size_t m_;
  uint8_t* flags_;
  size_t n_included_ = 0;
  ColumnRange<int64_t> counts_;
};

// ---- Decode -----------------------------------------------------------------

/// The parsed header prefix.
struct CompactHeader {
  uint8_t mode = 0;
  int chk_bits = 0;
  int64_t cnt_base = 0;
  int cnt_bits = 0;

  bool sparse() const { return (mode & kSparseMode) != 0; }
};

/// Reads the header prefix. A mode above `max_mode`, a checksum width outside
/// [1, chk_bound] or a count width above 64 poisons the reader.
inline Status ReadCompactHeader(ByteReader* r, uint8_t max_mode, int chk_bound,
                                CompactHeader* h) {
  h->mode = r->GetU8();
  h->chk_bits = r->GetU8();
  h->cnt_base = r->GetSignedVarint64();
  h->cnt_bits = r->GetU8();
  RSR_RETURN_NOT_OK(r->status());
  if (h->mode > max_mode || h->chk_bits < 1 || h->chk_bits > chk_bound ||
      h->cnt_bits > 64) {
    r->Invalidate();
    return Status::Corruption("invalid compact cell header");
  }
  return Status::OK();
}

/// Sets the thread's pooled flags [0, m) to 1 (dense) or to the bitmap on the
/// wire (sparse) and points *flags at them. Nonzero padding past the last
/// cell would let two distinct streams decode identically, so it poisons the
/// reader for canonical round trips.
inline Status ReadInclusionBitmap(ByteReader* r, bool sparse, size_t m,
                                  const uint8_t** flags) {
  std::vector<uint8_t>& pool = InclusionFlagsPool();
  pool.assign(m, 1);
  for (size_t base = 0; sparse && base < m; base += 8) {
    const uint8_t bits = r->GetU8();
    for (size_t i = 0; i < 8; ++i) {
      if (base + i < m) {
        pool[base + i] = (bits >> i) & 1;
      } else if ((bits >> i) & 1) {
        r->Invalidate();
      }
    }
  }
  *flags = pool.data();
  return r->status();
}

}  // namespace sketch_internal
}  // namespace rsr

#endif  // RSR_SKETCH_CELL_CODEC_H_
