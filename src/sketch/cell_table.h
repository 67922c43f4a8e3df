// Cell-table engine shared by the XOR IBLT (iblt.h) and the sum-cell RIBLT
// (riblt.h).
//
// Section 2.2 defines the RIBLT as the IBLT with two changes: sum cells
// instead of XOR cells, and FIFO peeling with multi-copy extraction.
// Everything else is one structure, and it lives here:
//
//   - CellGeometry: q subtables of m cells each, the seeded degree-2 index
//     polynomials, and the key -> cell map (CellsOf / ForEachCell).
//   - ShardedUpdate: the 3-phase sharded batch build (hash once, stable block
//     partition, apply per block). The table supplies the per-entry apply.
//   - FoldBlocks / FoldTableTo: the fold-down projection walk. The table
//     supplies the per-block copy and accumulate.
//   - ScratchPool: instance-pooled scratch that copies do not carry, so the
//     tables keep defaulted copy operations. Peel scratch is thread_local
//     inside each table's decode: one policy, under which decode is const
//     and reentrant.
//   - Wrapping int64 slab arithmetic: counts and value sums are two's
//     complement, so counts read off the wire can never overflow.
//
// Cell layout is a pure function of (seed, salt, q, m): the polynomials are
// drawn from Rng(seed ^ salt) and never depend on m, which is what makes a
// fold byte-identical to a cold build at the smaller size. Each table passes
// its own salt, so the two tables' layouts stay as they always were.
//
// The compact wire codec the two tables share (FoR ranges, checksum budget,
// header prefix, layout choice, inclusion bitmap) is in cell_codec.h.
#ifndef RSR_SKETCH_CELL_TABLE_H_
#define RSR_SKETCH_CELL_TABLE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hashing/kindependent.h"
#include "hashing/pairwise.h"
#include "util/fastdiv.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/status.h"

namespace rsr {
namespace sketch_internal {

/// Upper bound on q. A key's cell indices fit in a fixed inline array, so
/// deriving them never allocates.
inline constexpr int kMaxHashes = 8;

// ---- Wrapping slab arithmetic -----------------------------------------------

/// a + b mod 2^64. Identical to `+` for every in-range result; defined (not
/// UB) when a hostile count or value sum read off the wire overflows.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
/// |c| as an unsigned value: well defined for INT64_MIN (2^63).
inline uint64_t Magnitude(int64_t c) {
  return c < 0 ? uint64_t{0} - static_cast<uint64_t>(c)
               : static_cast<uint64_t>(c);
}

// ---- Geometry ---------------------------------------------------------------

class CellGeometry {
 public:
  CellGeometry() = default;
  /// Rounds num_cells up to a multiple of num_hashes and draws the q index
  /// polynomials (3-independent: enough for peeling in practice, and shared
  /// by both parties through the seed) from Rng(seed ^ salt).
  CellGeometry(size_t num_cells, int num_hashes, uint64_t seed, uint64_t salt)
      : q_(static_cast<size_t>(num_hashes)) {
    RSR_CHECK(num_hashes >= 2);
    RSR_CHECK(num_hashes <= kMaxHashes);
    RSR_CHECK(num_cells > 0);
    sub_ = (num_cells + q_ - 1) / q_;
    mod_ = FastDiv61(sub_);
    Rng rng(seed ^ salt);
    for (size_t j = 0; j < q_; ++j) {
      KIndependentHash h =
          KIndependentHash::Draw(static_cast<int>(kIndependence), &rng);
      for (size_t i = 0; i < kIndependence; ++i) {
        coeffs_[j * kIndependence + i] = h.coeffs()[i];
      }
    }
  }

  size_t num_cells() const { return q_ * sub_; }
  size_t num_hashes() const { return q_; }
  size_t cells_per_subtable() const { return sub_; }

  /// Fills out[0..q) with the key's cells, one per subtable. x and x^2 mod
  /// p are computed once per key, so each polynomial costs two multiplies
  /// and one fold (c2*x^2 + c1*x + c0 < 2^123, within Mod61's input range;
  /// value-identical to Horner).
  // RSR_ZERO_ALLOC: the cell map under every update and peel step.
  void CellsOf(uint64_t key, size_t* out) const {
    const uint64_t x = Mod61(key);
    const uint64_t x2 = Mod61(static_cast<unsigned __int128>(x) * x);
    const uint64_t* c = coeffs_.data();
    for (size_t j = 0; j < q_; ++j, c += kIndependence) {
      const uint64_t h = Mod61(static_cast<unsigned __int128>(c[2]) * x2 +
                               static_cast<unsigned __int128>(c[1]) * x + c[0]);
      out[j] = j * sub_ + static_cast<size_t>(mod_.Mod(h));
    }
  }

  /// Calls f(cell) for each of the key's q cells in subtable order. All q
  /// indices are derived before f runs, so f's slab stores never force the
  /// polynomial evaluation to reload the geometry.
  // RSR_ZERO_ALLOC: same contract as CellsOf.
  template <typename F>
  void ForEachCell(uint64_t key, F&& f) const {
    size_t cells[kMaxHashes];
    CellsOf(key, cells);
    for (size_t j = 0; j < q_; ++j) f(cells[j]);
  }

 private:
  static constexpr size_t kIndependence = 3;

  size_t q_ = 0;
  size_t sub_ = 0;
  FastDiv61 mod_;  // division-free h % sub_
  /// coeffs_[j*kIndependence + i] multiplies x^i in subtable j's polynomial.
  std::array<uint64_t, kIndependence * kMaxHashes> coeffs_{};
};

// ---- Scratch ----------------------------------------------------------------

/// Instance-pooled scratch that a copy does not carry: copies start empty
/// (and a copy-assigned table keeps its own pool), moves transfer it. A
/// snapshot copy is made to be read, and its scratch regrows on first use.
template <typename T>
class ScratchPool {
 public:
  ScratchPool() = default;
  ScratchPool(const ScratchPool&) {}
  ScratchPool& operator=(const ScratchPool&) { return *this; }
  ScratchPool(ScratchPool&&) = default;
  ScratchPool& operator=(ScratchPool&&) = default;

  T* get() { return &value_; }

 private:
  T value_;
};

// ---- Sharded build ----------------------------------------------------------

/// Pooled buffers for ShardedUpdate (cell and key indices as uint32: protocol
/// tables and batches are far below 2^32).
struct ShardScratch {
  std::vector<uint32_t> cells;          // n * q, key-major
  std::vector<uint64_t> terms;          // n per-key terms (checksums)
  std::vector<uint32_t> bucket_counts;  // key_blocks x num_blocks
  std::vector<size_t> bucket_offsets;   // key_blocks x num_blocks cursors
  std::vector<size_t> block_starts;     // num_blocks + 1
  std::vector<uint64_t> entries;        // n * q, cell << 32 | key index
};

/// The sequential schedule: apply(cell, i, term(keys[i])) for each key i in
/// order and each of its cells. The callables arrive by value: the sharded
/// phases share them with worker threads by reference, and private copies
/// here let the compiler keep their captures in registers across the slab
/// stores.
// RSR_ZERO_ALLOC: the sequential build under UpdateMany.
template <typename TermFn, typename ApplyFn>
void ApplyInKeyOrder(const CellGeometry& geometry,
                     std::span<const uint64_t> keys, TermFn term,
                     ApplyFn apply) {
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t t = term(keys[i]);
    geometry.ForEachCell(keys[i], [&](size_t cell) { apply(cell, i, t); });
  }
}

/// Applies every key of a batch to its q cells: apply(cell, i, term(keys[i]))
/// for each key i and each of its cells. With num_shards <= 1 (after clamping
/// to the cell count) that is one sequential pass in key order. Otherwise the
/// batch runs in three deterministic phases:
///   1. hash every key once (cell indices plus term), sharded over keys;
///   2. stable counting sort of the n*q updates into per-cell-block buckets
///      as packed (cell << 32 | key index) words. Blocks are sized from
///      `cell_bytes` so one block's slab slice (~0.5 MiB) stays L2-resident,
///      a pure function of the table geometry;
///   3. each shard owns a contiguous range of blocks (ShardBoundary) and
///      replays its buckets in order.
/// Every cell is written by exactly one shard (no atomics) and sees its
/// updates in global key order, so the slabs, and their WriteTo bytes, are
/// identical to the sequential pass for every (num_shards, num_threads).
/// Scratch is pooled: warm single-threaded repeat calls allocate nothing.
// RSR_ZERO_ALLOC: pooled scratch only (worker threads for num_threads > 1
// are the one allocation, made inside ParallelShards).
template <typename TermFn, typename ApplyFn>
void ShardedUpdate(const CellGeometry& geometry, std::span<const uint64_t> keys,
                   size_t cell_bytes, size_t num_shards, size_t num_threads,
                   ShardScratch* scratch, TermFn&& term, ApplyFn&& apply) {
  const size_t n = keys.size();
  const size_t q = geometry.num_hashes();
  const size_t total = geometry.num_cells();
  const uint64_t* const key_data = keys.data();
  if (num_shards > total) num_shards = total;
  if (num_shards <= 1) {
    ApplyInKeyOrder(geometry, keys, term, apply);
    return;
  }

  // Phase 1: hash every key once.
  scratch->cells.resize(n * q);
  scratch->terms.resize(n);
  uint32_t* const cell_idx = scratch->cells.data();
  uint64_t* const terms = scratch->terms.data();
  ParallelShards(n, num_threads, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      uint32_t* out = cell_idx + i * q;
      geometry.ForEachCell(key_data[i], [&out](size_t cell) {
        *out++ = static_cast<uint32_t>(cell);
      });
      terms[i] = term(key_data[i]);
    }
  });

  size_t block_shift = 0;
  while ((size_t{1} << (block_shift + 1)) * cell_bytes <= (size_t{1} << 19)) {
    ++block_shift;
  }
  const size_t num_blocks = ((total - 1) >> block_shift) + 1;
  if (num_shards > num_blocks) num_shards = num_blocks;

  // Phase 2: per-(key block, cell block) counts become exact cursors, and
  // each worker scatters its own key block. Bucket order is (key block, key)
  // = global key order: the sort is stable.
  const size_t key_blocks = num_shards < n ? num_shards : n;
  scratch->bucket_counts.assign(key_blocks * num_blocks, 0);
  scratch->bucket_offsets.resize(key_blocks * num_blocks);
  scratch->block_starts.resize(num_blocks + 1);
  scratch->entries.resize(n * q);
  uint32_t* const bucket_counts = scratch->bucket_counts.data();
  size_t* const bucket_offsets = scratch->bucket_offsets.data();
  size_t* const block_starts = scratch->block_starts.data();
  uint64_t* const entries = scratch->entries.data();
  ParallelShards(key_blocks, num_threads, [&](size_t kb_begin, size_t kb_end) {
    for (size_t kb = kb_begin; kb < kb_end; ++kb) {
      uint32_t* const cnt = bucket_counts + kb * num_blocks;
      const size_t i_end = ShardBoundary(n, key_blocks, kb + 1);
      for (size_t i = ShardBoundary(n, key_blocks, kb); i < i_end; ++i) {
        for (size_t j = 0; j < q; ++j) {
          ++cnt[cell_idx[i * q + j] >> block_shift];
        }
      }
    }
  });
  size_t run = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    block_starts[b] = run;
    for (size_t kb = 0; kb < key_blocks; ++kb) {
      bucket_offsets[kb * num_blocks + b] = run;
      run += bucket_counts[kb * num_blocks + b];
    }
  }
  block_starts[num_blocks] = run;
  ParallelShards(key_blocks, num_threads, [&](size_t kb_begin, size_t kb_end) {
    for (size_t kb = kb_begin; kb < kb_end; ++kb) {
      size_t* const cursor = bucket_offsets + kb * num_blocks;
      const size_t i_end = ShardBoundary(n, key_blocks, kb + 1);
      for (size_t i = ShardBoundary(n, key_blocks, kb); i < i_end; ++i) {
        for (size_t j = 0; j < q; ++j) {
          const uint32_t cell = cell_idx[i * q + j];
          const size_t pos = cursor[cell >> block_shift]++;
          entries[pos] = (static_cast<uint64_t>(cell) << 32) | i;
        }
      }
    }
  });

  // Phase 3: disjoint block ranges per shard, buckets replayed in order.
  ParallelShards(num_shards, num_threads, [&](size_t s_begin, size_t s_end) {
    for (size_t shard = s_begin; shard < s_end; ++shard) {
      const size_t pos_begin =
          block_starts[ShardBoundary(num_blocks, num_shards, shard)];
      const size_t pos_end =
          block_starts[ShardBoundary(num_blocks, num_shards, shard + 1)];
      for (size_t pos = pos_begin; pos < pos_end; ++pos) {
        const uint64_t e = entries[pos];
        const size_t i = static_cast<uint32_t>(e);
        apply(static_cast<size_t>(e >> 32), i, terms[i]);
      }
    }
  });
}

// ---- Fold -------------------------------------------------------------------

/// Walks the fold-down projection of `src` onto `dst`: within each subtable,
/// source block r covers cells [r*m', (r+1)*m') and cell r*m' + i lands on
/// dst cell i, where m' (dst's cells per subtable) must divide src's. Calls
/// block(src_offset, dst_offset, m', first) per block, with first == true
/// for r == 0 (overwrite) and false after (accumulate). Cell updates are
/// commutative, so the result equals a cold build at dst's size.
// RSR_ZERO_ALLOC: the fold walk itself touches no heap.
template <typename BlockFn>
Status FoldBlocks(const CellGeometry& src, const CellGeometry& dst,
                  BlockFn&& block) {
  const size_t src_sub = src.cells_per_subtable();
  const size_t dst_sub = dst.cells_per_subtable();
  if (dst_sub == 0 || src_sub % dst_sub != 0) {
    return Status::InvalidArgument(
        "FoldInto target cells-per-subtable must divide the source's");
  }
  const size_t blocks = src_sub / dst_sub;
  for (size_t j = 0; j < src.num_hashes(); ++j) {
    for (size_t r = 0; r < blocks; ++r) {
      block(j * src_sub + r * dst_sub, j * dst_sub, dst_sub, r == 0);
    }
  }
  return Status::OK();
}

/// Folds `src` into a fresh table of `num_cells` cells (rounded up to a
/// multiple of num_hashes, like the constructor).
template <typename Table>
Result<Table> FoldTableTo(const Table& src, size_t num_cells) {
  if (num_cells == 0) {
    return Status::InvalidArgument("FoldTo requires num_cells > 0");
  }
  auto target = src.params();
  target.num_cells = num_cells;
  Table dst(target);
  RSR_RETURN_NOT_OK(src.FoldInto(&dst));
  return dst;
}

}  // namespace sketch_internal
}  // namespace rsr

#endif  // RSR_SKETCH_CELL_TABLE_H_
