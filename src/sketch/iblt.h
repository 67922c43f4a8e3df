// Invertible Bloom Lookup Table (Goodrich & Mitzenmacher [13]; Section 2.2).
//
// A q-partitioned hash table whose cells hold (count, key XOR, checksum XOR,
// optional fixed-size value XOR). Supports insertion and deletion; after a
// mix of inserts (one party) and deletes (the other), the table holds the
// symmetric difference and can be decoded by peeling cells with count +-1
// whose checksum validates. Theorem 2.6: m cells decode cm keys whp.
//
// The q-partitioned layout, index polynomials, sharded build and fold walk
// are the shared cell-table engine (sketch/cell_table.h), and the compact
// codec's shared decisions are sketch/cell_codec.h. This file holds the XOR
// algebra: the cell fields, the update op, purity, the peel loop and the
// codec's key and value columns. Cell storage is one
// struct-of-arrays arena (counts | key XORs | checksum XORs | value XORs).
// Decode peels on thread_local scratch, so Decode/DecodeDiff are const and
// reentrant: concurrent sessions estimate against one shared snapshot's
// strata (StrataEstimator::EstimateDiff).
//
// NOTE (multiset semantics): two XOR-inserts of the same key self-cancel.
// Callers reconciling multisets must salt keys with a canonical occurrence
// index (see setsets/sethash.h). The RIBLT (riblt.h) removes this limitation
// with sum cells, as required by Algorithm 1.
#ifndef RSR_SKETCH_IBLT_H_
#define RSR_SKETCH_IBLT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "hashing/checksum.h"
#include "sketch/cell_table.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/wire.h"

namespace rsr {

struct IbltParams {
  /// Total number of cells m (rounded up to a multiple of num_hashes).
  size_t num_cells = 0;
  /// q: number of cell choices per key; the table is partitioned into q
  /// subtables so the choices are always distinct. 2 <= q <= kMaxHashes.
  int num_hashes = 4;
  /// Bytes of associated value XORed into each cell (0 = keys only).
  size_t value_size = 0;
  /// Wire width of the per-cell checksum in bytes (1..8). Narrower checksums
  /// shrink messages; the pure-cell false-positive rate is 2^-(8*bytes) per
  /// peel step, so 4 is plenty for difference sketches.
  int checksum_bytes = 8;
  /// Shared seed (public coins): both parties must use the same seed.
  uint64_t seed = 0;
};

/// One recovered entry: `count` is the net multiplicity (+1 = present only on
/// the inserting side, -1 = only on the deleting side).
struct IbltEntry {
  uint64_t key = 0;
  int64_t count = 0;
  std::vector<uint8_t> value;
};

struct IbltDecodeResult {
  std::vector<IbltEntry> entries;
  /// True iff the table fully drained (all cells, including value slabs,
  /// returned to zero).
  bool complete = false;
};

class Iblt {
 public:
  static constexpr int kMaxHashes = sketch_internal::kMaxHashes;

  explicit Iblt(const IbltParams& params);

  void Insert(uint64_t key) { Update(key, nullptr, +1); }
  void Delete(uint64_t key) { Update(key, nullptr, -1); }

  /// Hot path: applies `direction` copies of (key, value) to the key's q
  /// cells. `value` must point at params().value_size readable bytes and may
  /// be nullptr iff value_size == 0. Never allocates. Defined inline below.
  void Update(uint64_t key, const uint8_t* value, int direction);

  /// Batched hot path for whole buckets of value-less keys (protocol layers
  /// insert entire salted-key vectors at once). Never allocates.
  void UpdateMany(std::span<const uint64_t> keys, int direction) {
    UpdateManySharded(keys, direction, /*num_shards=*/1, /*num_threads=*/1);
  }
  void InsertMany(std::span<const uint64_t> keys) { UpdateMany(keys, +1); }
  void DeleteMany(std::span<const uint64_t> keys) { UpdateMany(keys, -1); }

  /// Sharded intra-table batched update (value-less keys, like UpdateMany):
  /// the engine's 3-phase schedule (sketch_internal::ShardedUpdate). The
  /// table is byte-identical to sequential UpdateMany for every
  /// (num_shards, num_threads); warm repeat calls allocate nothing.
  void UpdateManySharded(std::span<const uint64_t> keys, int direction,
                         size_t num_shards, size_t num_threads);

  /// Fold-down projection (XOR analogue of Riblt::FoldInto): overwrites
  /// `dst` (same num_hashes/value_size/checksum_bytes/seed) with this table
  /// folded to dst's size — within each subtable, source cell i adds its
  /// count into (and XORs its key/checksum/value words into) dst cell
  /// i mod m', where dst's cells-per-subtable m' must divide ours. The cell
  /// index polynomials depend on the seed only, so the folded table is
  /// byte-identical to a cold build at dst's size. O(num_cells), no
  /// rehashing, no allocation.
  Status FoldInto(Iblt* dst) const;
  /// Convenience: folds into a fresh table of `num_cells` cells (rounded up
  /// to a multiple of num_hashes, like the constructor).
  Result<Iblt> FoldTo(size_t num_cells) const;

  /// Peels the table (on a pooled scratch copy of the cell arena; the sketch
  /// itself stays intact). Returns entries with net counts +-1; the result is
  /// complete iff the residual table is empty. An incomplete decode still
  /// reports everything that peeled (useful for strata estimation).
  IbltDecodeResult Decode() const;

  /// Peels (this - other) without materializing the difference table.
  /// Requires identical parameters and seed.
  Result<IbltDecodeResult> DecodeDiff(const Iblt& other) const;

  const IbltParams& params() const { return params_; }
  size_t num_cells() const { return geometry_.num_cells(); }

  /// Effective checksum mask. Locally-built tables carry the full
  /// 8*checksum_bytes-bit mask; tables parsed from a compact stream carry
  /// the narrower truncated mask, and DecodeDiff works under the mask
  /// intersection: XOR commutes with masking, so a narrowed table is
  /// indistinguishable from one built narrow.
  uint64_t checksum_mask() const { return checksum_mask_; }

  /// Exact wire size accounting. kClassic is the historical byte layout;
  /// kCompact bit-packs cells (frame-of-reference counts, width-packed key
  /// XORs, checksums truncated to 16 + bit_width(cells), sparse bitmap
  /// mode). See docs/WIRE.md. The default codec
  /// follows RSR_WIRE_CODEC so test suites re-run under either codec.
  void WriteTo(ByteWriter* w, WireCodec codec = DefaultWireCodec()) const;
  static Result<Iblt> ReadFrom(ByteReader* r, const IbltParams& params,
                               WireCodec codec = DefaultWireCodec());

 private:
  /// Raw views of the cell slabs, taken once per call so per-cell stores
  /// never force the table's members to reload. Apply is the XOR update op
  /// on one cell: the update, sharded-build and peel paths all run it.
  struct CellSlabs {
    int64_t* counts;
    uint64_t* keys;
    uint64_t* checksums;
    uint8_t* values;
    size_t value_size;

    void Apply(size_t cell, uint64_t key, uint64_t checksum,
               const uint8_t* value, int64_t direction) const {
      counts[cell] = sketch_internal::WrapAdd(counts[cell], direction);
      keys[cell] ^= key;
      checksums[cell] ^= checksum;
      uint8_t* const dst = values + cell * value_size;
      for (size_t i = 0; i < value_size; ++i) dst[i] ^= value[i];
    }
  };
  CellSlabs Slabs() {
    return {Counts(), KeyXors(), ChecksumXors(), ValueXors(),
            params_.value_size};
  }

  Status CheckCompatible(const Iblt& other) const;

  // Struct-of-arrays views into the arena (offsets in 64-bit words). Accessor
  // methods recompute pointers from arena_.data(), so default copy/move stay
  // correct.
  int64_t* Counts() { return reinterpret_cast<int64_t*>(arena_.data()); }
  const int64_t* Counts() const {
    return reinterpret_cast<const int64_t*>(arena_.data());
  }
  uint64_t* KeyXors() { return arena_.data() + num_cells(); }
  const uint64_t* KeyXors() const { return arena_.data() + num_cells(); }
  uint64_t* ChecksumXors() { return arena_.data() + 2 * num_cells(); }
  const uint64_t* ChecksumXors() const {
    return arena_.data() + 2 * num_cells();
  }
  uint8_t* ValueXors() {
    return reinterpret_cast<uint8_t*>(arena_.data() + 3 * num_cells());
  }
  const uint8_t* ValueXors() const {
    return reinterpret_cast<const uint8_t*>(arena_.data() + 3 * num_cells());
  }

  void PeelInto(const Iblt* subtrahend, IbltDecodeResult* result) const;

  IbltParams params_;
  sketch_internal::CellGeometry geometry_;
  uint64_t checksum_mask_ = 0;  // hoisted from the per-update path
  uint64_t checksum_salt_ = 0;  // pre-mixed seed for key checksums
  /// Single allocation: 3*num_cells() words of counts/keys/checksums
  /// followed by ceil(num_cells()*value_size/8) words of value bytes.
  std::vector<uint64_t> arena_;
  sketch_internal::ScratchPool<sketch_internal::ShardScratch> shard_scratch_;
};

// ---- Hot path (inline) ------------------------------------------------------

// RSR_ZERO_ALLOC: the sketch hot path pinned by
// SketchHotPathTest.IbltUpdateDoesNotAllocate.
inline void Iblt::Update(uint64_t key, const uint8_t* value, int direction) {
  RSR_CHECK((value != nullptr) == (params_.value_size > 0));
  const uint64_t checksum =
      ChecksumWithSalt(key, checksum_salt_) & checksum_mask_;
  const CellSlabs slabs = Slabs();
  geometry_.ForEachCell(key, [&](size_t cell) {
    slabs.Apply(cell, key, checksum, value, direction);
  });
}

}  // namespace rsr

#endif  // RSR_SKETCH_IBLT_H_
