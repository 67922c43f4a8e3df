// Robust Invertible Bloom Lookup Table (Section 2.2, items 1-5).
//
// The RIBLT differs from the classic IBLT in exactly the ways the paper
// prescribes:
//   1. Peeling is breadth-first / first-come-first-served (FIFO), which the
//      branching-process analysis of Lemma 3.10 requires.
//   2. It is run sparse (the protocol uses m = 4 q^2 k cells for <= 4k keys,
//      i.e. load c < 1/(q(q-1))), so the peeling hypergraph is trees and
//      unicyclic components whp.
//   3./4. Cells maintain *sums* instead of XORs: a 128-bit key sum, a 128-bit
//      checksum sum, and a per-dimension int64 value sum holding a point of
//      {-n Delta, ..., n Delta}^d.
//   5. A cell whose contents are C copies of one key (detected by
//      divisibility of the sums by C plus checksum validation) is peeled by
//      extracting C pairs whose values are the average value, clamped into
//      [0, Delta] and randomized-rounded to integers.
//
// Error propagation (Figure 1) is intrinsic: deleting a pair whose key
// matches an inserted pair but whose value differs leaves the value
// difference in the cell sums; extraction then attributes accumulated error
// to the extracted values and the subtraction step forwards it to the key's
// other cells.
//
// Everything else (q-partitioned layout, index polynomials, sharded build,
// fold walk) is the cell-table engine shared with the IBLT
// (sketch/cell_table.h), and the compact codec's shared decisions are
// sketch/cell_codec.h. Update/UpdateMany never allocate, and DecodeInto
// peels on thread_local scratch, so it is const and reentrant: any number of
// threads may decode one table concurrently.
#ifndef RSR_SKETCH_RIBLT_H_
#define RSR_SKETCH_RIBLT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/point.h"
#include "geometry/point_store.h"
#include "sketch/cell_table.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/wire.h"

namespace rsr {

struct RibltParams {
  /// Total cells m (rounded up to a multiple of num_hashes).
  size_t num_cells = 0;
  /// q >= 3 per Algorithm 1 (and <= kMaxHashes).
  int num_hashes = 3;
  /// Dimensionality d of the stored values.
  size_t dim = 0;
  /// Coordinate domain [0, delta]; extracted values are clamped into it.
  Coord delta = 0;
  /// Shared seed (public coins).
  uint64_t seed = 0;
};

/// Store-native decode output. Extracted values land as rows in two columnar
/// arenas — `inserted` for the inserting party (side +1, Alice in
/// Algorithm 1), `deleted` for the deleting party (side -1, Bob) — with the
/// parallel key vectors pairing inserted_keys[i] with inserted[i] (and
/// likewise for deleted). Emission goes straight through PointStore::AppendRow,
/// so a reused result re-decodes without any per-pair heap allocation.
struct RibltDecodeResult {
  PointStore inserted;  // side +1 values; row i pairs with inserted_keys[i]
  PointStore deleted;   // side -1 values; row i pairs with deleted_keys[i]
  std::vector<uint64_t> inserted_keys;
  std::vector<uint64_t> deleted_keys;
  /// True iff peeling drained all counts/keys (value residue from canceled
  /// equal-key pairs is expected and allowed).
  bool complete = false;
  /// Number of peeling rounds (BFS depth proxy) for diagnostics.
  size_t peel_steps = 0;
};

class Riblt {
 public:
  static constexpr int kMaxHashes = sketch_internal::kMaxHashes;

  explicit Riblt(const RibltParams& params);

  /// Hot path: applies one copy of (key, value) in `direction`. `value` must
  /// point at params().dim coordinates. Never allocates.
  void Update(uint64_t key, const Coord* value, int direction);

  /// Batched hot path: one key per point, whole buckets at a time (the EMD
  /// protocol inserts every level's keyed point set in one call). Walks the
  /// contiguous coordinate arena — no per-point pointer chase, never
  /// allocates.
  void UpdateMany(std::span<const uint64_t> keys, const PointStore& values,
                  int direction);
  void InsertMany(std::span<const uint64_t> keys, const PointStore& values) {
    UpdateMany(keys, values, +1);
  }
  void DeleteMany(std::span<const uint64_t> keys, const PointStore& values) {
    UpdateMany(keys, values, -1);
  }

  /// Sharded intra-table batched update: the engine's 3-phase schedule
  /// (sketch_internal::ShardedUpdate: hash once, stable partition into
  /// L2-sized cell blocks, apply per block). The table, and its WriteTo
  /// bytes, are identical to sequential UpdateMany for every
  /// (num_shards, num_threads). Beyond parallelism, the blocking turns the
  /// sequential build's random scatter over the whole table into streaming
  /// bucket reads plus cache-resident cell writes, which speeds up large
  /// tables even single-threaded (BM_RibltBuildSharded). Scratch is pooled
  /// on the instance: repeat calls with the same batch shape allocate
  /// nothing.
  void UpdateManySharded(std::span<const uint64_t> keys,
                         const PointStore& values, int direction,
                         size_t num_shards, size_t num_threads);

  /// Cell-wise linear combination: this += factor * other. Factors may be
  /// negative. Requires identical parameters/seed. The multi-party
  /// reconciler ([23]) relies on this linearity: party i decodes
  /// sum_j T_j - s * T_i, where universal elements cancel exactly.
  Status AddScaled(const Riblt& other, int64_t factor);

  /// Fold-down projection: overwrites `dst` (same num_hashes/dim/delta/seed,
  /// smaller or equal table) with this table folded to dst's size — within
  /// each subtable, source cell i accumulates into dst cell i mod m', where
  /// m' is dst's cells-per-subtable and must DIVIDE ours. Because a key's
  /// cell index in subtable j is j*m + (h_j(key) mod m) with the polynomials
  /// h_j drawn from the seed alone (independent of num_cells), and
  /// (h mod m) mod m' == h mod m' whenever m' | m, the folded table is
  /// cell-for-cell — and therefore WriteTo byte-for-byte — identical to a
  /// cold build of every (key, value) update at dst's size. O(num_cells)
  /// cell adds, zero rehashing, zero allocation: the warm adaptive serving
  /// path projects a maintained cap-size table to the negotiated size per
  /// session this way. Folding into an equal-size dst is a plain copy of the
  /// cells.
  Status FoldInto(Riblt* dst) const;
  /// Convenience: folds into a fresh table of `num_cells` cells (rounded up
  /// to a multiple of num_hashes, like the constructor; the rounded
  /// per-subtable size must divide ours).
  Result<Riblt> FoldTo(size_t num_cells) const;

  /// FIFO peeling (on a thread_local scratch copy; the sketch stays intact,
  /// and concurrent calls on one table are safe). Caps:
  /// decode fails (returns DecodeFailure) if more than max_pairs total or
  /// max_per_side pairs for either side are extracted, or if the table does
  /// not drain. `rng` drives the randomized rounding of averaged values
  /// (decoder-local coins). *out is reset and refilled; extracted rows are
  /// appended directly to its arenas, so with a warm (previously decoded
  /// into) result the whole call performs zero heap allocations.
  Status DecodeInto(size_t max_pairs, size_t max_per_side, Rng* rng,
                    RibltDecodeResult* out) const;
  /// Convenience wrapper: DecodeInto a fresh result.
  Result<RibltDecodeResult> Decode(size_t max_pairs, size_t max_per_side,
                                   Rng* rng) const;

  const RibltParams& params() const { return params_; }
  size_t num_cells() const { return geometry_.num_cells(); }

  /// Effective checksum-sum modulus minus one: all purity/drain comparisons
  /// run mod (mask+1). Locally built tables use the full 128-bit sums; a
  /// table parsed from a compact stream carries the narrower wire width
  /// (truncation commutes with the wrapping sums, so masked comparisons stay
  /// sound). AddScaled intersects operand masks; FoldInto propagates.
  unsigned __int128 checksum_mask() const { return checksum_mask_; }

  /// Effective value-sum modulus minus one. A compact stream may ship value
  /// sums mod 2^Wv (Wv ~ bit_width(delta)+4): after the receiver subtracts
  /// its own table, a cell's true value sum is bounded by its tiny diff
  /// multiplicity times delta, so a centered lift at extraction recovers it
  /// exactly — the "code for the difference, not the sum" trick. All cell
  /// arithmetic is linear, so it commutes with the mask; only extraction
  /// lifts. AddScaled intersects, FoldInto propagates.
  uint64_t value_mask() const { return value_mask_; }

  /// Exact wire-size accounting; classic cell encoding is
  /// O(d log(n Delta)) bits, compact packs frame-of-reference deltas at
  /// data-derived widths (docs/WIRE.md).
  void WriteTo(ByteWriter* w, WireCodec codec = DefaultWireCodec()) const;
  static Result<Riblt> ReadFrom(ByteReader* r, const RibltParams& params,
                                WireCodec codec = DefaultWireCodec());

 private:
  using U128 = unsigned __int128;

  /// Raw views of the cell slabs, taken once per call so per-cell stores
  /// never force the table's members to reload. Apply is the sum update op
  /// on one cell (sums wrap mod 2^128 / 2^64); the update and sharded-build
  /// paths both run it.
  struct CellSlabs {
    int64_t* counts;
    U128* key_sums;
    U128* checksum_sums;
    int64_t* value_sums;
    size_t dim;

    void Apply(size_t cell, U128 key_term, U128 checksum_term,
               const Coord* value, int direction) const;
  };
  CellSlabs Slabs() {
    return {counts_.data(), key_sums_.data(), checksum_sums_.data(),
            value_sums_.data(), params_.dim};
  }

  RibltParams params_;
  sketch_internal::CellGeometry geometry_;
  uint64_t checksum_salt_ = 0;  // pre-mixed seed for cell checksums
  /// See checksum_mask(); narrowed only by compact-stream parses and by
  /// combining with a narrowed operand.
  unsigned __int128 checksum_mask_ = ~static_cast<unsigned __int128>(0);
  /// See value_mask(); same narrowing rules as checksum_mask_.
  uint64_t value_mask_ = ~static_cast<uint64_t>(0);
  std::vector<int64_t> counts_;
  std::vector<U128> key_sums_;
  std::vector<U128> checksum_sums_;
  std::vector<int64_t> value_sums_;  // flat: cell * dim + coordinate
  sketch_internal::ScratchPool<sketch_internal::ShardScratch> shard_scratch_;
};

}  // namespace rsr

#endif  // RSR_SKETCH_RIBLT_H_
