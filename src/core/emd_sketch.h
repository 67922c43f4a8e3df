// Shared EMD sketch-set machinery (Algorithm 1's Alice-side state).
//
// Historically the whole pipeline — draw the public-coin hash functions,
// evaluate the MLSH matrix, derive per-level keys, build the per-level
// RIBLTs — lived inline in RunEmdProtocol and ran from scratch on every
// sync. This module factors it into reusable pieces so the same sketch set
// can be (a) built once and served to many protocol runs
// (RunEmdProtocolPrebuilt), and (b) maintained incrementally under point
// churn (core/sync_dataset.h), while the one-shot protocol keeps calling the
// identical code and emitting byte-identical transcripts.
//
// Everything here is a pure function of (params, n, input rows): the RNG
// stream order inside MakeEmdHashes (family draws, then the level-key hash)
// matches the historical inline protocol exactly, which is what keeps
// prebuilt and rebuilt sketch sets interchangeable on the wire.
#ifndef RSR_CORE_EMD_SKETCH_H_
#define RSR_CORE_EMD_SKETCH_H_

#include <memory>
#include <span>
#include <vector>

#include "core/params.h"
#include "geometry/point_store.h"
#include "hashing/pairwise.h"
#include "lsh/eval_pipeline.h"
#include "lsh/mlsh.h"
#include "sketch/riblt.h"
#include "sketch/strata.h"
#include "util/serialize.h"
#include "util/status.h"

namespace rsr {

/// Level keys are Theta(log n) bits in the paper; 40 bits keeps the birthday
/// collision probability below n^2/2^40 (~1e-5 at n = 4096) while letting
/// RIBLT key sums serialize as short varints.
constexpr uint64_t kEmdLevelKeyMask = (uint64_t{1} << 40) - 1;

/// The shared (public-coin) hash state both parties derive from params.seed:
/// the MLSH family, its s drawn functions, and the pairwise level-key hash.
/// Draw order is part of the wire contract — see MakeEmdHashes.
struct EmdHashes {
  std::unique_ptr<MlshFamily> family;
  std::vector<std::unique_ptr<LshFunction>> draws;
  PairwiseVectorHash level_key_hash;
};

/// Derives the shared hash state. Consumes the seed's RNG stream in the
/// protocol's historical order (DrawMany, then PairwiseVectorHash::Draw), so
/// every consumer — one-shot protocol, prebuilt server, incremental dataset —
/// keys points identically.
EmdHashes MakeEmdHashes(const EmdProtocolParams& params,
                        const EmdDerived& derived);

/// Per-level MLSH prefix lengths (1-based levels flattened to index
/// level-1). Nondecreasing in the level index, which is what lets
/// EvalPrefixes emit every level key in one pass.
std::vector<size_t> EmdPrefixLens(const EmdDerived& derived);

/// RibltParams for 1-based `level` with `num_cells` cells (the per-level
/// seed salt is part of the wire format).
RibltParams EmdLevelRibltParams(const EmdProtocolParams& params,
                                size_t num_cells, size_t level);

/// All masked level keys of every evaluated row, level-major:
/// out[level * n + i] is row i's key at 1-based level `level + 1`. One
/// EvalPrefixes pass per row covers every level, sharded over rows. `out`
/// must hold prefix_lens.size() * evals.rows() entries; with t <= 64 levels
/// the call performs no heap allocation (per-row scratch lives on the
/// stack), which is what keeps SyncDataset's warm insert allocation-free.
void ComputeEmdLevelKeysInto(const EvalMatrix& evals,
                             const PairwiseVectorHash& level_key_hash,
                             const std::vector<size_t>& prefix_lens,
                             size_t num_threads, uint64_t* out);

/// Allocating convenience wrapper around ComputeEmdLevelKeysInto.
std::vector<uint64_t> ComputeEmdLevelKeys(
    const EvalMatrix& evals, const PairwiseVectorHash& level_key_hash,
    const std::vector<size_t>& prefix_lens, size_t num_threads);

/// A complete statically-sized Alice-side sketch set: one derived.cells-cell
/// RIBLT per level (and, optionally, one strata estimator per level over the
/// same level keys). Tables at level l+1 hold every input row keyed by its
/// masked level key. Cell linearity makes the set maintainable: applying
/// signed per-row updates (SyncDataset) yields tables byte-identical to a
/// cold BuildEmdSketches over the surviving rows.
struct EmdSketchSet {
  /// Rows the set was built over (the protocol requires |bob| == n).
  size_t n = 0;
  EmdDerived derived;
  std::vector<size_t> prefix_lens;
  std::vector<Riblt> tables;
  /// One estimator per level (MakeLevelStrataParams salt), present only when
  /// requested at build time; consumed by diff-size estimation, not by the
  /// static protocol message.
  std::vector<StrataEstimator> estimators;
};

/// Applies one signed batch to every level table: table l takes the n rows
/// of `rows` under keys[l*n, (l+1)*n) in `direction`. With
/// params.sketch_shards > 1 each table is built shard by shard (the
/// parallelism and cache blocking move inside the table); otherwise levels
/// run on parallel threads. Both give byte-identical tables
/// (riblt_sharded_test).
void UpdateLevelTables(std::vector<Riblt>* tables,
                       std::span<const uint64_t> keys, const PointStore& rows,
                       int direction, const EmdProtocolParams& params);

/// The cold build of a sketch set from the level-major `keys` of `rows`:
/// one set->derived.cells table per level holding every row, plus one
/// estimator per level when `build_estimators`. set->derived must be set.
/// BuildEmdSketches and SyncDataset::Create both build through here, which
/// keeps a maintained set byte-identical to a cold one.
void BuildEmdLevelTables(std::span<const uint64_t> keys,
                         const PointStore& rows,
                         const EmdProtocolParams& params,
                         bool build_estimators, EmdSketchSet* set);

/// Builds the full sketch set over `alice` — exactly the Alice half of the
/// static protocol (same hashes, same build order, same UpdateLevelTables).
/// Tables are always statically sized at derived.cells — adaptive
/// negotiation sizes tables per-exchange and cannot be precomputed.
Result<EmdSketchSet> BuildEmdSketches(const PointStore& alice,
                                      const EmdProtocolParams& params,
                                      bool build_estimators);

/// Reusable per-session scratch for adaptive warm serving: one folded table
/// per level, pooled across syncs so a session that keeps negotiating the
/// same ladder rungs performs zero allocation after its first exchange.
struct EmdServeScratch {
  std::vector<Riblt> folded;
  /// Pooled outgoing sketch-message buffer. ByteWriter::Clear keeps the
  /// backing capacity, so re-serving a stable session shape (same negotiated
  /// rungs, either codec) reuses the first exchange's allocation and the
  /// serialize pass itself is allocation-free.
  ByteWriter message;
};

/// Projects the maintained cap-size tables down to the negotiated
/// `level_cells` via Riblt::FoldInto — no point rehashing, O(levels * cap)
/// cell work regardless of how many points built the set. Requires every
/// level_cells[l] to be a divisor-ladder rung of derived.cells
/// (CellRounding::kDivisorLadder guarantees this); a non-divisor count is
/// InvalidArgument. On success scratch->folded[l] is byte-identical
/// (Riblt::WriteTo) to a cold table built at level_cells[l] over the same
/// rows. Pool entries whose shape already matches are folded into in place;
/// mismatched entries are reconstructed (the only allocation this performs).
Status FoldEmdSketches(const EmdSketchSet& set,
                       const std::vector<size_t>& level_cells,
                       const EmdProtocolParams& params,
                       EmdServeScratch* scratch);

}  // namespace rsr

#endif  // RSR_CORE_EMD_SKETCH_H_
