#include "core/emd_protocol.h"

#include <algorithm>
#include <cmath>

#include "core/adaptive.h"
#include "core/emd_sketch.h"
#include "emd/assignment.h"
#include "emd/emd.h"
#include "hashing/hash64.h"
#include "hashing/pairwise.h"
#include "lsh/eval_pipeline.h"
#include "lsh/mlsh.h"
#include "sketch/riblt.h"

namespace rsr {

namespace {

/// The protocol tail shared by the one-shot and prebuilt entry points:
/// Alice serializes her (already built) level tables into one message, Bob
/// parses, deletes his pairs, decodes the finest feasible level, and repairs
/// S_B. `report` arrives pre-filled with .derived; `transcript` may already
/// carry an adaptive negotiation round. The emitted bytes depend only on the
/// table cells and level_cells — not on how the tables were produced — which
/// is what makes maintained sketch sets wire-compatible with cold rebuilds.
Result<EmdProtocolReport> FinishEmdProtocol(
    const std::vector<Riblt>& tables, const std::vector<size_t>& level_cells,
    const std::vector<size_t>& prefix_lens, const PointStore& bob,
    const std::vector<uint64_t>& bob_keys, const EmdProtocolParams& params,
    Transcript* transcript, EmdProtocolReport report,
    ByteWriter* pooled_message = nullptr) {
  const EmdDerived& derived = report.derived;
  const size_t n = bob.size();
  const WireCodec codec = params.codec;

  // ---- Alice: "send" the t RIBLTs (single message). ----
  report.level_cells = level_cells;
  report.levels.resize(derived.levels);
  for (size_t level = 1; level <= derived.levels; ++level) {
    report.levels[level - 1].prefix_len = prefix_lens[level - 1];
  }
  // The warm serving path pools the outgoing buffer in EmdServeScratch:
  // Clear keeps the capacity, so a stable session shape re-serializes with
  // zero allocation after its first exchange.
  ByteWriter local_message;
  ByteWriter& message =
      pooled_message != nullptr ? *pooled_message : local_message;
  message.Clear();
  // A compact exchange's first message carries the versioned wire header; on
  // the adaptive path that was the estimator round, so only the static
  // single-message exchange writes it here.
  if (codec != WireCodec::kClassic && !params.adaptive.enabled) {
    WriteWireHeader(codec, &message);
  }
  if (params.adaptive.enabled) WriteNegotiatedCells(level_cells, &message);
  for (const Riblt& table : tables) table.WriteTo(&message, codec);
  transcript->Send("A->B level RIBLTs", message, codec);

  // ---- Bob: parse, delete his pairs, decode finest feasible level. ----
  ByteReader reader(message.buffer());
  if (codec != WireCodec::kClassic && !params.adaptive.enabled) {
    RSR_RETURN_NOT_OK(ExpectWireHeader(codec, &reader));
  }
  std::vector<size_t> parsed_cells(derived.levels, derived.cells);
  if (params.adaptive.enabled) {
    RSR_ASSIGN_OR_RETURN(
        parsed_cells, ReadNegotiatedCells(&reader, derived.levels,
                                          derived.cells));
  }
  Rng bob_coins(Mix64(params.seed) ^ 0xb0b);  // decoder-local rounding coins

  const size_t max_pairs = 4 * params.k;
  const size_t max_per_side = 2 * params.k;
  size_t decoded_level = 0;
  RibltDecodeResult best;
  RibltDecodeResult decoded;  // reused across levels: one warm arena pair
  std::vector<Riblt> received;
  received.reserve(derived.levels);
  for (size_t level = 1; level <= derived.levels; ++level) {
    RSR_ASSIGN_OR_RETURN(
        Riblt table,
        Riblt::ReadFrom(&reader,
                        EmdLevelRibltParams(params, parsed_cells[level - 1],
                                            level),
                        codec));
    received.push_back(std::move(table));
  }
  RSR_RETURN_NOT_OK(reader.FinishAndCheckConsumed());

  // Deletions are independent per level (threadable); decoding stays
  // sequential finest-to-coarsest because bob_coins is a single stream.
  UpdateLevelTables(&received, bob_keys, bob, -1, params);

  for (size_t level = derived.levels; level >= 1; --level) {
    Riblt& table = received[level - 1];
    Status decode_status =
        table.DecodeInto(max_pairs, max_per_side, &bob_coins, &decoded);
    EmdLevelOutcome& outcome = report.levels[level - 1];
    if (decode_status.ok()) {
      outcome.decoded = true;
      outcome.pairs_alice = decoded.inserted.size();
      outcome.pairs_bob = decoded.deleted.size();
      if (decoded_level == 0) {
        decoded_level = level;
        best = std::move(decoded);
        // The repair uses this finest decoded level only. Coarser levels
        // still decode: report.levels records every level's outcome for
        // benches and traces, and a coarse level holds few cells, so that
        // costs little. (DecodeInto resets the moved-from result before
        // reusing it.)
      }
    }
    if (level == 1) break;  // size_t guard
  }

  report.comm = transcript->stats();
  if (decoded_level == 0) {
    report.failure = true;
    return report;
  }
  report.decoded_level = decoded_level;
  report.x_a = std::move(best.inserted);
  report.x_b = std::move(best.deleted);

  // ---- Repair: S'_B = (S_B \ Y_B) ∪ X_A, with |S'_B| = n. ----
  Metric metric(params.metric);
  const PointStore& x_b = report.x_b;

  // Keep |X_A| <= |X_B| by trimming X_A (drop lexicographically largest, so
  // the repair is deterministic). The report's arena is copied only when a
  // trim actually mutates it.
  const PointStore* x_a = &report.x_a;
  PointStore trimmed;
  if (report.x_a.size() > x_b.size()) {
    trimmed = report.x_a;
    trimmed.SortLex();
    report.trimmed_from_x_a = trimmed.size() - x_b.size();
    trimmed.Truncate(x_b.size());
    x_a = &trimmed;
  }

  std::vector<char> removed(n, 0);
  if (!x_b.empty()) {
    // Min-cost matching of X_B (rows) into S_B (columns).
    CostMatrix cost = DistanceMatrix(x_b, bob, metric);
    AssignmentResult assignment = MinCostAssignment(cost);
    if (x_a->size() < x_b.size()) {
      // Remove only |X_A| of the matched points so |S'_B| stays n. Keep the
      // pairs with the largest matching cost unmatched (least confident).
      std::vector<size_t> order(x_b.size());
      for (size_t r = 0; r < x_b.size(); ++r) order[r] = r;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return cost[a][static_cast<size_t>(assignment.row_to_col[a])] <
               cost[b][static_cast<size_t>(assignment.row_to_col[b])];
      });
      report.kept_in_y_b = x_b.size() - x_a->size();
      for (size_t r = 0; r < x_a->size(); ++r) {
        removed[static_cast<size_t>(assignment.row_to_col[order[r]])] = 1;
      }
    } else {
      for (size_t r = 0; r < x_b.size(); ++r) {
        removed[static_cast<size_t>(assignment.row_to_col[r])] = 1;
      }
    }
  }

  report.s_b_prime.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!removed[i]) report.s_b_prime.push_back(bob.MakePoint(i));
  }
  for (size_t i = 0; i < x_a->size(); ++i) {
    report.s_b_prime.push_back(x_a->MakePoint(i));
  }
  RSR_CHECK_EQ(report.s_b_prime.size(), n);
  return report;
}

}  // namespace

Result<EmdProtocolReport> RunEmdProtocol(const PointStore& alice,
                                         const PointStore& bob,
                                         const EmdProtocolParams& params) {
  if (alice.size() != bob.size() || alice.empty()) {
    return Status::InvalidArgument("|S_A| must equal |S_B| and be positive");
  }
  const size_t n = alice.size();
  ValidatePointStore(alice, params.dim, params.delta);
  ValidatePointStore(bob, params.dim, params.delta);

  EmdProtocolReport report;
  RSR_ASSIGN_OR_RETURN(report.derived, DeriveEmdParameters(params, n));
  const EmdDerived& derived = report.derived;

  EmdHashes hashes = MakeEmdHashes(params, derived);
  std::vector<size_t> prefix_lens = EmdPrefixLens(derived);

  // Both parties' level keys. Bob's are computed up front (they consume no
  // shared randomness) because the adaptive negotiation round needs them
  // before Alice's message exists.
  EvalMatrix alice_evals;
  EvaluateAllInto(alice, hashes.draws, params.num_threads, &alice_evals);
  std::vector<uint64_t> alice_keys = ComputeEmdLevelKeys(
      alice_evals, hashes.level_key_hash, prefix_lens, params.num_threads);
  EvalMatrix bob_evals;
  EvaluateAllInto(bob, hashes.draws, params.num_threads, &bob_evals);
  std::vector<uint64_t> bob_keys = ComputeEmdLevelKeys(
      bob_evals, hashes.level_key_hash, prefix_lens, params.num_threads);

  Transcript transcript;

  // ---- Adaptive size negotiation (extra B->A round; core/adaptive.h). ----
  // Bob ships one strata estimator per level over his level keys; Alice
  // estimates each level's difference and sizes that level's RIBLT to
  // clamp(cell_multiplier q^2 estimate, floor, c q^2 k). Static mode keeps
  // every level at the derived c q^2 k cells with no extra message.
  std::vector<size_t> level_cells(derived.levels, derived.cells);
  if (params.adaptive.enabled) {
    const double q = static_cast<double>(params.num_hashes);
    RSR_ASSIGN_OR_RETURN(
        level_cells,
        NegotiateLevelSketchCells(alice_keys, bob_keys, derived.levels, n,
                                  params.adaptive, params.seed,
                                  params.adaptive.cell_multiplier * q * q,
                                  derived.cells, params.num_hashes,
                                  params.num_threads, &transcript,
                                  "B->A level strata", params.codec));
  }

  // ---- Alice: build the t RIBLTs at the provisioned sizes. ----
  std::vector<Riblt> tables;
  tables.reserve(derived.levels);
  for (size_t level = 1; level <= derived.levels; ++level) {
    tables.emplace_back(
        EmdLevelRibltParams(params, level_cells[level - 1], level));
  }
  // Serialization stays in level order, so the wire bytes do not depend on
  // how UpdateLevelTables schedules the build.
  UpdateLevelTables(&tables, alice_keys, alice, +1, params);

  return FinishEmdProtocol(tables, level_cells, prefix_lens, bob, bob_keys,
                           params, &transcript, std::move(report));
}

Result<EmdProtocolReport> RunEmdProtocolPrebuilt(
    const EmdSketchSet& alice, const PointStore& bob,
    const EmdProtocolParams& params, EmdServeScratch* scratch) {
  if (params.adaptive.enabled &&
      params.adaptive.rounding != CellRounding::kDivisorLadder) {
    return Status::InvalidArgument(
        "prebuilt adaptive serving requires CellRounding::kDivisorLadder: "
        "exact negotiated sizes cannot be folded from the maintained "
        "cap-size tables");
  }
  if (bob.size() != alice.n || bob.empty()) {
    return Status::InvalidArgument("|S_B| must equal the sketch set's n");
  }
  const size_t n = bob.size();
  ValidatePointStore(bob, params.dim, params.delta);

  EmdProtocolReport report;
  RSR_ASSIGN_OR_RETURN(report.derived, DeriveEmdParameters(params, n));
  const EmdDerived& derived = report.derived;
  // The sketch set must have been built with these params (same derivation,
  // same wire layout); a drifted caller would emit undecodable bytes.
  if (derived.levels != alice.derived.levels ||
      derived.cells != alice.derived.cells || derived.s != alice.derived.s ||
      alice.tables.size() != derived.levels) {
    return Status::InvalidArgument(
        "sketch set was built under different derived parameters");
  }

  EmdHashes hashes = MakeEmdHashes(params, derived);
  EvalMatrix bob_evals;
  EvaluateAllInto(bob, hashes.draws, params.num_threads, &bob_evals);
  std::vector<uint64_t> bob_keys =
      ComputeEmdLevelKeys(bob_evals, hashes.level_key_hash, alice.prefix_lens,
                          params.num_threads);

  Transcript transcript;
  std::vector<size_t> level_cells(derived.levels, derived.cells);
  if (!params.adaptive.enabled) {
    return FinishEmdProtocol(alice.tables, level_cells, alice.prefix_lens, bob,
                             bob_keys, params, &transcript, std::move(report),
                             scratch != nullptr ? &scratch->message : nullptr);
  }

  // ---- Adaptive warm serving: negotiate, then FOLD instead of build. ----
  // The maintained estimators stand in for a cold sender-side build (they are
  // byte-identical to one), so the negotiation round and the chosen rungs
  // match RunEmdProtocol's under the same ladder rounding. The negotiated
  // tables are then projected from the maintained cap-size tables by
  // Riblt::FoldInto — O(levels * cap) cell additions, no point rehashing —
  // and land in `scratch` so a long-lived session re-serves without
  // reallocating.
  if (alice.estimators.size() != derived.levels) {
    return Status::InvalidArgument(
        "adaptive serving requires a sketch set built with estimators "
        "(BuildEmdSketches build_estimators = true)");
  }
  const double q = static_cast<double>(params.num_hashes);
  RSR_ASSIGN_OR_RETURN(
      level_cells,
      NegotiateLevelSketchCellsPrebuilt(
          alice.estimators, bob_keys, derived.levels, n, params.adaptive,
          params.seed, params.adaptive.cell_multiplier * q * q, derived.cells,
          params.num_hashes, params.num_threads, &transcript,
          "B->A level strata", params.codec));
  EmdServeScratch local_scratch;
  EmdServeScratch* serve = scratch != nullptr ? scratch : &local_scratch;
  RSR_RETURN_NOT_OK(FoldEmdSketches(alice, level_cells, params, serve));
  return FinishEmdProtocol(serve->folded, level_cells, alice.prefix_lens, bob,
                           bob_keys, params, &transcript, std::move(report),
                           &serve->message);
}

}  // namespace rsr
