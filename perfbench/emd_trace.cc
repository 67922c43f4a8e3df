#include "emd_trace.h"

#include <algorithm>
#include <span>

#include "core/adaptive.h"
#include "core/emd_sketch.h"
#include "emd/assignment.h"
#include "emd/emd.h"
#include "hashing/hash64.h"
#include "lsh/eval_pipeline.h"
#include "util/parallel.h"

namespace perfbench {

using rsr::EmdDerived;
using rsr::EmdHashes;
using rsr::EmdProtocolParams;
using rsr::PointStore;
using rsr::Riblt;
using rsr::Status;
using rsr::WireCodec;

namespace {

/// EvaluateAllInto + ComputeEmdLevelKeysInto over one party's rows; returns
/// the level-major key buffer.
std::vector<uint64_t> TracedLevelKeys(const PointStore& points,
                                      const EmdHashes& hashes,
                                      const std::vector<size_t>& prefix_lens,
                                      size_t num_threads, Tracer* tracer) {
  rsr::EvalMatrix evals;
  {
    Tracer::Span span(tracer, Layer::kLshBatch);
    rsr::EvaluateAllInto(points, hashes.draws, num_threads, &evals);
  }
  tracer->Count(Counter::kLshEvals,
                static_cast<double>(points.size() * hashes.draws.size()));
  std::vector<uint64_t> keys(prefix_lens.size() * points.size());
  {
    Tracer::Span span(tracer, Layer::kLevelKeys);
    rsr::ComputeEmdLevelKeysInto(evals, hashes.level_key_hash, prefix_lens,
                                 num_threads, keys.data());
  }
  return keys;
}

EmdHashes TracedHashes(const EmdProtocolParams& params,
                       const EmdDerived& derived, Tracer* tracer) {
  Tracer::Span span(tracer, Layer::kLshDraw);
  return rsr::MakeEmdHashes(params, derived);
}

/// Applies `direction` updates of one party's level keys to every table:
/// levels on parallel threads, or shard by shard inside each table.
void UpdateLevels(std::vector<Riblt>* tables, const std::vector<uint64_t>& keys,
                  const PointStore& points, const EmdProtocolParams& params,
                  int direction) {
  const size_t n = points.size();
  auto level_keys = [&](size_t l) {
    return std::span<const uint64_t>(keys.data() + l * n, n);
  };
  if (params.sketch_shards > 1) {
    for (size_t l = 0; l < tables->size(); ++l) {
      (*tables)[l].UpdateManySharded(level_keys(l), points, direction,
                                     params.sketch_shards, params.num_threads);
    }
    return;
  }
  rsr::ParallelShards(tables->size(), params.num_threads,
                      [&](size_t begin, size_t end) {
                        for (size_t l = begin; l < end; ++l) {
                          (*tables)[l].UpdateMany(level_keys(l), points,
                                                  direction);
                        }
                      });
}

/// Records the sent sketch message in `out` and the trace.
void RecordSent(const rsr::ByteWriter& message, Tracer* tracer,
                TracedEmdSync* out) {
  out->message_bytes.push_back(message.size_bytes());
  out->sketch_message = message.buffer();
  tracer->Count(Counter::kWireBytes, static_cast<double>(message.size_bytes()));
}

/// The protocol tail, receiver side: Bob parses, deletes his pairs, decodes
/// the finest feasible level and repairs S_B.
Status TracedReceive(const rsr::ByteWriter& message, const PointStore& bob,
                     const std::vector<uint64_t>& bob_keys,
                     const EmdProtocolParams& params, const EmdDerived& derived,
                     Tracer* tracer, TracedEmdSync* out) {
  const size_t n = bob.size();
  const WireCodec codec = params.codec;
  const bool adaptive = params.adaptive.enabled;
  std::vector<Riblt> received;
  {
    Tracer::Span span(tracer, Layer::kWireDecode);
    rsr::ByteReader reader(message.buffer());
    if (codec != WireCodec::kClassic && !adaptive) {
      RSR_RETURN_NOT_OK(rsr::ExpectWireHeader(codec, &reader));
    }
    std::vector<size_t> parsed(derived.levels, derived.cells);
    if (adaptive) {
      RSR_ASSIGN_OR_RETURN(parsed, rsr::ReadNegotiatedCells(
                                       &reader, derived.levels, derived.cells));
    }
    received.reserve(derived.levels);
    for (size_t level = 1; level <= derived.levels; ++level) {
      RSR_ASSIGN_OR_RETURN(
          Riblt table,
          Riblt::ReadFrom(&reader,
                          rsr::EmdLevelRibltParams(params, parsed[level - 1],
                                                   level),
                          codec));
      received.push_back(std::move(table));
    }
    RSR_RETURN_NOT_OK(reader.FinishAndCheckConsumed());
  }
  {
    Tracer::Span span(tracer, Layer::kSketchUpdate);
    UpdateLevels(&received, bob_keys, bob, params, -1);
  }

  rsr::Rng bob_coins(rsr::Mix64(params.seed) ^ 0xb0b);
  size_t decoded_level = 0;
  rsr::RibltDecodeResult best;
  rsr::RibltDecodeResult decoded;
  for (size_t level = derived.levels; level >= 1; --level) {
    Status status;
    {
      Tracer::Span span(tracer, Layer::kSketchPeel);
      status = received[level - 1].DecodeInto(4 * params.k, 2 * params.k,
                                              &bob_coins, &decoded);
    }
    tracer->Count(Counter::kPeelLevelsTried, 1);
    if (status.ok()) {
      tracer->Count(Counter::kPeelLevelsDecoded, 1);
      if (decoded_level == 0) {
        decoded_level = level;
        best = std::move(decoded);
      }
    }
    if (level == 1) break;
  }
  if (decoded_level == 0) {
    out->failure = true;
    return Status();
  }
  out->decoded_level = decoded_level;

  // Size repair: S'_B = (S_B \ Y_B) ∪ X_A with |S'_B| = n.
  PointStore x_a = std::move(best.inserted);
  const PointStore& x_b = best.deleted;
  if (x_a.size() > x_b.size()) {
    x_a.SortLex();
    x_a.Truncate(x_b.size());
  }
  std::vector<char> removed(n, 0);
  if (!x_b.empty()) {
    rsr::CostMatrix cost;
    rsr::AssignmentResult assignment;
    {
      Tracer::Span span(tracer, Layer::kEmdRepair);
      cost = rsr::DistanceMatrix(x_b, bob, rsr::Metric(params.metric));
      assignment = rsr::MinCostAssignment(cost);
    }
    auto col = [&](size_t r) {
      return static_cast<size_t>(assignment.row_to_col[r]);
    };
    std::vector<size_t> order(x_b.size());
    for (size_t r = 0; r < x_b.size(); ++r) order[r] = r;
    if (x_a.size() < x_b.size()) {
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return cost[a][col(a)] < cost[b][col(b)];
      });
    }
    for (size_t r = 0; r < x_a.size(); ++r) removed[col(order[r])] = 1;
  }
  out->s_b_prime.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!removed[i]) out->s_b_prime.push_back(bob.MakePoint(i));
  }
  for (size_t i = 0; i < x_a.size(); ++i) {
    out->s_b_prime.push_back(x_a.MakePoint(i));
  }
  return Status();
}

}  // namespace

rsr::Result<TracedEmdSync> TracedColdEmdSync(const PointStore& alice,
                                             const PointStore& bob,
                                             const EmdProtocolParams& params,
                                             Tracer* tracer) {
  if (params.adaptive.enabled) {
    return Status::InvalidArgument("traced cold sync covers static sizing");
  }
  rsr::ValidatePointStore(alice, params.dim, params.delta);
  rsr::ValidatePointStore(bob, params.dim, params.delta);
  RSR_ASSIGN_OR_RETURN(EmdDerived derived,
                       rsr::DeriveEmdParameters(params, alice.size()));
  const EmdHashes hashes = TracedHashes(params, derived, tracer);
  const std::vector<size_t> prefix_lens = rsr::EmdPrefixLens(derived);
  std::vector<uint64_t> alice_keys;
  {
    Tracer::Span serve(tracer, Layer::kCoreServe);
    alice_keys = TracedLevelKeys(alice, hashes, prefix_lens,
                                 params.num_threads, tracer);
  }
  const std::vector<uint64_t> bob_keys =
      TracedLevelKeys(bob, hashes, prefix_lens, params.num_threads, tracer);

  TracedEmdSync out;
  rsr::ByteWriter message;
  {
    Tracer::Span serve(tracer, Layer::kCoreServe);
    std::vector<Riblt> tables;
    {
      Tracer::Span span(tracer, Layer::kSketchUpdate);
      tables.reserve(derived.levels);
      for (size_t level = 1; level <= derived.levels; ++level) {
        tables.emplace_back(
            rsr::EmdLevelRibltParams(params, derived.cells, level));
      }
      UpdateLevels(&tables, alice_keys, alice, params, +1);
    }
    {
      Tracer::Span span(tracer, Layer::kWireEncode);
      if (params.codec != WireCodec::kClassic) {
        rsr::WriteWireHeader(params.codec, &message);
      }
      for (const Riblt& table : tables) table.WriteTo(&message, params.codec);
    }
    RecordSent(message, tracer, &out);
  }
  RSR_RETURN_NOT_OK(
      TracedReceive(message, bob, bob_keys, params, derived, tracer, &out));
  return out;
}

rsr::Result<TracedEmdSync> TracedWarmEmdSync(
    rsr::SyncServer* server, const PointStore& bob,
    rsr::EmdServeScratch* scratch,
    std::shared_ptr<const rsr::SyncSnapshot>* last_snapshot, Tracer* tracer) {
  std::shared_ptr<const rsr::SyncSnapshot> snapshot;
  {
    Tracer::Span serve(tracer, Layer::kCoreServe);
    Tracer::Span span(tracer, Layer::kCoreSnapshot);
    snapshot = server->AcquireSnapshot();
  }
  tracer->Count(Counter::kSnapshotAcquires, 1);
  if (snapshot == *last_snapshot) tracer->Count(Counter::kSnapshotHits, 1);
  *last_snapshot = snapshot;
  const rsr::EmdSketchSet& sketches = snapshot->sketches;
  const EmdProtocolParams& params = snapshot->params;
  const WireCodec codec = params.codec;
  const size_t n = bob.size();
  if (!params.adaptive.enabled || n != sketches.n) {
    return Status::InvalidArgument(
        "traced warm sync covers adaptive serving at the dataset's size");
  }
  rsr::ValidatePointStore(bob, params.dim, params.delta);
  RSR_ASSIGN_OR_RETURN(EmdDerived derived,
                       rsr::DeriveEmdParameters(params, n));
  const EmdHashes hashes = TracedHashes(params, derived, tracer);
  const std::vector<uint64_t> bob_keys = TracedLevelKeys(
      bob, hashes, sketches.prefix_lens, params.num_threads, tracer);

  // Client: per-level estimators over its level keys, one message.
  TracedEmdSync out;
  std::vector<rsr::StrataEstimator> client_estimators;
  {
    Tracer::Span span(tracer, Layer::kSketchEstimate);
    client_estimators =
        rsr::BuildLevelEstimators(bob_keys, derived.levels, n, params.adaptive,
                                  params.seed, params.num_threads);
  }
  rsr::ByteWriter estimator_msg;
  {
    Tracer::Span span(tracer, Layer::kWireEncode);
    if (codec != WireCodec::kClassic) {
      rsr::WriteWireHeader(codec, &estimator_msg);
    }
    rsr::WriteEstimators(client_estimators, &estimator_msg, codec);
  }
  out.message_bytes.push_back(estimator_msg.size_bytes());
  tracer->Count(Counter::kWireBytes,
                static_cast<double>(estimator_msg.size_bytes()));

  // Server: parse, negotiate per-level rungs, fold the maintained tables,
  // send them.
  {
    Tracer::Span serve(tracer, Layer::kCoreServe);
    RSR_ASSIGN_OR_RETURN(out.level_cells,
                         ServeReply(*snapshot, estimator_msg.buffer(), scratch,
                                    tracer));
  }
  double folded = 0;
  for (size_t cells : out.level_cells) folded += static_cast<double>(cells);
  tracer->Count(Counter::kFoldCells, folded);
  tracer->Count(Counter::kFoldCapCells,
                static_cast<double>(derived.cells * derived.levels));
  RecordSent(scratch->message, tracer, &out);
  RSR_RETURN_NOT_OK(TracedReceive(scratch->message, bob, bob_keys, params,
                                  derived, tracer, &out));
  return out;
}

rsr::Result<std::vector<size_t>> ServeReply(
    const rsr::SyncSnapshot& snapshot, std::span<const uint8_t> estimator_msg,
    rsr::EmdServeScratch* scratch, Tracer* tracer) {
  const rsr::EmdSketchSet& sketches = snapshot.sketches;
  const EmdProtocolParams& params = snapshot.params;
  const EmdDerived& derived = sketches.derived;
  std::vector<rsr::StrataEstimator> received;
  {
    Tracer::Span span(tracer, Layer::kWireDecode);
    rsr::ByteReader reader(estimator_msg.data(), estimator_msg.size());
    if (params.codec != WireCodec::kClassic) {
      RSR_RETURN_NOT_OK(rsr::ExpectWireHeader(params.codec, &reader));
    }
    RSR_ASSIGN_OR_RETURN(received,
                         rsr::ReadEstimators(&reader, params.adaptive,
                                             params.seed, derived.levels,
                                             params.codec));
    RSR_RETURN_NOT_OK(reader.FinishAndCheckConsumed());
  }
  std::vector<size_t> level_cells;
  {
    Tracer::Span span(tracer, Layer::kSketchEstimate);
    const double q = static_cast<double>(params.num_hashes);
    level_cells = rsr::NegotiateLevelCells(
        sketches.estimators, received, params.adaptive.cell_multiplier * q * q,
        params.adaptive.floor_cells, derived.cells, params.adaptive.rounding,
        params.num_hashes, params.num_threads);
  }
  {
    Tracer::Span span(tracer, Layer::kSketchFold);
    RSR_RETURN_NOT_OK(
        rsr::FoldEmdSketches(sketches, level_cells, params, scratch));
  }
  {
    Tracer::Span span(tracer, Layer::kWireEncode);
    scratch->message.Clear();
    rsr::WriteNegotiatedCells(level_cells, &scratch->message);
    for (const Riblt& table : scratch->folded) {
      table.WriteTo(&scratch->message, params.codec);
    }
  }
  return level_cells;
}

std::vector<uint8_t> ColdSketchMessage(const PointStore& rows,
                                       const EmdProtocolParams& params,
                                       const std::vector<size_t>& level_cells) {
  auto derived = rsr::DeriveEmdParameters(params, rows.size());
  RSR_CHECK(derived.ok());
  const EmdHashes hashes = rsr::MakeEmdHashes(params, *derived);
  rsr::EvalMatrix evals;
  rsr::EvaluateAllInto(rows, hashes.draws, params.num_threads, &evals);
  const std::vector<uint64_t> keys = rsr::ComputeEmdLevelKeys(
      evals, hashes.level_key_hash, rsr::EmdPrefixLens(*derived),
      params.num_threads);
  std::vector<Riblt> tables;
  for (size_t level = 1; level <= derived->levels; ++level) {
    tables.emplace_back(
        rsr::EmdLevelRibltParams(params, level_cells[level - 1], level));
  }
  UpdateLevels(&tables, keys, rows, params, +1);
  rsr::ByteWriter message;
  rsr::WriteNegotiatedCells(level_cells, &message);
  for (const Riblt& table : tables) table.WriteTo(&message, params.codec);
  return message.buffer();
}

std::string CompareTracedSync(const TracedEmdSync& traced,
                              const rsr::EmdProtocolReport& report) {
  if (traced.failure != report.failure) return "failure flag differs";
  if (traced.decoded_level != report.decoded_level) {
    return "decoded level " + std::to_string(traced.decoded_level) + " vs " +
           std::to_string(report.decoded_level);
  }
  if (traced.message_bytes.size() != report.comm.messages.size()) {
    return "message count differs";
  }
  for (size_t i = 0; i < traced.message_bytes.size(); ++i) {
    if (traced.message_bytes[i] != report.comm.messages[i].bytes) {
      return "message " + std::to_string(i) + " size differs";
    }
  }
  rsr::PointSet a = traced.s_b_prime;
  rsr::PointSet b = report.s_b_prime;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  if (a != b) return "output set differs";
  return "";
}

std::string CompareReports(const rsr::EmdProtocolReport& a,
                           const rsr::EmdProtocolReport& b) {
  if (a.comm.messages.size() != b.comm.messages.size()) {
    return "message count differs";
  }
  for (size_t i = 0; i < a.comm.messages.size(); ++i) {
    const rsr::MessageRecord& x = a.comm.messages[i];
    const rsr::MessageRecord& y = b.comm.messages[i];
    if (x.label != y.label || x.bytes != y.bytes || x.codec != y.codec) {
      return "message " + std::to_string(i) + " differs";
    }
  }
  if (a.failure != b.failure || a.decoded_level != b.decoded_level) {
    return "decode outcome differs";
  }
  if (a.level_cells != b.level_cells) return "provisioned cells differ";
  if (a.levels.size() != b.levels.size()) return "level count differs";
  for (size_t l = 0; l < a.levels.size(); ++l) {
    const rsr::EmdLevelOutcome& x = a.levels[l];
    const rsr::EmdLevelOutcome& y = b.levels[l];
    if (x.prefix_len != y.prefix_len || x.decoded != y.decoded ||
        x.pairs_alice != y.pairs_alice || x.pairs_bob != y.pairs_bob) {
      return "level " + std::to_string(l + 1) + " outcome differs";
    }
  }
  if (a.x_a != b.x_a || a.x_b != b.x_b) return "decoded pairs differ";
  if (a.s_b_prime != b.s_b_prime) return "output set differs";
  return "";
}

}  // namespace perfbench
