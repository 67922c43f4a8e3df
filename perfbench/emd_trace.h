// Traced decomposition of one EMD sync through the library's public pieces.
//
// RunEmdProtocol and SyncSession::Run are single calls, so the traced run
// re-executes the same pipeline step by step (emd_sketch.h, adaptive.h,
// Riblt, MinCostAssignment), wrapping each call in a span. The steps mirror
// core/emd_protocol.cc; the caller checks that the decomposition emits the
// same messages and decodes the same level as the untraced call on the same
// inputs, so drift in either shows as a failed gate, never as silently
// wrong layer times. The serving party's work (Alice's half) sits under
// core.serve parent spans, so the trace shows what the server half costs
// and whether it hashes points.
#ifndef RSR_PERFBENCH_EMD_TRACE_H_
#define RSR_PERFBENCH_EMD_TRACE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/emd_protocol.h"
#include "core/sync_server.h"
#include "harness.h"

namespace perfbench {

struct TracedEmdSync {
  bool failure = false;
  size_t decoded_level = 0;
  /// Size of every message, in send order.
  std::vector<size_t> message_bytes;
  /// The A->B sketch message.
  std::vector<uint8_t> sketch_message;
  /// Negotiated cells per level (adaptive exchanges only).
  std::vector<size_t> level_cells;
  rsr::PointSet s_b_prime;
};

/// The one-shot static pipeline of RunEmdProtocol (params.adaptive off):
/// both parties hash, Alice builds and sends every level table, Bob decodes
/// and repairs.
rsr::Result<TracedEmdSync> TracedColdEmdSync(const rsr::PointStore& alice,
                                             const rsr::PointStore& bob,
                                             const rsr::EmdProtocolParams& params,
                                             Tracer* tracer);

/// The warm adaptive pipeline of SyncServer::OpenSession + SyncSession::Run:
/// snapshot, client hashing and estimators, server negotiation and fold,
/// client decode and repair. `last_snapshot` carries the previous
/// acquisition across calls so snapshot-cache hits are counted.
rsr::Result<TracedEmdSync> TracedWarmEmdSync(
    rsr::SyncServer* server, const rsr::PointStore& bob,
    rsr::EmdServeScratch* scratch,
    std::shared_ptr<const rsr::SyncSnapshot>* last_snapshot, Tracer* tracer);

/// The server half of one warm adaptive exchange, as SyncSession::Run runs
/// it: parses the client's estimator message, negotiates each level's rung
/// against the snapshot's maintained estimators, folds the maintained tables
/// into `scratch->folded` and writes the sketch message (sizes prefix, then
/// the folded tables) to `scratch->message`. Returns the negotiated cells.
/// Each step runs under its layer's span; a null tracer runs it untraced.
rsr::Result<std::vector<size_t>> ServeReply(
    const rsr::SyncSnapshot& snapshot, std::span<const uint8_t> estimator_msg,
    rsr::EmdServeScratch* scratch, Tracer* tracer);

/// The sketch message a cold adaptive sender writes at `level_cells`: the
/// sizes prefix, then one table per level built from scratch over `rows`.
std::vector<uint8_t> ColdSketchMessage(const rsr::PointStore& rows,
                                       const rsr::EmdProtocolParams& params,
                                       const std::vector<size_t>& level_cells);

/// Empty when the decomposition matches the untraced report: same failure
/// flag, decoded level, per-message sizes and (as a multiset) output set.
std::string CompareTracedSync(const TracedEmdSync& traced,
                              const rsr::EmdProtocolReport& report);

/// Empty when two reports of the same exchange are identical: messages
/// (label, size, codec), failure, decoded level, per-level outcomes,
/// provisioned cells, decoded pairs and output set.
std::string CompareReports(const rsr::EmdProtocolReport& a,
                           const rsr::EmdProtocolReport& b);

}  // namespace perfbench

#endif  // RSR_PERFBENCH_EMD_TRACE_H_
