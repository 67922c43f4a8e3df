// serve_churn: a SyncServer under row churn, serving warm adaptive sessions.
//
// Chosen because it puts writes beside reads: a mutation hashes one row
// (EvaluateRowsInto), a session's client hashes its n rows in batch, and the
// server half hashes nothing — snapshot, strata negotiation, fold and compact
// encoding only. Two sessions per generation make half of the snapshot
// acquisitions cache hits, and the difference mix spans small fold rungs up
// to the cap.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

#include "core/adaptive.h"
#include "core/emd_protocol.h"
#include "core/emd_sketch.h"
#include "core/sync_dataset.h"
#include "core/sync_server.h"
#include "emd/emd.h"
#include "emd_trace.h"
#include "harness.h"
#include "hashing/hash64.h"
#include "lsh/eval_pipeline.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using rsr::PointStore;

constexpr size_t kN = 1024;
constexpr size_t kDim = 4;
constexpr rsr::Coord kDelta = 1023;
constexpr size_t kK = 32;
/// Rows each client holds that the server does not (and vice versa), one
/// session per entry per cycle: symmetric differences 2 and 32.
constexpr size_t kDiffMix[] = {1, 16};
/// Row replacements (one Delete + one Insert each) per session, applied
/// before each cycle's sessions: the top point of bench_server's
/// E-SYNC-SERVER churn sweep (1, 16, 256 replacements between syncs). At
/// that rate mutations take about 0.3 of the loop, so a slower write
/// path moves syncs_per_s (core.mutate.loop_share reports the share).
constexpr size_t kChurnPerSync = 256;
constexpr size_t kReplacementsPerCycle = kChurnPerSync * std::size(kDiffMix);
constexpr size_t kForeignRows = 64;
/// Server-half replays of each recorded client request.
constexpr size_t kReplays = 4;
constexpr size_t kSetupRepeats = 3;
constexpr size_t kMinSyncs = 100;
constexpr size_t kMinMutations = 1000;
constexpr size_t kMinTracedSyncs = 20;
constexpr size_t kSmokeCycles = 2;
constexpr size_t kQualitySessions = 8;

rsr::EmdProtocolParams ServerParams(uint64_t seed) {
  rsr::EmdProtocolParams params;
  params.metric = rsr::MetricKind::kL1;
  params.dim = kDim;
  params.delta = kDelta;
  params.k = kK;
  params.d1 = 1;
  params.d2 = 1024;  // pinned ladder: levels stay fixed under churn
  params.adaptive.enabled = true;
  params.adaptive.rounding = rsr::CellRounding::kDivisorLadder;
  params.codec = rsr::WireCodec::kCompact;
  params.num_threads = 1;
  params.seed = seed;
  return params;
}

/// `count` distinct uniform rows.
PointStore DistinctRows(size_t count, rsr::Rng* rng) {
  PointStore rows = rsr::GenerateUniformStore(count * 2, kDim, kDelta, rng);
  rows.SortLexAndDedup();
  RSR_CHECK(rows.size() >= count);
  // SortLex orders the rows; a seeded shuffle keeps pairs unrelated.
  PointStore shuffled(kDim);
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->Below(i)]);
  }
  for (size_t i = 0; i < count; ++i) shuffled.Append(rows[order[i]]);
  return shuffled;
}

/// EMD between two equal-size multisets, from their multiset difference:
/// an optimal matching pairs identical points, so only the rest costs.
double EmdOfDifference(const rsr::PointSet& a, const rsr::PointSet& b,
                       const rsr::Metric& metric) {
  rsr::PointSet x = a, y = b, only_x, only_y;
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  std::set_difference(x.begin(), x.end(), y.begin(), y.end(),
                      std::back_inserter(only_x));
  std::set_difference(y.begin(), y.end(), x.begin(), x.end(),
                      std::back_inserter(only_y));
  if (only_x.empty()) return 0;
  return rsr::EmdExact(only_x, only_y, metric);
}

/// The server's rows as the workload knows them: pair p is rows p and
/// kN + p of the pool, exactly one of which is resident.
class RowMirror {
 public:
  explicit RowMirror(const PointStore& pool)
      : pool_(pool), rows_(kDim), in_front_(kN, 1), slot_of_(kN), pair_at_(kN) {
    for (size_t p = 0; p < kN; ++p) {
      rows_.Append(pool_[p]);
      slot_of_[p] = pair_at_[p] = p;
    }
  }
  /// Swaps pair p's resident row; returns {outgoing, incoming} pool rows.
  std::pair<size_t, size_t> Replace(size_t p) {
    const size_t outgoing = in_front_[p] ? p : kN + p;
    const size_t incoming = in_front_[p] ? kN + p : p;
    in_front_[p] = !in_front_[p];
    const size_t slot = slot_of_[p];
    const size_t last = rows_.size() - 1;
    rows_.RemoveRowSwap(slot);
    if (slot != last) {
      slot_of_[pair_at_[last]] = slot;
      pair_at_[slot] = pair_at_[last];
    }
    rows_.Append(pool_[incoming]);
    slot_of_[p] = last;
    pair_at_[last] = p;
    return {outgoing, incoming};
  }
  const PointStore& rows() const { return rows_; }

 private:
  const PointStore& pool_;
  PointStore rows_;
  std::vector<uint8_t> in_front_;
  std::vector<size_t> slot_of_, pair_at_;
};

/// One recorded client request: its estimator message and what the session
/// that sent it negotiated, for replaying the server half.
struct Request {
  std::vector<uint8_t> estimator_msg;
  std::vector<size_t> level_cells;
  size_t sketch_bytes = 0;
};

/// The mutation path through its public pieces on benchmark-owned copies of
/// the maintained state (traced runs only): EvaluateRowsInto on the appended
/// row, its level keys, and the +-1 table and estimator updates.
class ShadowDataset {
 public:
  ShadowDataset(const rsr::EmdSketchSet& initial, const PointStore& rows,
                const rsr::EmdProtocolParams& params)
      : params_(params),
        hashes_(rsr::MakeEmdHashes(params, initial.derived)),
        prefix_lens_(initial.prefix_lens),
        tables_(initial.tables),
        estimators_(initial.estimators),
        rows_(kDim) {
    rsr::EvalMatrix evals;
    rsr::EvaluateAllInto(rows, hashes_.draws, 1, &evals);
    const size_t levels = prefix_lens_.size();
    std::vector<uint64_t> keys(levels * rows.size());
    rsr::ComputeEmdLevelKeysInto(evals, hashes_.level_key_hash, prefix_lens_,
                                 1, keys.data());
    for (size_t i = 0; i < rows.size(); ++i) {
      std::vector<uint64_t>& row_keys =
          level_keys_[rows[i].ContentHash(params.seed)];
      for (size_t l = 0; l < levels; ++l) {
        row_keys.push_back(keys[l * rows.size() + i]);
      }
    }
  }

  void Insert(rsr::PointRef row, Tracer* tracer) {
    rows_.Append(row);
    {
      Tracer::Span span(tracer, Layer::kLshRow);
      rsr::EvaluateRowsInto(rows_, rows_.size() - 1, 1, hashes_.draws, 1,
                            &evals_);
    }
    std::vector<uint64_t>& keys = level_keys_[row.ContentHash(params_.seed)];
    keys.assign(prefix_lens_.size(), 0);
    {
      Tracer::Span span(tracer, Layer::kLevelKeys);
      rsr::ComputeEmdLevelKeysInto(evals_, hashes_.level_key_hash,
                                   prefix_lens_, 1, keys.data());
    }
    Update(keys, row, +1, tracer);
  }

  void Delete(rsr::PointRef row, Tracer* tracer) {
    auto it = level_keys_.find(row.ContentHash(params_.seed));
    RSR_CHECK(it != level_keys_.end());
    Update(it->second, row, -1, tracer);
    level_keys_.erase(it);
  }

  /// Empty when every shadow table and estimator serializes exactly like
  /// the server's.
  std::string CompareWith(const rsr::EmdSketchSet& live) const {
    for (size_t l = 0; l < tables_.size(); ++l) {
      rsr::ByteWriter a, b;
      tables_[l].WriteTo(&a, rsr::WireCodec::kClassic);
      live.tables[l].WriteTo(&b, rsr::WireCodec::kClassic);
      estimators_[l].WriteTo(&a, rsr::WireCodec::kClassic);
      live.estimators[l].WriteTo(&b, rsr::WireCodec::kClassic);
      if (a.buffer() != b.buffer()) {
        return "level " + std::to_string(l + 1) + " differs";
      }
    }
    return "";
  }

 private:
  void Update(const std::vector<uint64_t>& keys, rsr::PointRef row,
              int direction, Tracer* tracer) {
    Tracer::Span span(tracer, Layer::kSketchUpdate);
    for (size_t l = 0; l < tables_.size(); ++l) {
      tables_[l].Update(keys[l], row.data(), direction);
      if (direction > 0) {
        estimators_[l].Insert(keys[l]);
      } else {
        estimators_[l].Delete(keys[l]);
      }
    }
  }

  rsr::EmdProtocolParams params_;
  rsr::EmdHashes hashes_;
  std::vector<size_t> prefix_lens_;
  std::vector<rsr::Riblt> tables_;
  std::vector<rsr::StrataEstimator> estimators_;
  PointStore rows_;
  rsr::EvalMatrix evals_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> level_keys_;
};

}  // namespace

RunReport RunServeChurn(const Options& options) {
  RunReport report;
  report.codec = "compact";
  char shape[320];
  std::snprintf(
      shape, sizeof(shape),
      "SyncServer n=%zu, L1 grid dim=%zu delta=%lld, D1=1 D2=1024, k=%zu, "
      "adaptive ladder sizing, compact codec, num_threads=1; per cycle %zu "
      "row replacements (%zu per sync) then sessions with symmetric "
      "difference 2 and 32",
      kN, kDim, static_cast<long long>(kDelta), kK, kReplacementsPerCycle,
      kChurnPerSync);
  report.shape = shape;

  // Inputs: the 2n-row pool the server's rows rotate through, and foreign
  // rows that clients hold instead of some server rows.
  rsr::Rng rng(rsr::Mix64(options.seed) ^ 0x5e7e);
  const PointStore all = DistinctRows(2 * kN + kForeignRows, &rng);
  PointStore pool(kDim), foreign(kDim);
  for (size_t i = 0; i < 2 * kN; ++i) pool.Append(all[i]);
  for (size_t i = 0; i < kForeignRows; ++i) foreign.Append(all[2 * kN + i]);
  const rsr::EmdProtocolParams params = ServerParams(rsr::Mix64(options.seed));
  RowMirror mirror(pool);

  // Set-up: dataset build + Reserve + first snapshot, repeated; the median
  // is reported and the last server serves the run.
  std::unique_ptr<rsr::SyncServer> server;
  std::vector<double> setup_times;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    server.reset();
    const Clock::time_point start = Clock::now();
    auto dataset = rsr::SyncDataset::Create(mirror.rows(), params);
    RSR_CHECK(dataset.ok());
    dataset->Reserve(kN + 2);
    server = std::make_unique<rsr::SyncServer>(std::move(*dataset));
    RSR_CHECK(server->AcquireSnapshot() != nullptr);
    setup_times.push_back(SecondsSince(start));
  }
  const rsr::EmdDerived derived = server->AcquireSnapshot()->sketches.derived;
  const rsr::EmdHashes hashes = rsr::MakeEmdHashes(params, derived);
  const std::vector<size_t> prefix_lens = rsr::EmdPrefixLens(derived);

  Tracer tracer;
  std::unique_ptr<ShadowDataset> shadow;
  if (options.trace) {
    shadow = std::make_unique<ShadowDataset>(
        server->AcquireSnapshot()->sketches, mirror.rows(), params);
  }

  SyncSamples samples;
  std::vector<double> untraced_ms, mutation_us, ratios;
  size_t replies = 0;
  double replay_seconds = 0;
  // Checks and request recording are the benchmark's own work; they are
  // kept out of the loop time that syncs_per_s divides by.
  double bookkeeping_seconds = 0;
  bool mutations_ok = true, replay_ok = true;
  std::string trace_mismatch;
  std::shared_ptr<const rsr::SyncSnapshot> last_snapshot;
  rsr::EmdServeScratch traced_scratch, replay_scratch;
  size_t next_pair = 0;
  PointStore client(kDim);
  const Clock::time_point loop_start = Clock::now();
  for (size_t cycle = 0;; ++cycle) {
    const double elapsed = SecondsSince(loop_start);
    const bool done =
        options.smoke
            ? cycle >= kSmokeCycles
            : elapsed >= options.seconds &&
                  (options.trace ? samples.sync_ms.size() >= kMinTracedSyncs
                                 : samples.sync_ms.size() >= kMinSyncs &&
                                       mutation_us.size() >= kMinMutations);
    if (done) {
      samples.loop_seconds = elapsed - replay_seconds - bookkeeping_seconds;
      samples.peak_rss_mb = PeakRssMiB();
      break;
    }

    // Writes: each replacement is a Delete then an Insert, timed apart.
    for (size_t m = 0; m < kReplacementsPerCycle; ++m) {
      const auto [outgoing, incoming] = mirror.Replace(next_pair++ % kN);
      for (int op = 0; op < 2; ++op) {
        const rsr::PointRef row = pool[op == 0 ? outgoing : incoming];
        if (options.trace) tracer.BeginRequest(RequestKind::kMutation);
        bool ok = false;
        const Clock::time_point start = Clock::now();
        {
          std::optional<Tracer::Span> span;
          if (options.trace) span.emplace(&tracer, Layer::kCoreMutate);
          ok = op == 0 ? server->Delete(server->KeyOf(row)).ok()
                       : server->Insert(row).ok();
        }
        mutation_us.push_back(SecondsSince(start) * 1e6);
        mutations_ok &= ok;
        if (options.trace) {
          if (op == 0) {
            shadow->Delete(row, &tracer);
          } else {
            shadow->Insert(row, &tracer);
          }
          tracer.EndRequest();
        }
      }
    }

    // Reads: one session per difference size, on the same generation.
    std::vector<Request> requests;
    for (size_t s = 0; s < std::size(kDiffMix); ++s) {
      const size_t diff = kDiffMix[s];
      // The client holds `diff` distinct foreign rows in place of `diff`
      // server rows, one from each of `diff` equal slot ranges.
      rsr::Rng pick(rsr::HashCombine(options.seed, cycle * 8 + s));
      const size_t stride = kN / diff;
      const size_t first_foreign = pick.Below(kForeignRows);
      std::vector<size_t> slots;
      for (size_t j = 0; j < diff; ++j) {
        slots.push_back(j * stride + pick.Below(stride));
      }
      PointStore removed(kDim), added(kDim);
      client.Clear();
      for (size_t i = 0, j = 0; i < kN; ++i) {
        if (j < diff && slots[j] == i) {
          removed.Append(mirror.rows()[i]);
          added.Append(foreign[(first_foreign + j) % kForeignRows]);
          client.Append(added[j++]);
        } else {
          client.Append(mirror.rows()[i]);
        }
      }

      std::optional<TracedEmdSync> traced;
      if (options.trace) {
        tracer.BeginRequest(RequestKind::kSync);
        auto result = TracedWarmEmdSync(server.get(), client, &traced_scratch,
                                        &last_snapshot, &tracer);
        tracer.EndRequest();
        if (result.ok()) {
          traced = std::move(*result);
        } else if (trace_mismatch.empty()) {
          trace_mismatch = result.status().ToString();
        }
      }

      const Clock::time_point start = Clock::now();
      rsr::SyncSession session = server->OpenSession();
      auto result = session.Run(client);
      const double ms = SecondsSince(start) * 1e3;
      ++report.attempted;
      if (!result.ok() || result->failure) {
        ++report.failed;
        continue;
      }
      samples.sync_ms.push_back(ms);
      samples.bytes.push_back(static_cast<double>(result->comm.total_bytes()));
      samples.rounds.push_back(static_cast<double>(result->comm.rounds()));
      if (options.trace) {
        untraced_ms.push_back(ms);
        const std::string diff_msg =
            traced ? CompareTracedSync(*traced, *result) : "traced sync failed";
        if (!diff_msg.empty() && trace_mismatch.empty()) {
          trace_mismatch = diff_msg;
        }
      }
      const Clock::time_point bookkeeping_start = Clock::now();
      if (ratios.size() < kQualitySessions) {
        // EMD_k(S_A, S_B) = 0 here (at most k rows differ), so the ratio is
        // EMD(S_A, S'_B) / 1.
        ratios.push_back(EmdOfDifference(mirror.rows().ToPointSet(),
                                         result->s_b_prime,
                                         rsr::Metric(params.metric)));
      }

      // Record the request: the client's estimators are the server's with
      // the differing rows' level keys moved across.
      PointStore moved(kDim);
      moved.AppendStore(removed);
      moved.AppendStore(added);
      rsr::EvalMatrix evals;
      rsr::EvaluateAllInto(moved, hashes.draws, 1, &evals);
      std::vector<uint64_t> keys(prefix_lens.size() * moved.size());
      rsr::ComputeEmdLevelKeysInto(evals, hashes.level_key_hash, prefix_lens,
                                   1, keys.data());
      std::vector<rsr::StrataEstimator> estimators =
          session.snapshot().sketches.estimators;
      for (size_t l = 0; l < estimators.size(); ++l) {
        for (size_t i = 0; i < moved.size(); ++i) {
          const uint64_t key = keys[l * moved.size() + i];
          if (i < removed.size()) {
            estimators[l].Delete(key);
          } else {
            estimators[l].Insert(key);
          }
        }
      }
      Request request;
      rsr::ByteWriter msg;
      rsr::WriteWireHeader(params.codec, &msg);
      rsr::WriteEstimators(estimators, &msg, params.codec);
      request.estimator_msg = msg.buffer();
      request.level_cells = result->level_cells;
      request.sketch_bytes = result->comm.messages.back().bytes;
      replay_ok &= result->comm.messages.front().bytes == msg.size_bytes();
      requests.push_back(std::move(request));
      bookkeeping_seconds += SecondsSince(bookkeeping_start);
    }

    // Server half: replay this cycle's recorded requests.
    const Clock::time_point replay_start = Clock::now();
    for (size_t rep = 0; rep < kReplays; ++rep) {
      for (const Request& request : requests) {
        const auto snapshot = server->AcquireSnapshot();
        auto cells = ServeReply(*snapshot, request.estimator_msg,
                                &replay_scratch, nullptr);
        replay_ok &= cells.ok() && *cells == request.level_cells &&
                     replay_scratch.message.size_bytes() ==
                         request.sketch_bytes;
        ++replies;
      }
    }
    replay_seconds += SecondsSince(replay_start);
  }

  // Identity gates on the final state. The library reports message sizes,
  // not bytes, so the bytes are compared on the decomposition: its warm
  // reply (the maintained tables folded) must equal a cold build at the same
  // rungs byte for byte, and must match the library's warm session in every
  // message size, rung and outcome, which in turn must match a cold
  // RunEmdProtocol.
  std::string warm_vs_cold;
  {
    rsr::SyncSession session = server->OpenSession();
    auto warm = session.Run(client);
    auto cold = rsr::RunEmdProtocol(mirror.rows(), client, params);
    Tracer check_tracer;
    check_tracer.BeginRequest(RequestKind::kSync);
    rsr::EmdServeScratch check_scratch;
    std::shared_ptr<const rsr::SyncSnapshot> check_snapshot;
    auto decomposed = TracedWarmEmdSync(server.get(), client, &check_scratch,
                                        &check_snapshot, &check_tracer);
    check_tracer.EndRequest();
    if (!warm.ok() || !cold.ok() || !decomposed.ok()) {
      warm_vs_cold = "a warm, cold or decomposed sync returned an error";
    } else {
      warm_vs_cold = CompareReports(*warm, *cold);
      if (warm_vs_cold.empty()) {
        warm_vs_cold = CompareTracedSync(*decomposed, *warm);
      }
      if (warm_vs_cold.empty() && decomposed->level_cells != warm->level_cells) {
        warm_vs_cold = "decomposed rungs differ from the session's";
      }
      if (warm_vs_cold.empty() &&
          decomposed->sketch_message !=
              ColdSketchMessage(mirror.rows(), params,
                                decomposed->level_cells)) {
        warm_vs_cold = "folded sketch message differs from a cold build";
      }
    }
  }
  std::string tables_vs_cold = "cold build failed";
  {
    auto snapshot = server->AcquireSnapshot();
    auto cold = rsr::BuildEmdSketches(mirror.rows(), params, true);
    if (cold.ok()) {
      tables_vs_cold.clear();
      for (rsr::WireCodec codec :
           {rsr::WireCodec::kClassic, rsr::WireCodec::kCompact}) {
        rsr::ByteWriter a, b;
        for (size_t l = 0; l < derived.levels; ++l) {
          snapshot->sketches.tables[l].WriteTo(&a, codec);
          snapshot->sketches.estimators[l].WriteTo(&a, codec);
          cold->tables[l].WriteTo(&b, codec);
          cold->estimators[l].WriteTo(&b, codec);
        }
        if (a.buffer() != b.buffer()) {
          tables_vs_cold =
              std::string(rsr::WireCodecName(codec)) + " bytes differ";
        }
      }
    }
  }

  report.Gate("failure_rate", report.failed == 0,
              std::to_string(report.failed) + " syncs failed");
  report.Gate("mutations_ok", mutations_ok, "a mutation returned an error");
  report.Gate("warm_equals_cold_protocol", warm_vs_cold.empty(), warm_vs_cold);
  report.Gate("maintained_equals_cold_build", tables_vs_cold.empty(),
              tables_vs_cold);
  report.Gate("replay_matches_session", replay_ok,
              "a replayed server half failed, or negotiated or sent "
              "something else");
  if (options.trace) {
    const std::string shadow_diff =
        shadow->CompareWith(server->AcquireSnapshot()->sketches);
    report.Gate("trace_identity", trace_mismatch.empty(), trace_mismatch);
    report.Gate("trace_shadow_tables", shadow_diff.empty(), shadow_diff);
  }

  report.AddOutcome("failure_rate",
                    report.attempted ? static_cast<double>(report.failed) /
                                           static_cast<double>(report.attempted)
                                     : 0,
                    "ratio");
  report.AddOutcome("emd_ratio_p50", Median(ratios), "ratio");
  report.AddOutcome("serve_syncs_per_s",
                    replay_seconds > 0
                        ? static_cast<double>(replies) / replay_seconds
                        : 0,
                    "1/s");
  // Share of the closed loop's measured time (mutations plus sessions)
  // spent in SyncServer::Insert/Delete.
  double mutation_s = 0, session_s = 0;
  for (double us : mutation_us) mutation_s += us * 1e-6;
  for (double ms : samples.sync_ms) session_s += ms * 1e-3;
  report.AddOutcome("core.mutate.loop_share",
                    mutation_s > 0 ? mutation_s / (mutation_s + session_s) : 0,
                    "ratio");
  report.AddOutcome("mutation_us_p50", Quantile(mutation_us, 0.5), "us");
  report.AddOutcome("mutation_us_p99", Quantile(mutation_us, 0.99), "us");
  if (options.trace) {
    AddLayerMetrics(tracer.Summarize(), untraced_ms, &report);
  } else {
    AddSyncMetrics(samples, Median(setup_times), &report);
  }
  return report;
}

}  // namespace perfbench
