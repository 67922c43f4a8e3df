// Shared pieces of the reconciliation benchmark: options, timing, the
// in-memory span tracer, correctness gates and result output.
//
// The benchmark times calls into the library's public API only. Untraced
// runs call the protocol entry points (RunEmdProtocol, SyncSession::Run,
// RunGapProtocol) and report end-to-end metrics. Traced runs additionally
// re-run each sync through the public pieces of every layer, each call
// wrapped in a span, and report per-layer metrics; the tracer lives here,
// not in the library.
#ifndef RSR_PERFBENCH_HARNESS_H_
#define RSR_PERFBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// A handful of syncs per workload, every metric and gate still emitted.
  bool smoke = false;
  std::string commit = "none";
  std::string source = "none";
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set of this process, MiB.
double PeakRssMiB();

// ---- Tracing ----------------------------------------------------------------

/// Layers, named after the src/ modules whose public calls they time.
enum class Layer {
  kLshDraw,         // MakeEmdHashes / DrawMany: public-coin function draws
  kLshBatch,        // EvaluateAllInto
  kLshRow,          // EvaluateRowsInto on one appended row (mutations)
  kLevelKeys,       // ComputeEmdLevelKeysInto (PairwiseVectorHash prefixes)
  kSlotKeys,        // PairwiseVectorHash::EvalBatch (Gap key slots)
  kSketchUpdate,    // Riblt InsertMany / DeleteMany / Update
  kSketchFold,      // FoldEmdSketches
  kSketchEstimate,  // BuildLevelEstimators, NegotiateLevelCells
  kSketchPeel,      // Riblt::DecodeInto
  kWireEncode,      // WriteTo / WriteEstimators / WriteNegotiatedCells
  kWireDecode,      // ReadFrom / ReadEstimators / ReadNegotiatedCells
  kEmdRepair,       // DistanceMatrix + MinCostAssignment
  kSetsReconcile,   // ReconcileSetsOfSets
  kCoreSnapshot,    // SyncServer::AcquireSnapshot
  kCoreFarDetect,   // RunGapProtocol minus its timed children (derived)
  kCoreMutate,      // SyncServer::Insert / Delete (mutations)
  kCoreServe,       // the serving party's half of a sync (parent span)
  kCount
};
constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);
const char* LayerName(Layer layer);

enum class Counter {
  kLshEvals,          // rows x draws evaluated
  kFoldCells,         // negotiated cells folded to
  kFoldCapCells,      // cap cells folded from
  kPeelLevelsTried,
  kPeelLevelsDecoded,
  kWireBytes,
  kSigAttempts,
  kElemAttempts,
  kFallbackSets,
  kFullTransfers,
  kSnapshotAcquires,
  kSnapshotHits,
  kCount
};
constexpr size_t kNumCounters = static_cast<size_t>(Counter::kCount);

enum class RequestKind { kSync, kMutation };

/// In-memory span recorder. A request (one sync or one mutation) groups its
/// spans under one id; spans nest through a stack, and a layer's self time
/// is its span's duration minus the time its direct children cover. Spans
/// are kept until Summarize() folds them at the end of the run.
class Tracer {
 public:
  /// Times one call under `layer`; with a null tracer it records nothing,
  /// so shared code runs traced and untraced alike.
  class Span {
   public:
    Span(Tracer* tracer, Layer layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    size_t index_;
  };

  void BeginRequest(RequestKind kind);
  void EndRequest();
  /// A span known only by subtraction (core.far_detect): adds `ns` of self
  /// time to the open request and extends its wall time by the same amount.
  void AddDerived(Layer layer, double ns);
  void Count(Counter counter, double value);

  struct RequestTotals {
    RequestKind kind = RequestKind::kSync;
    double wall_ns = 0;
    double residual_ns = 0;  // wall time not covered by a top-level span
    double serve_ns = 0;        // inclusive time of core.serve spans
    double serve_hash_ns = 0;   // lsh.* and hashing.* time inside them
    std::array<double, kNumLayers> self_ns{};
    std::array<double, kNumLayers> calls{};
    std::array<double, kNumCounters> counters{};
  };
  /// Per-request totals of every closed request, in order.
  std::vector<RequestTotals> Summarize() const;

 private:
  struct SpanRecord {
    Layer layer;
    size_t request;
    int64_t parent;  // index into spans_, -1 for a top-level span
    Clock::time_point start, end;
  };
  struct RequestRecord {
    RequestKind kind;
    Clock::time_point start, end;
    double derived_ns = 0;
    std::array<double, kNumLayers> derived{};
    std::array<double, kNumLayers> derived_calls{};
    std::array<double, kNumCounters> counters{};
  };
  std::vector<SpanRecord> spans_;
  std::vector<RequestRecord> requests_;
  std::vector<size_t> open_;
};

// ---- Results ----------------------------------------------------------------

struct MetricValue {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One workload run's outcome: counts, gates and metrics. An untraced run
/// fills end_to_end, a traced run per_layer; both fill outcomes, the
/// workload-specific results (quality, server half, mutations) that main()
/// prints on every run and emits with the per-layer metrics.
struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> gates;
  std::vector<std::string> gate_details;
  std::vector<MetricValue> end_to_end;
  std::vector<MetricValue> per_layer;
  std::vector<MetricValue> outcomes;
  /// One-line description of the workload's input shape.
  std::string shape;
  /// Wire codec of the workload's exchanges.
  std::string codec;

  void Gate(const std::string& name, bool passed, const std::string& detail);
  bool correct() const;
  void AddEndToEnd(const std::string& name, double value,
                   const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void AddOutcome(const std::string& name, double value,
                  const std::string& unit) {
    outcomes.push_back({name, value, unit});
  }
};

/// The end-to-end metrics every workload reports, from the untraced sync
/// loop's samples and counts.
struct SyncSamples {
  std::vector<double> sync_ms;
  std::vector<double> bytes;
  std::vector<double> rounds;
  double loop_seconds = 0;
  /// Peak resident set when the timed loop ends, before the verification
  /// that follows it.
  double peak_rss_mb = 0;
};
void AddSyncMetrics(const SyncSamples& samples, double setup_s,
                    RunReport* report);

/// Per-layer metrics from a traced run. `untraced_ms` are the untraced
/// samples taken in the same run, for the tracing overhead.
void AddLayerMetrics(const std::vector<Tracer::RequestTotals>& requests,
                     const std::vector<double>& untraced_ms,
                     RunReport* report);

/// Workload entry points (workload_*.cc).
RunReport RunEmdOneshot(const Options& options);
RunReport RunServeChurn(const Options& options);
RunReport RunGapHamming(const Options& options);

}  // namespace perfbench

#endif  // RSR_PERFBENCH_HARNESS_H_
