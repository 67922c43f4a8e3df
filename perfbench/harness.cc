#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kLshDraw: return "lsh.draw";
    case Layer::kLshBatch: return "lsh.batch";
    case Layer::kLshRow: return "lsh.row";
    case Layer::kLevelKeys: return "hashing.level_keys";
    case Layer::kSlotKeys: return "hashing.slot_keys";
    case Layer::kSketchUpdate: return "sketch.update";
    case Layer::kSketchFold: return "sketch.fold";
    case Layer::kSketchEstimate: return "sketch.estimate";
    case Layer::kSketchPeel: return "sketch.peel";
    case Layer::kWireEncode: return "wire.encode";
    case Layer::kWireDecode: return "wire.decode";
    case Layer::kEmdRepair: return "emd.repair";
    case Layer::kSetsReconcile: return "setsets.reconcile";
    case Layer::kCoreSnapshot: return "core.snapshot";
    case Layer::kCoreFarDetect: return "core.far_detect";
    case Layer::kCoreMutate: return "core.mutate";
    case Layer::kCoreServe: return "core.serve";
    case Layer::kCount: break;
  }
  return "?";
}

// ---- Tracer -----------------------------------------------------------------

Tracer::Span::Span(Tracer* tracer, Layer layer)
    : tracer_(tracer), index_(0) {
  if (tracer == nullptr) return;
  index_ = tracer->spans_.size();
  const int64_t parent =
      tracer->open_.empty() ? -1 : static_cast<int64_t>(tracer->open_.back());
  tracer->spans_.push_back(SpanRecord{layer, tracer->requests_.size() - 1,
                                      parent, Clock::now(), {}});
  tracer->open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end = Clock::now();
  tracer_->open_.pop_back();
}

void Tracer::BeginRequest(RequestKind kind) {
  requests_.push_back(RequestRecord{kind, Clock::now(), {}, 0, {}, {}, {}});
}

void Tracer::EndRequest() { requests_.back().end = Clock::now(); }

void Tracer::AddDerived(Layer layer, double ns) {
  requests_.back().derived[static_cast<size_t>(layer)] += ns;
  requests_.back().derived_calls[static_cast<size_t>(layer)] += 1;
  requests_.back().derived_ns += ns;
}

void Tracer::Count(Counter counter, double value) {
  requests_.back().counters[static_cast<size_t>(counter)] += value;
}

std::vector<Tracer::RequestTotals> Tracer::Summarize() const {
  auto ns = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::nano>(b - a).count();
  };
  std::vector<RequestTotals> totals(requests_.size());
  std::vector<double> covered(requests_.size(), 0);
  for (size_t r = 0; r < requests_.size(); ++r) {
    const RequestRecord& req = requests_[r];
    totals[r].kind = req.kind;
    totals[r].wall_ns = ns(req.start, req.end) + req.derived_ns;
    totals[r].counters = req.counters;
    totals[r].self_ns = req.derived;
    totals[r].calls = req.derived_calls;
  }
  auto hashes_points = [](Layer layer) {
    return layer == Layer::kLshDraw || layer == Layer::kLshBatch ||
           layer == Layer::kLshRow || layer == Layer::kLevelKeys ||
           layer == Layer::kSlotKeys;
  };
  for (const SpanRecord& span : spans_) {
    const double duration = ns(span.start, span.end);
    RequestTotals& t = totals[span.request];
    t.self_ns[static_cast<size_t>(span.layer)] += duration;
    t.calls[static_cast<size_t>(span.layer)] += 1;
    if (span.layer == Layer::kCoreServe) t.serve_ns += duration;
    if (hashes_points(span.layer)) {
      for (int64_t a = span.parent; a >= 0;
           a = spans_[static_cast<size_t>(a)].parent) {
        if (spans_[static_cast<size_t>(a)].layer == Layer::kCoreServe) {
          t.serve_hash_ns += duration;
          break;
        }
      }
    }
    if (span.parent < 0) {
      covered[span.request] += duration;
    } else {
      const SpanRecord& parent = spans_[static_cast<size_t>(span.parent)];
      t.self_ns[static_cast<size_t>(parent.layer)] -= duration;
    }
  }
  for (size_t r = 0; r < requests_.size(); ++r) {
    totals[r].residual_ns =
        ns(requests_[r].start, requests_[r].end) - covered[r];
  }
  return totals;
}

// ---- Results ----------------------------------------------------------------

void RunReport::Gate(const std::string& name, bool passed,
                     const std::string& detail) {
  gates.emplace_back(name, passed);
  if (!passed) gate_details.push_back(name + ": " + detail);
}

bool RunReport::correct() const {
  if (attempted == 0 || failed > 0 || gates.empty()) return false;
  return std::all_of(gates.begin(), gates.end(),
                     [](const auto& gate) { return gate.second; });
}

void AddSyncMetrics(const SyncSamples& samples, double setup_s,
                    RunReport* report) {
  const double syncs = static_cast<double>(samples.sync_ms.size());
  report->AddEndToEnd("sync_ms_p50", Quantile(samples.sync_ms, 0.5), "ms");
  report->AddEndToEnd("sync_ms_p90", Quantile(samples.sync_ms, 0.9), "ms");
  report->AddEndToEnd("syncs_per_s",
                      samples.loop_seconds > 0 ? syncs / samples.loop_seconds
                                               : 0,
                      "1/s");
  // Mean, not median: serve_churn alternates two difference sizes, and the
  // median of that two-mode sample sits between the modes, where it jumps
  // with their tails from run to run.
  double bytes = 0;
  for (double b : samples.bytes) bytes += b;
  report->AddEndToEnd("bytes_per_sync", syncs > 0 ? bytes / syncs : 0, "B");
  report->AddEndToEnd("rounds_per_sync", Median(samples.rounds), "msgs");
  const double attempted = static_cast<double>(report->attempted);
  report->AddEndToEnd(
      "success_rate",
      attempted > 0
          ? (attempted - static_cast<double>(report->failed)) / attempted
          : 0,
      "ratio");
  report->AddEndToEnd("setup_s", setup_s, "s");
  report->AddEndToEnd("peak_rss_mb", samples.peak_rss_mb, "MiB");
}

void AddLayerMetrics(const std::vector<Tracer::RequestTotals>& requests,
                     const std::vector<double>& untraced_ms,
                     RunReport* report) {
  std::vector<const Tracer::RequestTotals*> syncs, mutations;
  for (const auto& r : requests) {
    (r.kind == RequestKind::kSync ? syncs : mutations).push_back(&r);
  }
  const double num_syncs = static_cast<double>(syncs.size());
  auto add = [&](const std::string& name, double value, const char* unit) {
    report->per_layer.push_back({name, value, unit});
  };
  // Median over syncs of part(r) / r's wall time.
  auto share = [&](auto part) {
    std::vector<double> shares;
    for (const auto* r : syncs) {
      shares.push_back(r->wall_ns > 0 ? part(*r) / r->wall_ns : 0);
    }
    return Median(shares);
  };

  // Per sync: each layer's share of the sync's wall time (self time over
  // wall time, median over syncs) and its mean calls. Shares, not times:
  // a layer a workload never calls reads 0 there.
  for (size_t l = 0; l < kNumLayers; ++l) {
    const Layer layer = static_cast<Layer>(l);
    if (layer == Layer::kLshRow || layer == Layer::kCoreMutate) continue;
    double calls = 0;
    for (const auto* r : syncs) calls += r->calls[l];
    const std::string name = LayerName(layer);
    add(name + ".share",
        share([l](const Tracer::RequestTotals& r) { return r.self_ns[l]; }),
        "ratio");
    add(name + ".calls", num_syncs > 0 ? calls / num_syncs : 0, "count");
  }
  add("core.residual.share",
      share([](const Tracer::RequestTotals& r) { return r.residual_ns; }),
      "ratio");
  add("core.serve.total_share",
      share([](const Tracer::RequestTotals& r) { return r.serve_ns; }),
      "ratio");
  add("core.serve.hash_share",
      share([](const Tracer::RequestTotals& r) { return r.serve_hash_ns; }),
      "ratio");

  auto sum = [&](Counter c) {
    double total = 0;
    for (const auto* r : syncs) total += r->counters[static_cast<size_t>(c)];
    return total;
  };
  auto per_sync = [&](Counter c) {
    return num_syncs > 0 ? sum(c) / num_syncs : 0;
  };
  auto ratio = [&](Counter num, Counter den) {
    return sum(den) > 0 ? sum(num) / sum(den) : 0;
  };
  add("lsh.evals", per_sync(Counter::kLshEvals), "count");
  add("sketch.fold.cell_ratio",
      ratio(Counter::kFoldCells, Counter::kFoldCapCells), "ratio");
  add("sketch.peel.levels_tried", per_sync(Counter::kPeelLevelsTried),
      "count");
  add("sketch.peel.levels_decoded", per_sync(Counter::kPeelLevelsDecoded),
      "count");
  add("wire.bytes", per_sync(Counter::kWireBytes), "B");
  add("setsets.sig_attempts", per_sync(Counter::kSigAttempts), "count");
  add("setsets.elem_attempts", per_sync(Counter::kElemAttempts), "count");
  add("setsets.fallback_sets", per_sync(Counter::kFallbackSets), "count");
  add("setsets.full_transfers", per_sync(Counter::kFullTransfers), "count");
  add("core.snapshot.hit_ratio",
      ratio(Counter::kSnapshotHits, Counter::kSnapshotAcquires), "ratio");

  // Per mutation: the row path's layers, each as a share of the real
  // SyncServer call in the same request, median over the mutations that
  // call the layer.
  auto mutation_share = [&](Layer layer) {
    const size_t l = static_cast<size_t>(layer);
    const size_t mutate = static_cast<size_t>(Layer::kCoreMutate);
    std::vector<double> shares;
    for (const auto* r : mutations) {
      if (r->calls[l] > 0 && r->self_ns[mutate] > 0) {
        shares.push_back(r->self_ns[l] / r->self_ns[mutate]);
      }
    }
    return Median(shares);
  };
  add("lsh.row.mutation_share", mutation_share(Layer::kLshRow), "ratio");
  add("hashing.level_keys.mutation_share", mutation_share(Layer::kLevelKeys),
      "ratio");
  add("sketch.update.mutation_share", mutation_share(Layer::kSketchUpdate),
      "ratio");

  std::vector<double> traced_ms;
  for (const auto* r : syncs) traced_ms.push_back(r->wall_ns / 1e6);
  const double traced_p50 = Median(traced_ms);
  const double untraced_p50 = Median(untraced_ms);
  add("trace.sync_ms_p50", traced_p50, "ms");
  add("trace.untraced_sync_ms_p50", untraced_p50, "ms");
  add("trace.overhead_ratio", untraced_p50 > 0 ? traced_p50 / untraced_p50 : 0,
      "ratio");
}

}  // namespace perfbench
