// Reconciliation benchmark entry point: runs one workload, prints its result.
//
//   perfbench --workload <emd_oneshot|serve_churn|gap_hamming> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke]
//             [--commit <id>] [--source <digest>]
//
// Standard output: a context line (host and build), the workload's shape,
// every metric as "metric <name> <value> <unit>", the correctness gates,
// and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones plus the workload outcomes. Exit code 0 unless the
// arguments are invalid; a failed gate is reported as "correct": false.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"
#include "lsh/batch_kernels.h"
#include "util/cpu_features.h"

namespace perfbench {
namespace {

/// Outcome metrics every traced run emits; 0 where the workload has no such
/// outcome (no server half, no EMD or Gap output). The mutation latencies
/// are printed but not emitted: a time that reads 0 on the workloads
/// without mutations would read the same on every run.
const std::pair<const char*, const char*> kOutcomes[] = {
    {"failure_rate", "ratio"},
    {"emd_ratio_p50", "ratio"},
    {"gap_violation_rate", "ratio"},
    {"serve_syncs_per_s", "1/s"},
    {"core.mutate.loop_share", "ratio"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options->trace = value == "1";
    } else if (arg == "--commit") {
      options->commit = value;
    } else if (arg == "--source") {
      options->source = value;
    } else {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <emd_oneshot|serve_churn|"
                 "gap_hamming> --seed <n> --seconds <s> --trace <0|1> "
                 "[--smoke]\n");
    return 2;
  }
  RunReport (*run)(const Options&) = nullptr;
  if (options.workload == "emd_oneshot") run = RunEmdOneshot;
  if (options.workload == "serve_churn") run = RunServeChurn;
  if (options.workload == "gap_hamming") run = RunGapHamming;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }

  RunReport report = run(options);
  std::printf(
      "context {\"nproc\": %u, \"cpu\": %s, \"kernel\": %s, "
      "\"build_type\": %s, \"commit\": %s, \"source\": %s, "
      "\"workload\": %s, \"codec\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"smoke\": %d}\n",
      std::thread::hardware_concurrency(),
      JsonString(rsr::CpuFeatureString()).c_str(),
      JsonString(rsr::lsh_internal::ActiveBatchKernelName()).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(options.commit).c_str(), JsonString(options.source).c_str(),
      JsonString(options.workload).c_str(), JsonString(report.codec).c_str(),
      static_cast<unsigned long long>(options.seed),
      JsonNumber(options.seconds).c_str(), options.trace ? 1 : 0,
      options.smoke ? 1 : 0);

  std::vector<MetricValue> metrics;
  if (options.trace) {
    metrics = report.per_layer;
    for (const auto& [name, unit] : kOutcomes) {
      double value = 0;
      for (const MetricValue& m : report.outcomes) {
        if (m.name == name) value = m.value;
      }
      metrics.push_back({name, value, unit});
    }
  } else {
    metrics = report.end_to_end;
  }

  std::printf("shape %s\n", report.shape.c_str());
  for (const MetricValue& m : report.end_to_end) {
    std::printf("metric %s %s %s\n", m.name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  for (const MetricValue& m : report.outcomes) {
    std::printf("outcome %s %s %s\n", m.name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  for (const MetricValue& m : report.per_layer) {
    std::printf("layer %s %s %s\n", m.name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  std::string gates = "gates {";
  for (size_t i = 0; i < report.gates.size(); ++i) {
    gates += (i ? ", " : "") + JsonString(report.gates[i].first) + ": " +
             (report.gates[i].second ? "true" : "false");
  }
  std::printf("%s}\n", gates.c_str());
  for (const std::string& detail : report.gate_details) {
    std::printf("gate failed: %s\n", detail.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + JsonString(metrics[i].name) +
            ": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
