// The benchmark's workloads (see perfbench/METRICS.md for what each one is
// for and which layer metric should move which end-to-end metric).
//
//   cluster-modelled   client -> Router -> 2 nodes x 3 GPUs, real time,
//                      ctrl loop on, open loop at 300 req/s
//   cluster-zero-gpu   client -> Router -> 2 nodes x 2 GPUs, time_scale 1e-3,
//                      batch 8; open loop at 20k req/s
//
// Each runs its open loop for --seconds, then closed loops of half that:
// cluster-zero-gpu one with 1 request outstanding (latency), both one with
// 64 outstanding per connection (peak_rps).
//
// The traced pass of cluster-modelled also probes the simulator layer:
// sim::RunScenario on the paper's Fig. 10b configuration.
//
// A node is LiveTestbed + net::Server + obs::AdminPlane with a frozen local
// allocation and a multi-threaded telemetry sink, all in this process.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct WorkloadArgs {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced pass: every request carries the trace flag and the Scheme /
  /// BatchPolicy decorators and the ctrl round timer record samples.
  bool traced = false;
  /// Full stack set-ups per pass; setup_s is their median.
  int setup_reps = 15;
};

struct WorkloadResult {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;  ///< filled on traced passes
  /// Sample counts and repetitions behind the metrics.
  std::map<std::string, double> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< refused + failed + unanswered
  /// Accounting-check failures; non-empty means the run is invalid.
  std::vector<std::string> violations;
  /// Chrome trace_event objects (comma-separated) of a bounded sample of
  /// traced requests, written out when the run ends.
  std::string trace_events;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every metric a run prints, in print order.  A layer a workload does not
/// have reports 0.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Runs one pass of the named workload.  Throws std::invalid_argument for
/// an unknown name.
WorkloadResult RunWorkload(const WorkloadArgs& args);

}  // namespace perfbench
