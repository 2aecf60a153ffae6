// Runs one workload of the benchmark and prints its result as the last line
// of standard output:
//
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// Untraced runs print the end-to-end metrics; traced runs (--trace=1) first
// repeat the workload untraced (the trace.overhead_frac baseline), then run
// it traced and print the per-layer metrics.  Accounting-check failures are
// listed on stderr and make the exit code 1.
//
//   arlo_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  [--spans=PATH]   (traced runs: Chrome trace of spans)
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/cli.h"
#include "workloads.h"

using namespace perfbench;

namespace {

void PrintMetrics(const std::vector<MetricSpec>& specs,
                  const std::map<std::string, double>& values,
                  std::vector<std::string>& violations, std::ostream& os) {
  os << "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values.find(specs[i].name);
    double value = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      violations.push_back(std::string("non-finite metric ") + specs[i].name);
      value = 0.0;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    os << (i ? ", " : "") << "\"" << specs[i].name << "\": {\"value\": "
       << number << ", \"unit\": \"" << specs[i].unit << "\"}";
  }
  os << "}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const arlo::CliFlags flags(argc, argv);
    WorkloadArgs args;
    args.name = flags.GetString("workload", "");
    args.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
    args.seconds = flags.GetDouble("seconds", 10.0);
    args.traced = flags.GetInt("trace", 0) != 0;
    const std::string spans_path = flags.GetString("spans", "");
    flags.RejectUnknown();
    if (args.seconds <= 0.0) {
      std::cerr << "--seconds must be positive\n";
      return 2;
    }

    WorkloadResult result;
    if (!args.traced) {
      result = RunWorkload(args);
    } else {
      // Only untraced runs print setup_s: one set-up per pass is enough.
      args.setup_reps = 1;
      WorkloadArgs baseline = args;
      baseline.traced = false;
      const WorkloadResult untraced = RunWorkload(baseline);
      result = RunWorkload(args);
      const double base_p50 = untraced.end_to_end.at("e2e_p50_ms");
      result.per_layer["trace.overhead_frac"] =
          base_p50 > 0 ? result.end_to_end.at("e2e_p50_ms") / base_p50 - 1.0
                       : 0.0;
      result.attempted += untraced.attempted;
      result.failed += untraced.failed;
      result.violations.insert(result.violations.end(),
                               untraced.violations.begin(),
                               untraced.violations.end());
      if (!spans_path.empty()) {
        std::ofstream spans(spans_path);
        spans << "{\"traceEvents\":[" << result.trace_events << "]}\n";
        if (!spans) {
          std::cerr << "cannot write " << spans_path << "\n";
          return 2;
        }
      }
    }

    std::ostringstream metrics;
    if (args.traced) {
      PrintMetrics(PerLayerMetrics(), result.per_layer, result.violations,
                   metrics);
    } else {
      PrintMetrics(EndToEndMetrics(), result.end_to_end, result.violations,
                   metrics);
    }
    std::cout << "{\"info\": {";
    const char* sep = "";
    for (const auto& [key, value] : result.info) {
      std::cout << sep << "\"" << key << "\": " << value;
      sep = ", ";
    }
    std::cout << "}}\n";
    for (const std::string& v : result.violations) {
      std::cerr << "accounting check failed: " << v << "\n";
    }
    std::cout << "{\"correct\": "
              << (result.violations.empty() ? "true" : "false")
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed
              << ", \"metrics\": " << metrics.str() << "}" << std::endl;
    return result.violations.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "arlo_perfbench: " << e.what() << "\n";
    return 2;
  }
}
