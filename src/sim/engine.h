// The discrete-event cluster simulation engine.
//
// Drives a request trace through a Scheme on simulated time.  Execution
// itself — dispatch, batching, faults, records — is the ExecutorCore
// (executor.h) the threaded testbed shares; the engine is its event-queue
// shell: arrivals, scheme ticks, telemetry snapshots, batch re-poll timers,
// instance provisioning delays (~1 s, §4) and completion events.  The core
// also integrates the consumed GPU count over time for the auto-scaling
// experiment (Fig. 8).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/executor.h"
#include "sim/scheme.h"
#include "sim/timeline.h"
#include "trace/trace.h"

namespace arlo::sim {

/// The simulator's configuration: the shared executor knobs (see
/// ExecutorConfig) plus the knobs only a simulated run has.
struct EngineConfig : ExecutorConfig {
  /// Hard wall on simulated time; a scenario exceeding it throws (guards
  /// against schemes that stop serving entirely).
  SimTime max_sim_time = Seconds(24.0 * 3600.0);
  /// Keep per-request records (disable only for huge smoke runs).
  bool collect_records = true;
  /// Optional per-second time-series collector (not owned; must outlive the
  /// run).  Receives arrivals, completions, GPU-count changes, and
  /// outstanding-work peaks.
  TimelineRecorder* timeline = nullptr;

  /// Legacy fault injection (§3.4 motivation: "idiosyncratic factors such as
  /// failures and bugs lead to imbalanced load").  When > 0, instances
  /// crash at exponential cluster-wide inter-failure times with this mean;
  /// a crashed instance vanishes instantly, its queued and in-flight
  /// requests are re-dispatched through the scheme, and recovery is the
  /// scheme's job (re-allocation / auto-scaling).  Schemes must implement
  /// OnInstanceFailure.  A `fault_plan` supersedes both knobs.
  double mean_time_between_failures_s = 0.0;
  std::uint64_t fault_seed = 1;
};

struct EngineResult : ExecutorCounters {
  std::vector<RequestRecord> records;
  SimTime end_time = 0;              ///< completion time of the last request
  double time_weighted_gpus = 0.0;   ///< mean #instances over the run
  int peak_gpus = 0;
  std::uint64_t buffered_requests = 0;  ///< times a request could not be
                                        ///< dispatched immediately
  double gpu_busy_fraction = 0.0;    ///< aggregate compute utilization
  std::uint64_t sheds = 0;            ///< buffered requests past shed deadline
  std::uint64_t gen_tokens = 0;       ///< output tokens emitted
  /// Requests rejected by deadline shedding (dispatch == start == completion
  /// == shed time; runtime/instance invalid).  Disjoint from `records`.
  std::vector<RequestRecord> shed_records;
};

/// Runs the trace to completion under the scheme.  Deterministic.
EngineResult RunScenario(const trace::Trace& trace, Scheme& scheme,
                         const EngineConfig& config = {});

}  // namespace arlo::sim
