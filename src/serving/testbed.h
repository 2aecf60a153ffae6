// Threaded testbed emulation: the wall-clock counterpart of the simulator.
//
// The simulator's event-queue shell (sim::EventShell) on the wall clock:
// one executor thread runs each event (a batch completing after its modeled
// compute time, readiness, re-polls, ticks, snapshots, faults) when its
// scaled time comes, sleeping then spinning the last stretch; the trace is
// replayed in (optionally compressed) real time.  Execution itself is the
// sim::ExecutorCore the simulator runs too, so the same Scheme
// implementations and executor logic run on both substrates, which is what
// the §5.2.1 calibration experiment compares.
//
// This header declares the shared config/result types and the trace-replay
// entry point; the machinery itself lives behind the LiveTestbed submission
// API in live_testbed.h so the src/net frontend can drive it over sockets.
//
// Threads and locking: one background thread, one mutex.  Every core call,
// scheme call and state change happens under the dispatch mutex, on the
// executor thread or on a caller's (a submission may start an idle
// instance's batch).  Frontend threads read load estimates lock-free.
#pragma once

#include "common/types.h"
#include "sim/executor.h"
#include "sim/scheme.h"
#include "trace/trace.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace arlo::serving {

/// The testbed's configuration: the shared executor knobs (see
/// sim::ExecutorConfig — batching, generative mode, telemetry, faults,
/// tenants) plus the knobs only a wall-clock run has.  Testbed notes on the
/// shared knobs: the telemetry sink must be Concurrency::kMultiThreaded
/// (submitting threads record too); batch re-polls, snapshots, fault-plan
/// events, retries and health checks run on the executor thread;
/// `resilience.shed_deadline` is ignored.
struct TestbedConfig : sim::ExecutorConfig {
  /// Wall-clock seconds per simulated second.  1.0 = real time; 0.1 runs
  /// 10x compressed (all compute times and delays shrink together, so
  /// relative behaviour is preserved up to OS timer precision).
  double time_scale = 1.0;
  /// Precision knob: the final stretch of each wait is busy-spun.
  SimDuration spin_threshold = Micros(200.0);

  /// Per-worker admission depth: a worker holding this many outstanding
  /// requests (queued + executing; waiting + resident in generative mode)
  /// refuses further dispatch, so the excess waits in the central buffer —
  /// which is where class-aware ordering lives.  Without a bound, schemes
  /// that never refuse (st/dt, the Request Scheduler's congestion
  /// fallback) sink the whole backlog into per-worker FIFOs and `tenants`
  /// ordering never engages.  0 = unbounded (the historical behaviour).
  int max_worker_queue = 0;

  /// Optional cooperative cancellation (not owned; may be null).  When it
  /// becomes true mid-replay, RunTestbed stops submitting further trace
  /// arrivals, drains what is in flight, and returns the partial result —
  /// the graceful-shutdown path examples/live_serving uses for SIGINT.
  const std::atomic<bool>* cancel = nullptr;

  /// Ascending length-bin upper bounds (normally the runtime set's
  /// BinUpperBounds()).  When non-empty, every submitted request is counted
  /// into its bin and /statusz exports the cumulative counts as
  /// "length_mix" — the per-node observation the cluster Runtime Scheduler
  /// aggregates into its demand model (docs/CONTROL_PLANE.md).  Lengths
  /// beyond the last bound land in the last bin.  Empty disables the export.
  std::vector<int> mix_bounds;
};

struct TestbedResult : sim::ExecutorCounters {
  std::vector<RequestRecord> records;  ///< times in simulated ns
  SimTime end_time = 0;
  int peak_workers = 0;
};

/// Replays the trace through the scheme on real threads.  Blocks until all
/// requests complete (or config.cancel fires and the in-flight tail
/// drains).  Implemented on top of LiveTestbed (live_testbed.h), which is
/// the open-ended submission API the src/net TCP frontend drives.
TestbedResult RunTestbed(const trace::Trace& trace, sim::Scheme& scheme,
                         const TestbedConfig& config = {});

}  // namespace arlo::serving
