// TelemetrySink: the single object a run threads through the serving stack.
// It owns the metrics registry, the request-lifecycle tracer, and the
// periodic time-series snapshotter, and exposes one small method per
// serving-core instrumentation site so call sites stay one-liners.
//
// The process tiers around the core (net::Server, cluster::Router and its
// NodePool, ctrl::ClusterScheduler) register their own metric structs on
// Registry() and record into them directly; their Stats accessors read the
// same counters back, so /metrics and Stats cannot disagree.
//
// The null sink is a null pointer: every instrumented site is guarded by
// `if (sink)`, so a run without telemetry does no work and no allocation on
// the record path.  The engine drives snapshots on simulated time; the
// testbed drives them from a wall-clock thread — both call Snapshot(now)
// with their own notion of now, and rows land in one CSV-exportable series.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "telemetry/metrics.h"
#include "telemetry/stages.h"
#include "telemetry/trace_recorder.h"

namespace arlo::telemetry {

struct TelemetryConfig {
  /// Snapshot cadence for the CSV time series (simulated time in the
  /// engine, scaled wall time in the testbed).
  SimDuration snapshot_period = Seconds(1.0);
  /// Stamped into exports; seed it from the scenario seed so identically
  /// seeded runs serialize identically.
  std::uint64_t run_id = 0;
  /// kMultiThreaded for the testbed, kSingleThreaded for the simulator
  /// (both are correct everywhere; this only tunes sharding cost).
  Concurrency concurrency = Concurrency::kSingleThreaded;
  /// Per-request queue/service spans in the Chrome trace.  Disable for huge
  /// runs where only metrics and control-plane events are wanted.
  bool trace_requests = true;
  /// Bounds the tracer's in-memory event buffer; once full the oldest event
  /// is dropped per new event.  0 = unbounded (historical behavior).  See
  /// docs/OBSERVABILITY.md for choosing a cap on long testbed runs.
  std::size_t max_trace_events = 0;
};

/// Stable pointers to the standard serving metrics, registered by
/// EnableServingMetrics so the hot path never performs a registry lookup.
struct ServingMetrics {
  Counter* enqueued = nullptr;
  Counter* completed = nullptr;
  Counter* buffered = nullptr;
  Counter* demotions = nullptr;
  Counter* fallbacks = nullptr;
  Counter* launches = nullptr;
  Counter* retirements = nullptr;
  Counter* failures = nullptr;
  Counter* faults_injected = nullptr;
  Counter* retries = nullptr;
  Counter* requeues = nullptr;
  Counter* sheds = nullptr;
  Counter* replacements = nullptr;
  Counter* allocation_solves = nullptr;
  Counter* autoscale_out = nullptr;
  Counter* autoscale_in = nullptr;
  Gauge* instances = nullptr;
  Gauge* outstanding = nullptr;
  Gauge* buffer_depth = nullptr;
  LatencyHistogram* e2e_latency_ns = nullptr;
  LatencyHistogram* queue_delay_ns = nullptr;
  LatencyHistogram* service_time_ns = nullptr;
  LatencyHistogram* dispatch_cost_ns = nullptr;
  LatencyHistogram* allocation_solve_ns = nullptr;
};

/// Stable pointers to the dynamic-batching metrics (src/batch; see
/// docs/BATCHING.md).  Zero-valued in batch-1 runs.
struct BatchMetrics {
  Counter* batches_formed = nullptr;
  /// Batches that executed because their wait budget expired rather than
  /// because they filled (SloDeadlineBatcher).
  Counter* batch_timeouts = nullptr;
  /// True request tokens served, vs tokens the kernels actually computed
  /// (bucket slots x padded length).  1 - useful/computed is the padding
  /// waste fraction.
  Counter* tokens_useful = nullptr;
  Counter* tokens_computed = nullptr;
  LatencyHistogram* batch_size = nullptr;
  /// Oldest member's queue wait when its batch launched.
  LatencyHistogram* batch_wait_ns = nullptr;
};

/// Stable pointers to the generative-serving metrics (src/batch continuous
/// batching + the runtime decode phase; see docs/GENERATIVE.md).
/// Zero-valued in one-shot runs.
struct GenerativeMetrics {
  Counter* prefill_iterations = nullptr;
  Counter* decode_iterations = nullptr;
  /// Output tokens emitted (prefill first-tokens + decode-step tokens).
  Counter* tokens = nullptr;
  /// Residents evicted (recompute-style) to admit a waiting prompt.
  Counter* preemptions = nullptr;
  Gauge* kv_resident = nullptr;  ///< resident sequences across instances
  Gauge* kv_capacity = nullptr;  ///< aggregate KV capacity (sequences)
  LatencyHistogram* ttft_ns = nullptr;  ///< arrival to first output token
  LatencyHistogram* itl_ns = nullptr;   ///< per-token inter-token latency
};

/// Stable pointers to one tenant class's metrics (src/tenant; see
/// docs/TENANTS.md).  The family is opt-in via EnableTenantMetrics so
/// single-tenant runs export exactly the historical metric set.
struct TenantClassMetrics {
  Counter* accepted = nullptr;   ///< admitted by the frontend
  Counter* rejected = nullptr;   ///< rejected (any retryable reason)
  Counter* shed = nullptr;       ///< dropped (deadline or class policy)
  Counter* completed = nullptr;  ///< served to completion
  LatencyHistogram* e2e_latency_ns = nullptr;
};

/// One row of the periodic time series (cumulative values as of `time_s`).
struct SnapshotRow {
  double time_s = 0.0;
  std::uint64_t enqueued = 0;
  std::uint64_t completed = 0;
  std::uint64_t buffered = 0;
  std::int64_t instances = 0;
  std::int64_t outstanding = 0;
  std::int64_t buffer_depth = 0;
  std::uint64_t demotions = 0;
  double e2e_p50_ms = 0.0;
  double e2e_p98_ms = 0.0;
};

/// Receives a fan-out of selected sink events as they are recorded — the
/// hook the obs SLO monitor and dump triggers ride on.  Callbacks run on
/// the recording thread with no sink lock held; implementations must be
/// thread-safe and cheap.
class TelemetryObserver {
 public:
  virtual ~TelemetryObserver() = default;
  virtual void OnComplete(const RequestRecord& /*record*/) {}
  virtual void OnShed(const Request& /*request*/, SimTime /*now*/) {}
  virtual void OnInstanceFailure(SimTime /*now*/, InstanceId /*instance*/) {}
};

class TelemetrySink {
 public:
  explicit TelemetrySink(TelemetryConfig config = {});

  /// Registers an observer for completion/shed/failure fan-out.  Not
  /// synchronized with the record path: add observers before the run starts.
  void AddObserver(TelemetryObserver* observer);

  /// Registers the serving core's families (Serving, Batch, Gen).  Every
  /// serving-core Record*/Set* method and Snapshot need it.  Idempotent;
  /// sim::ExecutorCore and net::Server call it when given a sink, so a sink
  /// only a router or a ctrl plane records into exports none of them.  Call
  /// before the run starts, like AddObserver.
  void EnableServingMetrics();

  // --- request lifecycle -------------------------------------------------
  void RecordEnqueue(const Request& request, SimTime now);
  void RecordBuffered(const Request& request, SimTime now);
  void RecordDispatch(const Request& request, SimTime now,
                      InstanceId instance, RuntimeId runtime);
  /// Wall-clock cost of one scheduling decision (metrics only — never
  /// traced, so trace output stays deterministic across runs).
  void RecordDispatchCost(std::int64_t wall_ns);
  /// Algorithm 1 took a non-ideal path for this request.
  void RecordDemotion(const Request& request, SimTime now, int ideal_level,
                      int chosen_level);
  void RecordFallback(const Request& request, SimTime now);
  void RecordComplete(const RequestRecord& record);

  // --- control plane -----------------------------------------------------
  void RecordInstanceLaunch(SimTime now, InstanceId instance,
                            RuntimeId runtime);
  void RecordInstanceReady(SimTime now, InstanceId instance,
                           RuntimeId runtime);
  void RecordInstanceRetired(SimTime now, InstanceId instance);
  void RecordInstanceFailure(SimTime now, InstanceId instance);

  // --- fault injection & recovery (src/fault; see docs/FAULTS.md) --------
  /// A hang fault froze the instance for `duration`.
  void RecordFaultHang(SimTime now, InstanceId instance, SimDuration duration);
  /// A slowdown fault stretches the instance's service times by `factor`.
  void RecordFaultSlowdown(SimTime now, InstanceId instance,
                           SimDuration duration, double factor);
  /// A hang/slowdown window elapsed and the instance resumed normal service.
  void RecordFaultRecover(SimTime now, InstanceId instance);
  /// A dispatch attempt failed transiently; retry `attempt` (1-based) is
  /// scheduled after `backoff`.
  void RecordRetry(const Request& request, SimTime now, int attempt,
                   SimDuration backoff);
  /// A request was drained off a crashed/reaped instance and requeued.
  void RecordRequeue(const Request& request, SimTime now, InstanceId from);
  /// A buffered request exceeded the shed deadline and was rejected.
  void RecordShed(const Request& request, SimTime now);
  void RecordReplacement(SimTime now, InstanceId victim, RuntimeId to);
  /// A periodic allocation solve: wall time goes to metrics only; the
  /// deterministic facts (GPUs, replacement moves) go to the trace.
  void RecordAllocationSolve(SimTime now, std::int64_t solve_wall_ns,
                             int gpus, int diff_moves);
  void RecordAutoscale(SimTime now, bool scale_out, int gpus_after);

  // --- dynamic batching (src/batch; see docs/BATCHING.md) ----------------
  /// An executor formed and launched a batch of `size` requests on
  /// `instance`.  `useful_tokens`/`computed_tokens` come from
  /// batch::BatchPaddingTokens; `oldest_wait` is the head request's queue
  /// time; `timed_out` marks wait-budget expiry.  Emits a trace instant
  /// only for real batches (size >= 2), keeping batch-1 traces identical.
  void RecordBatchFormed(SimTime now, InstanceId instance, int size,
                         std::int64_t useful_tokens,
                         std::int64_t computed_tokens, SimDuration oldest_wait,
                         bool timed_out);

  // --- generative serving (src/batch continuous; docs/GENERATIVE.md) -----
  /// A prefill iteration launched: `batch` prompts admitted, `preempted`
  /// residents evicted to make room.  Emits a trace instant (generative
  /// runs only, so one-shot traces stay byte-identical).
  void RecordGenPrefill(SimTime now, InstanceId instance, int batch,
                        int preempted, SimDuration duration);
  /// A decode iteration completed: `batch` resident sequences each emitted
  /// one token after `step` — recorded per token into the inter-token
  /// latency histogram.  No trace instant: one per token would swamp the
  /// trace buffer.
  void RecordGenDecodeStep(SimTime now, InstanceId instance, int batch,
                           SimDuration step);
  /// A sequence emitted its first output token `ttft` after arrival.
  void RecordGenFirstToken(const Request& request, SimTime now,
                           SimDuration ttft);
  void SetGenKvGauges(std::int64_t resident, std::int64_t capacity);

  // --- multi-tenant SLO classes (src/tenant; see docs/TENANTS.md) --------
  /// Registers the arlo_tenant_* metric family, one set per class name in
  /// table order.  Call before the run starts (same discipline as
  /// AddObserver); without this call every RecordTenant* below is a no-op
  /// and the exported metric set is byte-identical to single-tenant builds.
  void EnableTenantMetrics(const std::vector<std::string>& class_names);
  void RecordTenantAccepted(int cls);
  void RecordTenantRejected(int cls);
  void RecordTenantShed(int cls);
  /// Per-class metrics, or nullptr when disabled / out of range.
  /// Completions are recorded automatically by RecordComplete from the
  /// record's tenant_class.
  const TenantClassMetrics* Tenant(int cls) const;

  // --- cross-hop stage tracing (docs/OBSERVABILITY.md) -------------------
  /// Registers the arlo_stage_latency_ns{stage="..."} histogram family for
  /// the seven node stages (plus the router stages when `include_router`).
  /// Idempotent; call before the run starts, same discipline as
  /// EnableTenantMetrics.  Without this call RecordStageSpan and
  /// RecordStageTimeline are no-ops and the exported metric set is
  /// byte-identical to pre-tracing builds.
  void EnableStageMetrics(bool include_router);
  bool StageMetricsEnabled() const { return stage_[0] != nullptr; }
  /// One attributed span into its per-stage latency histogram (no trace
  /// event — timelines are emitted whole via RecordStageTimeline).
  void RecordStageSpan(StageSpan span);
  /// A complete assembled timeline for one traced request: every span lands
  /// in its stage histogram and, when request tracing is on, the timeline is
  /// emitted into the Chrome trace as a parent "request" span with the stage
  /// spans tiled inside it in the given order, starting at `base_ts_ns` on a
  /// lane derived from `request_id` (so concurrent traced requests render on
  /// a bounded set of distinct lanes).
  void RecordStageTimeline(std::uint64_t request_id,
                           const std::vector<StageSpan>& spans,
                           std::int64_t e2e_ns, std::int64_t base_ts_ns);
  /// Per-stage {count, p50_ns, p98_ns} summary as one JSON object — the
  /// "stages" block of /statusz and /fleetz.  Emits only enabled stages;
  /// "{}" when stage metrics are off.
  void WriteStageSummaryJson(json::Writer& w) const;

  // --- gauges ------------------------------------------------------------
  void SetClusterGauges(std::int64_t instances, std::int64_t outstanding,
                        std::int64_t buffer_depth);
  /// Per-level outstanding depth of the multi-level queue
  /// (arlo_queue_depth{level="k"}).  Levels are registered lazily.
  void AddQueueDepth(RuntimeId level, std::int64_t delta);

  // --- snapshots ---------------------------------------------------------
  SimDuration SnapshotPeriod() const { return config_.snapshot_period; }
  /// Captures one time-series row at `now`.
  void Snapshot(SimTime now);
  std::vector<SnapshotRow> SnapshotRows() const;

  // --- export ------------------------------------------------------------
  void WriteChromeTrace(std::ostream& os) const { tracer_.WriteJson(os); }
  void WritePrometheus(std::ostream& os) const;
  void WriteJson(std::ostream& os) const;
  void WriteCsv(std::ostream& os) const;

  MetricsRegistry& Registry() { return registry_; }
  const MetricsRegistry& Registry() const { return registry_; }
  TraceRecorder& Tracer() { return tracer_; }
  const TraceRecorder& Tracer() const { return tracer_; }
  const ServingMetrics& Serving() const { return serving_; }
  const BatchMetrics& Batch() const { return batch_; }
  const GenerativeMetrics& Gen() const { return gen_; }
  const TelemetryConfig& Config() const { return config_; }

 private:
  Gauge* QueueDepthGauge(RuntimeId level);
  /// Folds tracer_.Dropped() into arlo_trace_dropped_total (delta since the
  /// last sync) so every export sees the current drop count.
  void SyncTraceDropped() const;

  TelemetryConfig config_;
  MetricsRegistry registry_;
  TraceRecorder tracer_;
  ServingMetrics serving_;
  BatchMetrics batch_;
  GenerativeMetrics gen_;

  std::vector<TelemetryObserver*> observers_;
  std::vector<TenantClassMetrics> tenant_;  // index = class id; empty = off

  std::mutex levels_mu_;
  std::vector<Gauge*> queue_depth_;  // index = level

  /// index = Stage value; nullptr = family disabled (EnableStageMetrics).
  std::array<LatencyHistogram*, kNumStages> stage_{};
  Counter* trace_dropped_ = nullptr;
  mutable std::mutex trace_dropped_mu_;
  mutable std::uint64_t trace_dropped_synced_ = 0;

  mutable std::mutex rows_mu_;
  std::vector<SnapshotRow> rows_;
};

}  // namespace arlo::telemetry
