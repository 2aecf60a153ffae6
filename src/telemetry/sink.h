// TelemetrySink: the single object a run threads through the serving stack.
// It owns the metrics registry, the request-lifecycle tracer, and the
// periodic time-series snapshotter, and exposes one small method per
// instrumentation site so call sites stay one-liners.
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

/// Stable pointers to the standard serving metrics, pre-registered at sink
/// construction so the hot path never performs a registry lookup.
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

/// Stable pointers to the TCP-frontend metrics (src/net; see
/// docs/NETWORKING.md).  Zero-valued in runs without a network frontend.
struct NetMetrics {
  Counter* connections_total = nullptr;
  Counter* accepted = nullptr;
  Counter* rejected_rate = nullptr;
  Counter* rejected_inflight = nullptr;
  Counter* shed_deadline = nullptr;
  Counter* shed_class = nullptr;  ///< class-overload sheds (docs/TENANTS.md)
  Counter* bytes_in = nullptr;
  Counter* bytes_out = nullptr;
  Gauge* open_connections = nullptr;
  /// Wall-clock ns a request spent in the frontend beyond its (scaled)
  /// modeled backend latency: socket I/O, framing, the dispatch lock.
  LatencyHistogram* frontend_overhead_ns = nullptr;
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

/// Stable pointers to the router-tier metrics (src/cluster; see
/// docs/CLUSTER.md).  Zero-valued in runs without a router.
struct ClusterMetrics {
  Counter* routed = nullptr;          ///< submits forwarded to a backend
  Counter* replies = nullptr;         ///< backend replies relayed to clients
  Counter* retries = nullptr;         ///< re-routes after a node died mid-flight
  Counter* no_node = nullptr;         ///< explicit sheds: no routable backend
  Counter* evictions = nullptr;       ///< nodes evicted on probe failure
  Counter* joins = nullptr;           ///< nodes joined (incl. resurrections)
  Counter* drains = nullptr;          ///< graceful drains initiated
  Counter* probe_failures = nullptr;  ///< individual failed admin probes
  Gauge* nodes_routable = nullptr;
  Gauge* inflight = nullptr;  ///< router-side in-flight across all nodes
  /// Submit forwarded to final reply, as seen by the router (wall ns).
  LatencyHistogram* route_latency_ns = nullptr;
};

/// Stable pointers to the cluster control-plane metrics (src/ctrl; see
/// docs/CONTROL_PLANE.md).  Zero-valued in runs without a cluster Runtime
/// Scheduler.
struct CtrlMetrics {
  Counter* scrapes = nullptr;          ///< scrape rounds completed
  Counter* scrape_failures = nullptr;  ///< individual unreachable nodes
  Counter* replans = nullptr;          ///< KS gate opened -> target re-solved
  Counter* replans_skipped = nullptr;  ///< gate closed: mix within threshold
  Counter* deltas_shipped = nullptr;   ///< POST /realloc deltas sent
  Counter* deltas_applied = nullptr;   ///< deltas the node accepted
  Counter* deltas_rejected = nullptr;  ///< 409s (retried after the next scrape)
  Gauge* last_ks_millionths = nullptr; ///< last KS statistic x 1e6
  LatencyHistogram* solve_ns = nullptr;  ///< target-allocation solve wall time
  LatencyHistogram* apply_ns = nullptr;  ///< POST /realloc round-trip wall time
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

  // --- TCP frontend (src/net; see docs/NETWORKING.md) --------------------
  void RecordNetConnOpened(SimTime now, std::int64_t open_connections);
  void RecordNetConnClosed(SimTime now, std::int64_t open_connections);
  void RecordNetBytes(std::uint64_t bytes_in, std::uint64_t bytes_out);
  /// A SubmitRequest passed admission and is handed to the dispatcher.
  void RecordNetAccepted(const Request& request, SimTime now);
  /// A SubmitRequest was rejected; `reason` is one of "rate", "inflight",
  /// "deadline", "class-overload".  Deadline sheds and class sheds
  /// additionally flow through RecordShed so the fault-layer shed accounting
  /// covers the frontend.
  void RecordNetRejected(const Request& request, SimTime now,
                         const char* reason);
  void RecordNetFrontendOverhead(std::int64_t wall_ns);

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

  // --- cluster router (src/cluster; see docs/CLUSTER.md) -----------------
  /// `count` submits were forwarded to backend `node`; also bumps the
  /// lazily registered arlo_cluster_node_routed_total{node="i"} counter.
  void RecordClusterRouted(int node, std::uint64_t count = 1);
  /// A backend reply was relayed; `wall_ns` spans forward to reply and also
  /// lands in the per-node route-latency histogram.
  void RecordClusterReply(int node, std::int64_t wall_ns);
  void RecordClusterRetry();
  void RecordClusterNoNode();
  void RecordClusterEviction(int node);
  void RecordClusterJoin(int node);
  void RecordClusterDrain(int node);
  void RecordClusterProbeFailure(int node);
  void SetClusterNodeGauges(std::int64_t routable, std::int64_t inflight);

  // --- cluster control plane (src/ctrl; see docs/CONTROL_PLANE.md) -------
  /// One scrape round finished: `ok` nodes answered, `failed` did not.
  void RecordCtrlScrape(int ok, int failed);
  /// The drift gate's decision for this round.  `ks` is the two-sample KS
  /// statistic; `replanned` is whether it crossed the threshold and the
  /// target allocation was re-solved (taking `solve_wall_ns`).
  void RecordCtrlGate(SimTime now, double ks, bool replanned,
                      std::int64_t solve_wall_ns);
  /// One per-node delta shipped via POST /realloc.  `applied` is the node's
  /// verdict; `apply_wall_ns` the HTTP round-trip.
  void RecordCtrlDelta(SimTime now, int node, bool applied,
                       std::int64_t apply_wall_ns);

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
  const NetMetrics& Net() const { return net_; }
  const BatchMetrics& Batch() const { return batch_; }
  const GenerativeMetrics& Gen() const { return gen_; }
  const ClusterMetrics& Cluster() const { return cluster_; }
  const CtrlMetrics& Ctrl() const { return ctrl_; }
  const TelemetryConfig& Config() const { return config_; }

 private:
  Gauge* QueueDepthGauge(RuntimeId level);
  Counter* NodeRoutedCounter(int node);
  LatencyHistogram* NodeRouteLatency(int node);
  /// Folds tracer_.Dropped() into arlo_trace_dropped_total (delta since the
  /// last sync) so every export sees the current drop count.
  void SyncTraceDropped() const;

  TelemetryConfig config_;
  MetricsRegistry registry_;
  TraceRecorder tracer_;
  ServingMetrics serving_;
  NetMetrics net_;
  BatchMetrics batch_;
  GenerativeMetrics gen_;
  ClusterMetrics cluster_;
  CtrlMetrics ctrl_;

  std::vector<TelemetryObserver*> observers_;
  std::vector<TenantClassMetrics> tenant_;  // index = class id; empty = off

  std::mutex levels_mu_;
  std::vector<Gauge*> queue_depth_;  // index = level

  std::mutex nodes_mu_;
  std::vector<Counter*> node_routed_;           // index = node
  std::vector<LatencyHistogram*> node_route_;  // index = node

  /// index = Stage value; nullptr = family disabled (EnableStageMetrics).
  std::array<LatencyHistogram*, kNumStages> stage_{};
  Counter* trace_dropped_ = nullptr;
  mutable std::mutex trace_dropped_mu_;
  mutable std::uint64_t trace_dropped_synced_ = 0;

  mutable std::mutex rows_mu_;
  std::vector<SnapshotRow> rows_;
};

}  // namespace arlo::telemetry
