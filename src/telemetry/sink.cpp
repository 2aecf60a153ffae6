#include "telemetry/sink.h"

#include <ostream>

#include "common/json.h"
#include "telemetry/exporters.h"

namespace arlo::telemetry {

TelemetrySink::TelemetrySink(TelemetryConfig config)
    : config_(config),
      registry_(config.concurrency),
      tracer_(config.run_id, config.max_trace_events) {
  serving_.enqueued = registry_.GetCounter(
      "arlo_requests_enqueued_total", "Requests that arrived at the frontend");
  serving_.completed = registry_.GetCounter(
      "arlo_requests_completed_total", "Requests served to completion");
  serving_.buffered = registry_.GetCounter(
      "arlo_requests_buffered_total",
      "Arrivals that could not be dispatched immediately");
  serving_.demotions = registry_.GetCounter(
      "arlo_dispatch_demotions_total",
      "Dispatches served by a non-ideal (larger) runtime (Algorithm 1)");
  serving_.fallbacks = registry_.GetCounter(
      "arlo_dispatch_fallbacks_total",
      "Dispatches that took the Algorithm 1 fallback path");
  serving_.launches = registry_.GetCounter(
      "arlo_instance_launches_total", "Instance provisioning starts");
  serving_.retirements = registry_.GetCounter(
      "arlo_instance_retirements_total", "Instances fully drained and retired");
  serving_.failures = registry_.GetCounter(
      "arlo_instance_failures_total", "Abrupt instance crashes (fault injection)");
  serving_.faults_injected = registry_.GetCounter(
      "arlo_faults_injected_total",
      "Fault-plan activations applied (crashes, hangs, slowdowns)");
  serving_.retries = registry_.GetCounter(
      "arlo_retries_total",
      "Dispatch attempts that failed transiently and were retried with backoff");
  serving_.requeues = registry_.GetCounter(
      "arlo_requeues_total",
      "Requests drained off a crashed/reaped instance and requeued");
  serving_.sheds = registry_.GetCounter(
      "arlo_sheds_total",
      "Buffered requests rejected past the shed deadline (load shedding)");
  serving_.replacements = registry_.GetCounter(
      "arlo_replacements_total",
      "Instance replacements executed from re-allocation plans");
  serving_.allocation_solves = registry_.GetCounter(
      "arlo_allocation_solves_total", "Periodic ILP/allocation solves");
  serving_.autoscale_out = registry_.GetCounter(
      "arlo_autoscale_out_total", "Scale-out decisions");
  serving_.autoscale_in = registry_.GetCounter(
      "arlo_autoscale_in_total", "Scale-in decisions");
  serving_.instances = registry_.GetGauge(
      "arlo_instances", "Active + provisioning instances");
  serving_.outstanding = registry_.GetGauge(
      "arlo_outstanding_requests", "Dispatched but not yet completed requests");
  serving_.buffer_depth = registry_.GetGauge(
      "arlo_buffer_depth", "Arrivals waiting for a dispatchable instance");
  serving_.e2e_latency_ns = registry_.GetHistogram(
      "arlo_e2e_latency_ns", "End-to-end request latency");
  serving_.queue_delay_ns = registry_.GetHistogram(
      "arlo_queue_delay_ns", "Arrival to execution start");
  serving_.service_time_ns = registry_.GetHistogram(
      "arlo_service_time_ns", "Execution start to completion");
  serving_.dispatch_cost_ns = registry_.GetHistogram(
      "arlo_dispatch_cost_ns",
      "Wall-clock cost of one scheduling decision (Fig. 9 quantity)");
  serving_.allocation_solve_ns = registry_.GetHistogram(
      "arlo_allocation_solve_ns", "Wall-clock cost of one allocation solve");
  net_.connections_total = registry_.GetCounter(
      "arlo_net_connections_total", "TCP connections accepted by the frontend");
  net_.accepted = registry_.GetCounter(
      "arlo_net_accepted_total",
      "SubmitRequests admitted and handed to the dispatcher");
  net_.rejected_rate = registry_.GetCounter(
      "arlo_net_rejected_rate_total",
      "SubmitRequests rejected by the token-bucket rate limit");
  net_.rejected_inflight = registry_.GetCounter(
      "arlo_net_rejected_inflight_total",
      "SubmitRequests rejected at the inflight cap");
  net_.shed_deadline = registry_.GetCounter(
      "arlo_net_shed_deadline_total",
      "SubmitRequests early-shed: estimated delay exceeded the deadline");
  net_.shed_class = registry_.GetCounter(
      "arlo_net_shed_class_total",
      "SubmitRequests shed by a tenant class's overload policy");
  net_.bytes_in = registry_.GetCounter(
      "arlo_net_bytes_in_total", "Bytes read from client sockets");
  net_.bytes_out = registry_.GetCounter(
      "arlo_net_bytes_out_total", "Bytes written to client sockets");
  net_.open_connections = registry_.GetGauge(
      "arlo_net_open_connections", "Currently connected clients");
  net_.frontend_overhead_ns = registry_.GetHistogram(
      "arlo_net_frontend_overhead_ns",
      "Wall ns in the frontend beyond the scaled modeled backend latency");
  batch_.batches_formed = registry_.GetCounter(
      "arlo_batches_formed_total", "Batches formed and launched by executors");
  batch_.batch_timeouts = registry_.GetCounter(
      "arlo_batch_timeouts_total",
      "Batches launched because their wait budget expired before filling");
  batch_.tokens_useful = registry_.GetCounter(
      "arlo_batch_tokens_useful_total",
      "True request tokens served in batches");
  batch_.tokens_computed = registry_.GetCounter(
      "arlo_batch_tokens_computed_total",
      "Tokens actually computed (bucket slots x padded length); "
      "1 - useful/computed = padding waste fraction");
  batch_.batch_size = registry_.GetHistogram(
      "arlo_batch_size", "Requests per launched batch");
  batch_.batch_wait_ns = registry_.GetHistogram(
      "arlo_batch_wait_ns", "Oldest member's queue wait at batch launch");
  gen_.prefill_iterations = registry_.GetCounter(
      "arlo_gen_prefill_iterations_total",
      "Prefill iterations launched by continuous/static generative batchers");
  gen_.decode_iterations = registry_.GetCounter(
      "arlo_gen_decode_iterations_total",
      "Decode iterations (one token per resident sequence each)");
  gen_.tokens = registry_.GetCounter(
      "arlo_gen_tokens_total", "Output tokens emitted (prefill + decode)");
  gen_.preemptions = registry_.GetCounter(
      "arlo_gen_preemptions_total",
      "Resident sequences evicted (recompute-style) to admit a prompt");
  gen_.kv_resident = registry_.GetGauge(
      "arlo_gen_kv_resident",
      "Resident generative sequences across all instances");
  gen_.kv_capacity = registry_.GetGauge(
      "arlo_gen_kv_capacity",
      "Aggregate KV-cache capacity in resident sequences");
  gen_.ttft_ns = registry_.GetHistogram(
      "arlo_gen_ttft_ns", "Arrival to first output token (time-to-first-token)");
  gen_.itl_ns = registry_.GetHistogram(
      "arlo_gen_itl_ns", "Per-token inter-token latency of decode steps");
  cluster_.routed = registry_.GetCounter(
      "arlo_cluster_routed_total",
      "SubmitRequests forwarded to a backend node by the router");
  cluster_.replies = registry_.GetCounter(
      "arlo_cluster_replies_total", "Backend replies relayed to clients");
  cluster_.retries = registry_.GetCounter(
      "arlo_cluster_retries_total",
      "In-flight requests re-routed after their node died");
  cluster_.no_node = registry_.GetCounter(
      "arlo_cluster_no_node_total",
      "Requests explicitly shed because no backend node was routable");
  cluster_.evictions = registry_.GetCounter(
      "arlo_cluster_evictions_total", "Nodes evicted on probe failure");
  cluster_.joins = registry_.GetCounter(
      "arlo_cluster_joins_total", "Nodes joined into the pool");
  cluster_.drains = registry_.GetCounter(
      "arlo_cluster_drains_total", "Graceful node drains initiated");
  cluster_.probe_failures = registry_.GetCounter(
      "arlo_cluster_probe_failures_total",
      "Individual failed admin-plane probes (N consecutive evict a node)");
  cluster_.nodes_routable = registry_.GetGauge(
      "arlo_cluster_nodes_routable", "Backend nodes accepting new routes");
  cluster_.inflight = registry_.GetGauge(
      "arlo_cluster_inflight",
      "Router-side in-flight requests across all nodes");
  cluster_.route_latency_ns = registry_.GetHistogram(
      "arlo_cluster_route_latency_ns",
      "Submit forwarded to final reply, as seen by the router");
  ctrl_.scrapes = registry_.GetCounter(
      "arlo_ctrl_scrapes_total",
      "Cluster Runtime Scheduler scrape rounds completed");
  ctrl_.scrape_failures = registry_.GetCounter(
      "arlo_ctrl_scrape_failures_total",
      "Individual nodes unreachable during a scrape round");
  ctrl_.replans = registry_.GetCounter(
      "arlo_ctrl_replans_total",
      "Drift gate openings: target cluster allocation re-solved");
  ctrl_.replans_skipped = registry_.GetCounter(
      "arlo_ctrl_replans_skipped_total",
      "Scrape rounds where the KS gate stayed closed (mix within threshold)");
  ctrl_.deltas_shipped = registry_.GetCounter(
      "arlo_ctrl_deltas_shipped_total",
      "Per-node allocation deltas shipped via POST /realloc");
  ctrl_.deltas_applied = registry_.GetCounter(
      "arlo_ctrl_deltas_applied_total", "Deltas the node accepted");
  ctrl_.deltas_rejected = registry_.GetCounter(
      "arlo_ctrl_deltas_rejected_total",
      "Deltas the node rejected with 409 (retried after the next scrape)");
  ctrl_.last_ks_millionths = registry_.GetGauge(
      "arlo_ctrl_last_ks_millionths",
      "Last two-sample KS drift statistic, in millionths");
  ctrl_.solve_ns = registry_.GetHistogram(
      "arlo_ctrl_solve_ns", "Target cluster-allocation solve wall time");
  ctrl_.apply_ns = registry_.GetHistogram(
      "arlo_ctrl_apply_ns", "POST /realloc round-trip wall time");
  trace_dropped_ = registry_.GetCounter(
      "arlo_trace_dropped_total",
      "Trace events evicted oldest-first because the recorder buffer was at "
      "max_trace_events (silent truncation made visible)");
}

void TelemetrySink::RecordCtrlScrape(int ok, int failed) {
  ctrl_.scrapes->Add();
  if (failed > 0) {
    ctrl_.scrape_failures->Add(static_cast<std::uint64_t>(failed));
  }
  (void)ok;
}

void TelemetrySink::RecordCtrlGate(SimTime now, double ks, bool replanned,
                                   std::int64_t solve_wall_ns) {
  ctrl_.last_ks_millionths->Set(static_cast<std::int64_t>(ks * 1e6));
  if (replanned) {
    ctrl_.replans->Add();
    ctrl_.solve_ns->Record(solve_wall_ns);
  } else {
    ctrl_.replans_skipped->Add();
  }
  if (config_.trace_requests) {
    tracer_.Instant("ctrl_gate", "ctrl", now, 0,
                    {{"ks_millionths", static_cast<std::int64_t>(ks * 1e6)},
                     {"replanned", replanned ? 1 : 0}});
  }
}

void TelemetrySink::RecordCtrlDelta(SimTime now, int node, bool applied,
                                    std::int64_t apply_wall_ns) {
  ctrl_.deltas_shipped->Add();
  if (applied) {
    ctrl_.deltas_applied->Add();
  } else {
    ctrl_.deltas_rejected->Add();
  }
  ctrl_.apply_ns->Record(apply_wall_ns);
  if (config_.trace_requests) {
    tracer_.Instant("ctrl_delta", "ctrl", now, node,
                    {{"applied", applied ? 1 : 0}});
  }
}

void TelemetrySink::RecordBatchFormed(SimTime now, InstanceId instance,
                                      int size, std::int64_t useful_tokens,
                                      std::int64_t computed_tokens,
                                      SimDuration oldest_wait,
                                      bool timed_out) {
  batch_.batches_formed->Add();
  if (timed_out) batch_.batch_timeouts->Add();
  batch_.batch_size->Record(size);
  batch_.batch_wait_ns->Record(oldest_wait);
  if (useful_tokens > 0) {
    batch_.tokens_useful->Add(static_cast<std::uint64_t>(useful_tokens));
  }
  if (computed_tokens > 0) {
    batch_.tokens_computed->Add(static_cast<std::uint64_t>(computed_tokens));
  }
  // Batch-1 launches stay out of the trace so batch-1 runs keep their
  // historical (byte-identical) trace output.
  if (config_.trace_requests && size >= 2) {
    // wait_ns lives in the arlo_batch_wait_ns histogram; the event sticks
    // to TraceRecorder::kMaxArgs deterministic facts.
    tracer_.Instant("batch_formed", "batch", now,
                    static_cast<std::int64_t>(instance),
                    {{"size", size},
                     {"useful_tokens", useful_tokens},
                     {"computed_tokens", computed_tokens},
                     {"timed_out", timed_out ? 1 : 0}});
  }
}

void TelemetrySink::RecordGenPrefill(SimTime now, InstanceId instance,
                                     int batch, int preempted,
                                     SimDuration duration) {
  gen_.prefill_iterations->Add();
  if (preempted > 0) {
    gen_.preemptions->Add(static_cast<std::uint64_t>(preempted));
  }
  if (config_.trace_requests) {
    tracer_.Instant("gen_prefill", "generative", now,
                    static_cast<std::int64_t>(instance),
                    {{"batch", batch},
                     {"preempted", preempted},
                     {"duration_ns", duration}});
  }
}

void TelemetrySink::RecordGenDecodeStep(SimTime now, InstanceId instance,
                                        int batch, SimDuration step) {
  (void)now;
  (void)instance;
  gen_.decode_iterations->Add();
  gen_.tokens->Add(static_cast<std::uint64_t>(batch));
  for (int i = 0; i < batch; ++i) gen_.itl_ns->Record(step);
}

void TelemetrySink::RecordGenFirstToken(const Request& request, SimTime now,
                                        SimDuration ttft) {
  (void)request;
  (void)now;
  gen_.tokens->Add();
  gen_.ttft_ns->Record(ttft);
}

void TelemetrySink::SetGenKvGauges(std::int64_t resident,
                                   std::int64_t capacity) {
  gen_.kv_resident->Set(resident);
  gen_.kv_capacity->Set(capacity);
}

void TelemetrySink::RecordEnqueue(const Request& request, SimTime now) {
  (void)request;
  (void)now;
  serving_.enqueued->Add();
}

void TelemetrySink::RecordBuffered(const Request& request, SimTime now) {
  serving_.buffered->Add();
  if (config_.trace_requests) {
    tracer_.Instant("buffered", "request", now, TraceRecorder::kControlLane,
                    {{"id", static_cast<std::int64_t>(request.id)},
                     {"length", request.length}});
  }
}

void TelemetrySink::RecordDispatch(const Request& request, SimTime now,
                                   InstanceId instance, RuntimeId runtime) {
  (void)request;
  (void)now;
  (void)instance;
  // Depth is balanced against RecordComplete via the record's immutable
  // runtime id — instance replacement between dispatch and completion must
  // not leak a gauge increment.
  AddQueueDepth(runtime, +1);
  // The dispatch→completion span is emitted from RecordComplete, where the
  // full lifecycle is known; nothing to trace yet.
}

void TelemetrySink::RecordDispatchCost(std::int64_t wall_ns) {
  serving_.dispatch_cost_ns->Record(wall_ns);
}

void TelemetrySink::RecordDemotion(const Request& request, SimTime now,
                                   int ideal_level, int chosen_level) {
  serving_.demotions->Add();
  if (config_.trace_requests) {
    tracer_.Instant("demotion", "scheduler", now, TraceRecorder::kControlLane,
                    {{"id", static_cast<std::int64_t>(request.id)},
                     {"length", request.length},
                     {"ideal_level", ideal_level},
                     {"chosen_level", chosen_level}});
  }
}

void TelemetrySink::RecordFallback(const Request& request, SimTime now) {
  (void)request;
  (void)now;
  serving_.fallbacks->Add();
}

void TelemetrySink::RecordComplete(const RequestRecord& record) {
  serving_.completed->Add();
  AddQueueDepth(record.runtime, -1);
  serving_.e2e_latency_ns->Record(record.Latency());
  serving_.queue_delay_ns->Record(record.QueueingDelay());
  serving_.service_time_ns->Record(record.ServiceTime());
  if (const TenantClassMetrics* t = Tenant(record.tenant_class)) {
    t->completed->Add();
    t->e2e_latency_ns->Record(record.Latency());
  }
  if (config_.trace_requests) {
    // Two spans on the serving instance's lane: waiting (arrival→start) and
    // executing (start→completion).
    tracer_.Complete("queued", "request", record.arrival,
                     record.start - record.arrival,
                     static_cast<std::int64_t>(record.instance),
                     {{"id", static_cast<std::int64_t>(record.id)},
                      {"length", record.length}});
    tracer_.Complete("service", "request", record.start,
                     record.completion - record.start,
                     static_cast<std::int64_t>(record.instance),
                     {{"id", static_cast<std::int64_t>(record.id)},
                      {"length", record.length},
                      {"runtime", static_cast<std::int64_t>(record.runtime)},
                      {"stream", record.stream}});
  }
  for (TelemetryObserver* o : observers_) o->OnComplete(record);
}

void TelemetrySink::AddObserver(TelemetryObserver* observer) {
  observers_.push_back(observer);
}

void TelemetrySink::RecordInstanceLaunch(SimTime now, InstanceId instance,
                                         RuntimeId runtime) {
  serving_.launches->Add();
  tracer_.Instant("instance_launch", "cluster", now,
                  static_cast<std::int64_t>(instance),
                  {{"runtime", static_cast<std::int64_t>(runtime)}});
}

void TelemetrySink::RecordInstanceReady(SimTime now, InstanceId instance,
                                        RuntimeId runtime) {
  tracer_.Instant("instance_ready", "cluster", now,
                  static_cast<std::int64_t>(instance),
                  {{"runtime", static_cast<std::int64_t>(runtime)}});
}

void TelemetrySink::RecordInstanceRetired(SimTime now, InstanceId instance) {
  serving_.retirements->Add();
  tracer_.Instant("instance_retired", "cluster", now,
                  static_cast<std::int64_t>(instance));
}

void TelemetrySink::RecordInstanceFailure(SimTime now, InstanceId instance) {
  serving_.failures->Add();
  serving_.faults_injected->Add();
  tracer_.Instant("instance_failure", "fault", now,
                  static_cast<std::int64_t>(instance));
  for (TelemetryObserver* o : observers_) o->OnInstanceFailure(now, instance);
}

void TelemetrySink::RecordFaultHang(SimTime now, InstanceId instance,
                                    SimDuration duration) {
  serving_.faults_injected->Add();
  tracer_.Instant("fault_hang", "fault", now,
                  static_cast<std::int64_t>(instance),
                  {{"dur_ns", duration}});
}

void TelemetrySink::RecordFaultSlowdown(SimTime now, InstanceId instance,
                                        SimDuration duration, double factor) {
  serving_.faults_injected->Add();
  tracer_.Instant("fault_slowdown", "fault", now,
                  static_cast<std::int64_t>(instance),
                  {{"dur_ns", duration},
                   {"factor_pct",
                    static_cast<std::int64_t>(factor * 100.0 + 0.5)}});
}

void TelemetrySink::RecordFaultRecover(SimTime now, InstanceId instance) {
  tracer_.Instant("fault_recover", "fault", now,
                  static_cast<std::int64_t>(instance));
}

void TelemetrySink::RecordRetry(const Request& request, SimTime now,
                                int attempt, SimDuration backoff) {
  serving_.retries->Add();
  if (config_.trace_requests) {
    tracer_.Instant("retry", "fault", now, TraceRecorder::kControlLane,
                    {{"id", static_cast<std::int64_t>(request.id)},
                     {"attempt", attempt},
                     {"backoff_ns", backoff}});
  }
}

void TelemetrySink::RecordRequeue(const Request& request, SimTime now,
                                  InstanceId from) {
  serving_.requeues->Add();
  if (config_.trace_requests) {
    tracer_.Instant("requeue", "fault", now, static_cast<std::int64_t>(from),
                    {{"id", static_cast<std::int64_t>(request.id)}});
  }
}

void TelemetrySink::RecordShed(const Request& request, SimTime now) {
  serving_.sheds->Add();
  RecordTenantShed(request.tenant_class);
  if (config_.trace_requests) {
    tracer_.Instant("shed", "fault", now, TraceRecorder::kControlLane,
                    {{"id", static_cast<std::int64_t>(request.id)},
                     {"waited_ns", now - request.arrival}});
  }
  for (TelemetryObserver* o : observers_) o->OnShed(request, now);
}

void TelemetrySink::RecordNetConnOpened(SimTime now,
                                        std::int64_t open_connections) {
  net_.connections_total->Add();
  net_.open_connections->Set(open_connections);
  tracer_.Instant("conn-open", "net", now, TraceRecorder::kControlLane,
                  {{"open", open_connections}});
}

void TelemetrySink::RecordNetConnClosed(SimTime now,
                                        std::int64_t open_connections) {
  net_.open_connections->Set(open_connections);
  tracer_.Instant("conn-close", "net", now, TraceRecorder::kControlLane,
                  {{"open", open_connections}});
}

void TelemetrySink::RecordNetBytes(std::uint64_t bytes_in,
                                   std::uint64_t bytes_out) {
  if (bytes_in > 0) net_.bytes_in->Add(bytes_in);
  if (bytes_out > 0) net_.bytes_out->Add(bytes_out);
}

void TelemetrySink::RecordNetAccepted(const Request& request, SimTime now) {
  (void)request;
  (void)now;
  net_.accepted->Add();
}

void TelemetrySink::RecordNetRejected(const Request& request, SimTime now,
                                      const char* reason) {
  // TraceArg values are numeric, so the reason rides along as a code:
  // 1=rate, 2=inflight, 4=deadline, 5=class-overload (3 was the retired
  // submission-queue-full reject).
  const std::string_view r(reason);
  std::int64_t code = 0;
  if (r == "rate") {
    net_.rejected_rate->Add();
    code = 1;
  } else if (r == "inflight") {
    net_.rejected_inflight->Add();
    code = 2;
  } else if (r == "deadline") {
    net_.shed_deadline->Add();
    code = 4;
  } else if (r == "class-overload") {
    net_.shed_class->Add();
    code = 5;
  }
  if (config_.trace_requests) {
    tracer_.Instant("net-reject", "net", now, TraceRecorder::kControlLane,
                    {{"id", static_cast<std::int64_t>(request.id)},
                     {"length", request.length},
                     {"reason", code}});
  }
}

void TelemetrySink::RecordNetFrontendOverhead(std::int64_t wall_ns) {
  net_.frontend_overhead_ns->Record(wall_ns);
}

void TelemetrySink::RecordReplacement(SimTime now, InstanceId victim,
                                      RuntimeId to) {
  serving_.replacements->Add();
  tracer_.Instant("replacement", "scheduler", now,
                  TraceRecorder::kControlLane,
                  {{"victim", static_cast<std::int64_t>(victim)},
                   {"to_runtime", static_cast<std::int64_t>(to)}});
}

void TelemetrySink::RecordAllocationSolve(SimTime now,
                                          std::int64_t solve_wall_ns,
                                          int gpus, int diff_moves) {
  serving_.allocation_solves->Add();
  serving_.allocation_solve_ns->Record(solve_wall_ns);
  // Wall time deliberately omitted from the trace: it varies run to run and
  // would break byte-identical traces for identically seeded simulations.
  tracer_.Instant("allocation_solve", "scheduler", now,
                  TraceRecorder::kControlLane,
                  {{"gpus", gpus}, {"moves", diff_moves}});
}

void TelemetrySink::RecordAutoscale(SimTime now, bool scale_out,
                                    int gpus_after) {
  (scale_out ? serving_.autoscale_out : serving_.autoscale_in)->Add();
  tracer_.Instant(scale_out ? "autoscale_out" : "autoscale_in", "scheduler",
                  now, TraceRecorder::kControlLane,
                  {{"gpus_after", gpus_after}});
}

void TelemetrySink::SetClusterGauges(std::int64_t instances,
                                     std::int64_t outstanding,
                                     std::int64_t buffer_depth) {
  serving_.instances->Set(instances);
  serving_.outstanding->Set(outstanding);
  serving_.buffer_depth->Set(buffer_depth);
}

Counter* TelemetrySink::NodeRoutedCounter(int node) {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  const auto index = static_cast<std::size_t>(node);
  if (node_routed_.size() <= index) node_routed_.resize(index + 1, nullptr);
  if (node_routed_[index] == nullptr) {
    node_routed_[index] = registry_.GetCounter(
        "arlo_cluster_node_routed_total{node=\"" + std::to_string(node) +
            "\"}",
        "SubmitRequests routed to one backend node");
  }
  return node_routed_[index];
}

LatencyHistogram* TelemetrySink::NodeRouteLatency(int node) {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  const auto index = static_cast<std::size_t>(node);
  if (node_route_.size() <= index) node_route_.resize(index + 1, nullptr);
  if (node_route_[index] == nullptr) {
    node_route_[index] = registry_.GetHistogram(
        "arlo_cluster_node_route_latency_ns{node=\"" + std::to_string(node) +
            "\"}",
        "Per-node submit-to-reply latency as seen by the router");
  }
  return node_route_[index];
}

void TelemetrySink::RecordClusterRouted(int node, std::uint64_t count) {
  cluster_.routed->Add(count);
  if (node >= 0) NodeRoutedCounter(node)->Add(count);
}

void TelemetrySink::RecordClusterReply(int node, std::int64_t wall_ns) {
  cluster_.replies->Add();
  cluster_.route_latency_ns->Record(wall_ns);
  if (node >= 0) NodeRouteLatency(node)->Record(wall_ns);
}

void TelemetrySink::RecordClusterRetry() { cluster_.retries->Add(); }

void TelemetrySink::RecordClusterNoNode() { cluster_.no_node->Add(); }

void TelemetrySink::RecordClusterEviction(int node) {
  (void)node;
  cluster_.evictions->Add();
}

void TelemetrySink::RecordClusterJoin(int node) {
  (void)node;
  cluster_.joins->Add();
}

void TelemetrySink::RecordClusterDrain(int node) {
  (void)node;
  cluster_.drains->Add();
}

void TelemetrySink::RecordClusterProbeFailure(int node) {
  (void)node;
  cluster_.probe_failures->Add();
}

void TelemetrySink::SetClusterNodeGauges(std::int64_t routable,
                                         std::int64_t inflight) {
  cluster_.nodes_routable->Set(routable);
  cluster_.inflight->Set(inflight);
}

void TelemetrySink::EnableTenantMetrics(
    const std::vector<std::string>& class_names) {
  tenant_.clear();
  tenant_.reserve(class_names.size());
  for (const std::string& name : class_names) {
    const std::string label = "{class=\"" + name + "\"}";
    TenantClassMetrics m;
    m.accepted = registry_.GetCounter(
        "arlo_tenant_accepted_total" + label,
        "SubmitRequests admitted for one tenant class");
    m.rejected = registry_.GetCounter(
        "arlo_tenant_rejected_total" + label,
        "SubmitRequests rejected (retryable) for one tenant class");
    m.shed = registry_.GetCounter(
        "arlo_tenant_shed_total" + label,
        "Requests dropped (deadline or overload policy) for one tenant class");
    m.completed = registry_.GetCounter(
        "arlo_tenant_completed_total" + label,
        "Requests served to completion for one tenant class");
    m.e2e_latency_ns = registry_.GetHistogram(
        "arlo_tenant_e2e_latency_ns" + label,
        "End-to-end latency for one tenant class");
    tenant_.push_back(m);
  }
}

const TenantClassMetrics* TelemetrySink::Tenant(int cls) const {
  if (cls < 0 || cls >= static_cast<int>(tenant_.size())) return nullptr;
  return &tenant_[static_cast<std::size_t>(cls)];
}

void TelemetrySink::RecordTenantAccepted(int cls) {
  if (const TenantClassMetrics* t = Tenant(cls)) t->accepted->Add();
}

void TelemetrySink::RecordTenantRejected(int cls) {
  if (const TenantClassMetrics* t = Tenant(cls)) t->rejected->Add();
}

void TelemetrySink::RecordTenantShed(int cls) {
  if (const TenantClassMetrics* t = Tenant(cls)) t->shed->Add();
}

void TelemetrySink::EnableStageMetrics(bool include_router) {
  const int limit = include_router ? kNumStages : kNumNodeStages;
  for (int i = 0; i < limit; ++i) {
    if (stage_[static_cast<std::size_t>(i)] != nullptr) continue;
    const auto stage = static_cast<Stage>(i);
    stage_[static_cast<std::size_t>(i)] = registry_.GetHistogram(
        std::string("arlo_stage_latency_ns{stage=\"") + StageName(stage) +
            "\"}",
        "Wall ns attributed to one pipeline stage of traced requests");
  }
}

void TelemetrySink::RecordStageSpan(StageSpan span) {
  const auto index = static_cast<std::size_t>(span.stage);
  if (index >= stage_.size() || stage_[index] == nullptr) return;
  stage_[index]->Record(span.dur_ns);
}

void TelemetrySink::RecordStageTimeline(std::uint64_t request_id,
                                        const std::vector<StageSpan>& spans,
                                        std::int64_t e2e_ns,
                                        std::int64_t base_ts_ns) {
  for (const StageSpan& span : spans) RecordStageSpan(span);
  if (!config_.trace_requests || spans.empty()) return;
  // Dedicated negative lane block (-2..-17) so traced-request timelines
  // never collide with instance lanes (>= 0) or kControlLane (-1).  Hashing
  // keeps concurrent requests on mostly distinct lanes while bounding the
  // lane count in week-long runs.
  const std::int64_t lane =
      -2 - static_cast<std::int64_t>(TraceHash(request_id) % 16);
  tracer_.Complete("request", "trace", base_ts_ns, e2e_ns, lane,
                   {{"request_id", static_cast<std::int64_t>(request_id)},
                    {"spans", static_cast<std::int64_t>(spans.size())}});
  std::int64_t cursor = base_ts_ns;
  for (const StageSpan& span : spans) {
    tracer_.Complete(StageName(span.stage), "trace", cursor, span.dur_ns,
                     lane,
                     {{"request_id", static_cast<std::int64_t>(request_id)}});
    cursor += span.dur_ns;
  }
}

void TelemetrySink::WriteStageSummaryJson(json::Writer& w) const {
  w.BeginObject();
  for (std::size_t i = 0; i < stage_.size(); ++i) {
    const LatencyHistogram* h = stage_[i];
    if (h == nullptr) continue;
    w.Key(StageName(static_cast<Stage>(i))).BeginObject();
    w.Field("count", h->Count()).Field("p50_ns", h->Quantile(0.50));
    w.Field("p98_ns", h->Quantile(0.98)).EndObject();
  }
  w.EndObject();
}

void TelemetrySink::SyncTraceDropped() const {
  const std::uint64_t dropped = tracer_.Dropped();
  std::lock_guard<std::mutex> lock(trace_dropped_mu_);
  if (dropped > trace_dropped_synced_) {
    trace_dropped_->Add(dropped - trace_dropped_synced_);
    trace_dropped_synced_ = dropped;
  }
}

Gauge* TelemetrySink::QueueDepthGauge(RuntimeId level) {
  std::lock_guard<std::mutex> lock(levels_mu_);
  if (queue_depth_.size() <= level) queue_depth_.resize(level + 1, nullptr);
  if (queue_depth_[level] == nullptr) {
    queue_depth_[level] = registry_.GetGauge(
        "arlo_queue_depth{level=\"" + std::to_string(level) + "\"}",
        "Outstanding requests at one multi-level-queue level");
  }
  return queue_depth_[level];
}

void TelemetrySink::AddQueueDepth(RuntimeId level, std::int64_t delta) {
  // Records that never reached an instance (sheds, synthetic completions)
  // carry kInvalidRuntime; there is no per-level gauge to move for them.
  if (level == kInvalidRuntime) return;
  QueueDepthGauge(level)->Add(delta);
}

void TelemetrySink::Snapshot(SimTime now) {
  SnapshotRow row;
  row.time_s = ToSeconds(now);
  row.enqueued = serving_.enqueued->Value();
  row.completed = serving_.completed->Value();
  row.buffered = serving_.buffered->Value();
  row.instances = serving_.instances->Value();
  row.outstanding = serving_.outstanding->Value();
  row.buffer_depth = serving_.buffer_depth->Value();
  row.demotions = serving_.demotions->Value();
  row.e2e_p50_ms =
      static_cast<double>(serving_.e2e_latency_ns->Quantile(0.50)) / 1e6;
  row.e2e_p98_ms =
      static_cast<double>(serving_.e2e_latency_ns->Quantile(0.98)) / 1e6;
  std::lock_guard<std::mutex> lock(rows_mu_);
  rows_.push_back(row);
}

std::vector<SnapshotRow> TelemetrySink::SnapshotRows() const {
  std::lock_guard<std::mutex> lock(rows_mu_);
  return rows_;
}

void TelemetrySink::WritePrometheus(std::ostream& os) const {
  SyncTraceDropped();
  WritePrometheusText(registry_, os);
}

void TelemetrySink::WriteJson(std::ostream& os) const {
  SyncTraceDropped();
  WriteJsonSnapshot(registry_, tracer_.RunId(), os);
}

void TelemetrySink::WriteCsv(std::ostream& os) const {
  WriteCsvTimeSeries(SnapshotRows(), os);
}

}  // namespace arlo::telemetry
