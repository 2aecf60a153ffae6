// Pins the metric families each process kind exports on /metrics: every
// "# HELP" and "# TYPE" line of a node's sink (LiveTestbed + net::Server)
// and of a router's sink (Router + ClusterScheduler), after a few requests
// went client -> router -> node -> reply.  Labelled series print one
// HELP/TYPE pair per label value, so repeated lines are folded: the list is
// one pair per family.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/scenario.h"
#include "cluster/router.h"
#include "ctrl/scheduler.h"
#include "net/client.h"
#include "net/server.h"
#include "runtime/profiler.h"
#include "serving/live_testbed.h"
#include "telemetry/sink.h"
#include "trace/twitter.h"

namespace arlo {
namespace {

// The exports as they were while the sink registered every family itself,
// so the node and the router exported the same list apart from lazily
// registered series.  The tests below derive today's lists from these.
constexpr const char* kParentNodeFamilies = R"(# HELP arlo_allocation_solve_ns Wall-clock cost of one allocation solve
# TYPE arlo_allocation_solve_ns histogram
# HELP arlo_allocation_solves_total Periodic ILP/allocation solves
# TYPE arlo_allocation_solves_total counter
# HELP arlo_autoscale_in_total Scale-in decisions
# TYPE arlo_autoscale_in_total counter
# HELP arlo_autoscale_out_total Scale-out decisions
# TYPE arlo_autoscale_out_total counter
# HELP arlo_batch_size Requests per launched batch
# TYPE arlo_batch_size histogram
# HELP arlo_batch_timeouts_total Batches launched because their wait budget expired before filling
# TYPE arlo_batch_timeouts_total counter
# HELP arlo_batch_tokens_computed_total Tokens actually computed (bucket slots x padded length); 1 - useful/computed = padding waste fraction
# TYPE arlo_batch_tokens_computed_total counter
# HELP arlo_batch_tokens_useful_total True request tokens served in batches
# TYPE arlo_batch_tokens_useful_total counter
# HELP arlo_batch_wait_ns Oldest member's queue wait at batch launch
# TYPE arlo_batch_wait_ns histogram
# HELP arlo_batches_formed_total Batches formed and launched by executors
# TYPE arlo_batches_formed_total counter
# HELP arlo_buffer_depth Arrivals waiting for a dispatchable instance
# TYPE arlo_buffer_depth gauge
# HELP arlo_cluster_drains_total Graceful node drains initiated
# TYPE arlo_cluster_drains_total counter
# HELP arlo_cluster_evictions_total Nodes evicted on probe failure
# TYPE arlo_cluster_evictions_total counter
# HELP arlo_cluster_inflight Router-side in-flight requests across all nodes
# TYPE arlo_cluster_inflight gauge
# HELP arlo_cluster_joins_total Nodes joined into the pool
# TYPE arlo_cluster_joins_total counter
# HELP arlo_cluster_no_node_total Requests explicitly shed because no backend node was routable
# TYPE arlo_cluster_no_node_total counter
# HELP arlo_cluster_nodes_routable Backend nodes accepting new routes
# TYPE arlo_cluster_nodes_routable gauge
# HELP arlo_cluster_probe_failures_total Individual failed admin-plane probes (N consecutive evict a node)
# TYPE arlo_cluster_probe_failures_total counter
# HELP arlo_cluster_replies_total Backend replies relayed to clients
# TYPE arlo_cluster_replies_total counter
# HELP arlo_cluster_retries_total In-flight requests re-routed after their node died
# TYPE arlo_cluster_retries_total counter
# HELP arlo_cluster_route_latency_ns Submit forwarded to final reply, as seen by the router
# TYPE arlo_cluster_route_latency_ns histogram
# HELP arlo_cluster_routed_total SubmitRequests forwarded to a backend node by the router
# TYPE arlo_cluster_routed_total counter
# HELP arlo_ctrl_apply_ns POST /realloc round-trip wall time
# TYPE arlo_ctrl_apply_ns histogram
# HELP arlo_ctrl_deltas_applied_total Deltas the node accepted
# TYPE arlo_ctrl_deltas_applied_total counter
# HELP arlo_ctrl_deltas_rejected_total Deltas the node rejected with 409 (retried after the next scrape)
# TYPE arlo_ctrl_deltas_rejected_total counter
# HELP arlo_ctrl_deltas_shipped_total Per-node allocation deltas shipped via POST /realloc
# TYPE arlo_ctrl_deltas_shipped_total counter
# HELP arlo_ctrl_last_ks_millionths Last two-sample KS drift statistic, in millionths
# TYPE arlo_ctrl_last_ks_millionths gauge
# HELP arlo_ctrl_replans_skipped_total Scrape rounds where the KS gate stayed closed (mix within threshold)
# TYPE arlo_ctrl_replans_skipped_total counter
# HELP arlo_ctrl_replans_total Drift gate openings: target cluster allocation re-solved
# TYPE arlo_ctrl_replans_total counter
# HELP arlo_ctrl_scrape_failures_total Individual nodes unreachable during a scrape round
# TYPE arlo_ctrl_scrape_failures_total counter
# HELP arlo_ctrl_scrapes_total Cluster Runtime Scheduler scrape rounds completed
# TYPE arlo_ctrl_scrapes_total counter
# HELP arlo_ctrl_solve_ns Target cluster-allocation solve wall time
# TYPE arlo_ctrl_solve_ns histogram
# HELP arlo_dispatch_cost_ns Wall-clock cost of one scheduling decision (Fig. 9 quantity)
# TYPE arlo_dispatch_cost_ns histogram
# HELP arlo_dispatch_demotions_total Dispatches served by a non-ideal (larger) runtime (Algorithm 1)
# TYPE arlo_dispatch_demotions_total counter
# HELP arlo_dispatch_fallbacks_total Dispatches that took the Algorithm 1 fallback path
# TYPE arlo_dispatch_fallbacks_total counter
# HELP arlo_e2e_latency_ns End-to-end request latency
# TYPE arlo_e2e_latency_ns histogram
# HELP arlo_faults_injected_total Fault-plan activations applied (crashes, hangs, slowdowns)
# TYPE arlo_faults_injected_total counter
# HELP arlo_gen_decode_iterations_total Decode iterations (one token per resident sequence each)
# TYPE arlo_gen_decode_iterations_total counter
# HELP arlo_gen_itl_ns Per-token inter-token latency of decode steps
# TYPE arlo_gen_itl_ns histogram
# HELP arlo_gen_kv_capacity Aggregate KV-cache capacity in resident sequences
# TYPE arlo_gen_kv_capacity gauge
# HELP arlo_gen_kv_resident Resident generative sequences across all instances
# TYPE arlo_gen_kv_resident gauge
# HELP arlo_gen_preemptions_total Resident sequences evicted (recompute-style) to admit a prompt
# TYPE arlo_gen_preemptions_total counter
# HELP arlo_gen_prefill_iterations_total Prefill iterations launched by continuous/static generative batchers
# TYPE arlo_gen_prefill_iterations_total counter
# HELP arlo_gen_tokens_total Output tokens emitted (prefill + decode)
# TYPE arlo_gen_tokens_total counter
# HELP arlo_gen_ttft_ns Arrival to first output token (time-to-first-token)
# TYPE arlo_gen_ttft_ns histogram
# HELP arlo_instance_failures_total Abrupt instance crashes (fault injection)
# TYPE arlo_instance_failures_total counter
# HELP arlo_instance_launches_total Instance provisioning starts
# TYPE arlo_instance_launches_total counter
# HELP arlo_instance_retirements_total Instances fully drained and retired
# TYPE arlo_instance_retirements_total counter
# HELP arlo_instances Active + provisioning instances
# TYPE arlo_instances gauge
# HELP arlo_net_accepted_total SubmitRequests admitted and handed to the dispatcher
# TYPE arlo_net_accepted_total counter
# HELP arlo_net_bytes_in_total Bytes read from client sockets
# TYPE arlo_net_bytes_in_total counter
# HELP arlo_net_bytes_out_total Bytes written to client sockets
# TYPE arlo_net_bytes_out_total counter
# HELP arlo_net_connections_total TCP connections accepted by the frontend
# TYPE arlo_net_connections_total counter
# HELP arlo_net_frontend_overhead_ns Wall ns in the frontend beyond the scaled modeled backend latency
# TYPE arlo_net_frontend_overhead_ns histogram
# HELP arlo_net_open_connections Currently connected clients
# TYPE arlo_net_open_connections gauge
# HELP arlo_net_rejected_inflight_total SubmitRequests rejected at the inflight cap
# TYPE arlo_net_rejected_inflight_total counter
# HELP arlo_net_rejected_rate_total SubmitRequests rejected by the token-bucket rate limit
# TYPE arlo_net_rejected_rate_total counter
# HELP arlo_net_shed_class_total SubmitRequests shed by a tenant class's overload policy
# TYPE arlo_net_shed_class_total counter
# HELP arlo_net_shed_deadline_total SubmitRequests early-shed: estimated delay exceeded the deadline
# TYPE arlo_net_shed_deadline_total counter
# HELP arlo_outstanding_requests Dispatched but not yet completed requests
# TYPE arlo_outstanding_requests gauge
# HELP arlo_queue_delay_ns Arrival to execution start
# TYPE arlo_queue_delay_ns histogram
# HELP arlo_queue_depth Outstanding requests at one multi-level-queue level
# TYPE arlo_queue_depth gauge
# HELP arlo_replacements_total Instance replacements executed from re-allocation plans
# TYPE arlo_replacements_total counter
# HELP arlo_requests_buffered_total Arrivals that could not be dispatched immediately
# TYPE arlo_requests_buffered_total counter
# HELP arlo_requests_completed_total Requests served to completion
# TYPE arlo_requests_completed_total counter
# HELP arlo_requests_enqueued_total Requests that arrived at the frontend
# TYPE arlo_requests_enqueued_total counter
# HELP arlo_requeues_total Requests drained off a crashed/reaped instance and requeued
# TYPE arlo_requeues_total counter
# HELP arlo_retries_total Dispatch attempts that failed transiently and were retried with backoff
# TYPE arlo_retries_total counter
# HELP arlo_service_time_ns Execution start to completion
# TYPE arlo_service_time_ns histogram
# HELP arlo_sheds_total Buffered requests rejected past the shed deadline (load shedding)
# TYPE arlo_sheds_total counter
# HELP arlo_stage_latency_ns Wall ns attributed to one pipeline stage of traced requests
# TYPE arlo_stage_latency_ns histogram
# HELP arlo_trace_dropped_total Trace events evicted oldest-first because the recorder buffer was at max_trace_events (silent truncation made visible)
# TYPE arlo_trace_dropped_total counter
)";

constexpr const char* kParentRouterFamilies = R"(# HELP arlo_allocation_solve_ns Wall-clock cost of one allocation solve
# TYPE arlo_allocation_solve_ns histogram
# HELP arlo_allocation_solves_total Periodic ILP/allocation solves
# TYPE arlo_allocation_solves_total counter
# HELP arlo_autoscale_in_total Scale-in decisions
# TYPE arlo_autoscale_in_total counter
# HELP arlo_autoscale_out_total Scale-out decisions
# TYPE arlo_autoscale_out_total counter
# HELP arlo_batch_size Requests per launched batch
# TYPE arlo_batch_size histogram
# HELP arlo_batch_timeouts_total Batches launched because their wait budget expired before filling
# TYPE arlo_batch_timeouts_total counter
# HELP arlo_batch_tokens_computed_total Tokens actually computed (bucket slots x padded length); 1 - useful/computed = padding waste fraction
# TYPE arlo_batch_tokens_computed_total counter
# HELP arlo_batch_tokens_useful_total True request tokens served in batches
# TYPE arlo_batch_tokens_useful_total counter
# HELP arlo_batch_wait_ns Oldest member's queue wait at batch launch
# TYPE arlo_batch_wait_ns histogram
# HELP arlo_batches_formed_total Batches formed and launched by executors
# TYPE arlo_batches_formed_total counter
# HELP arlo_buffer_depth Arrivals waiting for a dispatchable instance
# TYPE arlo_buffer_depth gauge
# HELP arlo_cluster_drains_total Graceful node drains initiated
# TYPE arlo_cluster_drains_total counter
# HELP arlo_cluster_evictions_total Nodes evicted on probe failure
# TYPE arlo_cluster_evictions_total counter
# HELP arlo_cluster_inflight Router-side in-flight requests across all nodes
# TYPE arlo_cluster_inflight gauge
# HELP arlo_cluster_joins_total Nodes joined into the pool
# TYPE arlo_cluster_joins_total counter
# HELP arlo_cluster_no_node_total Requests explicitly shed because no backend node was routable
# TYPE arlo_cluster_no_node_total counter
# HELP arlo_cluster_node_route_latency_ns Per-node submit-to-reply latency as seen by the router
# TYPE arlo_cluster_node_route_latency_ns histogram
# HELP arlo_cluster_node_routed_total SubmitRequests routed to one backend node
# TYPE arlo_cluster_node_routed_total counter
# HELP arlo_cluster_nodes_routable Backend nodes accepting new routes
# TYPE arlo_cluster_nodes_routable gauge
# HELP arlo_cluster_probe_failures_total Individual failed admin-plane probes (N consecutive evict a node)
# TYPE arlo_cluster_probe_failures_total counter
# HELP arlo_cluster_replies_total Backend replies relayed to clients
# TYPE arlo_cluster_replies_total counter
# HELP arlo_cluster_retries_total In-flight requests re-routed after their node died
# TYPE arlo_cluster_retries_total counter
# HELP arlo_cluster_route_latency_ns Submit forwarded to final reply, as seen by the router
# TYPE arlo_cluster_route_latency_ns histogram
# HELP arlo_cluster_routed_total SubmitRequests forwarded to a backend node by the router
# TYPE arlo_cluster_routed_total counter
# HELP arlo_ctrl_apply_ns POST /realloc round-trip wall time
# TYPE arlo_ctrl_apply_ns histogram
# HELP arlo_ctrl_deltas_applied_total Deltas the node accepted
# TYPE arlo_ctrl_deltas_applied_total counter
# HELP arlo_ctrl_deltas_rejected_total Deltas the node rejected with 409 (retried after the next scrape)
# TYPE arlo_ctrl_deltas_rejected_total counter
# HELP arlo_ctrl_deltas_shipped_total Per-node allocation deltas shipped via POST /realloc
# TYPE arlo_ctrl_deltas_shipped_total counter
# HELP arlo_ctrl_last_ks_millionths Last two-sample KS drift statistic, in millionths
# TYPE arlo_ctrl_last_ks_millionths gauge
# HELP arlo_ctrl_replans_skipped_total Scrape rounds where the KS gate stayed closed (mix within threshold)
# TYPE arlo_ctrl_replans_skipped_total counter
# HELP arlo_ctrl_replans_total Drift gate openings: target cluster allocation re-solved
# TYPE arlo_ctrl_replans_total counter
# HELP arlo_ctrl_scrape_failures_total Individual nodes unreachable during a scrape round
# TYPE arlo_ctrl_scrape_failures_total counter
# HELP arlo_ctrl_scrapes_total Cluster Runtime Scheduler scrape rounds completed
# TYPE arlo_ctrl_scrapes_total counter
# HELP arlo_ctrl_solve_ns Target cluster-allocation solve wall time
# TYPE arlo_ctrl_solve_ns histogram
# HELP arlo_dispatch_cost_ns Wall-clock cost of one scheduling decision (Fig. 9 quantity)
# TYPE arlo_dispatch_cost_ns histogram
# HELP arlo_dispatch_demotions_total Dispatches served by a non-ideal (larger) runtime (Algorithm 1)
# TYPE arlo_dispatch_demotions_total counter
# HELP arlo_dispatch_fallbacks_total Dispatches that took the Algorithm 1 fallback path
# TYPE arlo_dispatch_fallbacks_total counter
# HELP arlo_e2e_latency_ns End-to-end request latency
# TYPE arlo_e2e_latency_ns histogram
# HELP arlo_faults_injected_total Fault-plan activations applied (crashes, hangs, slowdowns)
# TYPE arlo_faults_injected_total counter
# HELP arlo_gen_decode_iterations_total Decode iterations (one token per resident sequence each)
# TYPE arlo_gen_decode_iterations_total counter
# HELP arlo_gen_itl_ns Per-token inter-token latency of decode steps
# TYPE arlo_gen_itl_ns histogram
# HELP arlo_gen_kv_capacity Aggregate KV-cache capacity in resident sequences
# TYPE arlo_gen_kv_capacity gauge
# HELP arlo_gen_kv_resident Resident generative sequences across all instances
# TYPE arlo_gen_kv_resident gauge
# HELP arlo_gen_preemptions_total Resident sequences evicted (recompute-style) to admit a prompt
# TYPE arlo_gen_preemptions_total counter
# HELP arlo_gen_prefill_iterations_total Prefill iterations launched by continuous/static generative batchers
# TYPE arlo_gen_prefill_iterations_total counter
# HELP arlo_gen_tokens_total Output tokens emitted (prefill + decode)
# TYPE arlo_gen_tokens_total counter
# HELP arlo_gen_ttft_ns Arrival to first output token (time-to-first-token)
# TYPE arlo_gen_ttft_ns histogram
# HELP arlo_instance_failures_total Abrupt instance crashes (fault injection)
# TYPE arlo_instance_failures_total counter
# HELP arlo_instance_launches_total Instance provisioning starts
# TYPE arlo_instance_launches_total counter
# HELP arlo_instance_retirements_total Instances fully drained and retired
# TYPE arlo_instance_retirements_total counter
# HELP arlo_instances Active + provisioning instances
# TYPE arlo_instances gauge
# HELP arlo_net_accepted_total SubmitRequests admitted and handed to the dispatcher
# TYPE arlo_net_accepted_total counter
# HELP arlo_net_bytes_in_total Bytes read from client sockets
# TYPE arlo_net_bytes_in_total counter
# HELP arlo_net_bytes_out_total Bytes written to client sockets
# TYPE arlo_net_bytes_out_total counter
# HELP arlo_net_connections_total TCP connections accepted by the frontend
# TYPE arlo_net_connections_total counter
# HELP arlo_net_frontend_overhead_ns Wall ns in the frontend beyond the scaled modeled backend latency
# TYPE arlo_net_frontend_overhead_ns histogram
# HELP arlo_net_open_connections Currently connected clients
# TYPE arlo_net_open_connections gauge
# HELP arlo_net_rejected_inflight_total SubmitRequests rejected at the inflight cap
# TYPE arlo_net_rejected_inflight_total counter
# HELP arlo_net_rejected_rate_total SubmitRequests rejected by the token-bucket rate limit
# TYPE arlo_net_rejected_rate_total counter
# HELP arlo_net_shed_class_total SubmitRequests shed by a tenant class's overload policy
# TYPE arlo_net_shed_class_total counter
# HELP arlo_net_shed_deadline_total SubmitRequests early-shed: estimated delay exceeded the deadline
# TYPE arlo_net_shed_deadline_total counter
# HELP arlo_outstanding_requests Dispatched but not yet completed requests
# TYPE arlo_outstanding_requests gauge
# HELP arlo_queue_delay_ns Arrival to execution start
# TYPE arlo_queue_delay_ns histogram
# HELP arlo_replacements_total Instance replacements executed from re-allocation plans
# TYPE arlo_replacements_total counter
# HELP arlo_requests_buffered_total Arrivals that could not be dispatched immediately
# TYPE arlo_requests_buffered_total counter
# HELP arlo_requests_completed_total Requests served to completion
# TYPE arlo_requests_completed_total counter
# HELP arlo_requests_enqueued_total Requests that arrived at the frontend
# TYPE arlo_requests_enqueued_total counter
# HELP arlo_requeues_total Requests drained off a crashed/reaped instance and requeued
# TYPE arlo_requeues_total counter
# HELP arlo_retries_total Dispatch attempts that failed transiently and were retried with backoff
# TYPE arlo_retries_total counter
# HELP arlo_service_time_ns Execution start to completion
# TYPE arlo_service_time_ns histogram
# HELP arlo_sheds_total Buffered requests rejected past the shed deadline (load shedding)
# TYPE arlo_sheds_total counter
# HELP arlo_stage_latency_ns Wall ns attributed to one pipeline stage of traced requests
# TYPE arlo_stage_latency_ns histogram
# HELP arlo_trace_dropped_total Trace events evicted oldest-first because the recorder buffer was at max_trace_events (silent truncation made visible)
# TYPE arlo_trace_dropped_total counter
)";

/// The HELP/TYPE lines of `sink`'s Prometheus text, consecutive repeats
/// folded.
std::vector<std::string> FamilyLines(const telemetry::TelemetrySink& sink) {
  std::ostringstream os;
  sink.WritePrometheus(os);
  std::istringstream in(os.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("# HELP ", 0) != 0 && line.rfind("# TYPE ", 0) != 0) {
      continue;
    }
    if (lines.size() >= 2 && (lines[lines.size() - 2] == line ||
                              lines.back() == line)) {
      continue;
    }
    lines.push_back(line);
  }
  return lines;
}

std::string Joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// The family a "# HELP name ..." or "# TYPE name ..." line is about.
std::string FamilyOf(const std::string& line) {
  return line.substr(7, line.find(' ', 7) - 7);
}

/// The lines of `text` whose family `keep` accepts.
template <typename Keep>
std::vector<std::string> Filtered(const std::string& text, Keep keep) {
  std::istringstream in(text);
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) {
    if (keep(FamilyOf(line))) out.push_back(line);
  }
  return out;
}

/// Registered by cluster::Router / NodePool and ctrl::ClusterScheduler.
bool IsRouterTierFamily(const std::string& family) {
  return family.rfind("arlo_cluster_", 0) == 0 ||
         family.rfind("arlo_ctrl_", 0) == 0;
}

/// Registered by the sink itself, or by both a node and a router.
bool IsSinkFamily(const std::string& family) {
  return family == "arlo_trace_dropped_total" ||
         family == "arlo_stage_latency_ns";
}

struct Exported {
  std::vector<std::string> node;
  std::vector<std::string> router;
};

/// One node and one router in front of it, each with its own sink, the
/// router's shared with a ClusterScheduler (the cluster_router wiring).
Exported RunNodeAndRouter() {
  telemetry::TelemetryConfig tc;
  tc.concurrency = telemetry::Concurrency::kMultiThreaded;
  telemetry::TelemetrySink node_sink(tc);
  telemetry::TelemetrySink router_sink(tc);

  baselines::ScenarioConfig scenario;
  scenario.gpus = 1;
  auto scheme = baselines::MakeSchemeByName("st", scenario);
  serving::TestbedConfig tb;
  tb.time_scale = 0.1;
  tb.telemetry = &node_sink;
  serving::LiveTestbed testbed(*scheme, tb);
  testbed.Start();
  net::ServerConfig sc;
  sc.telemetry = &node_sink;
  net::Server server(testbed, sc);
  server.Start();

  cluster::RouterConfig rc;
  rc.nodes.push_back({"", server.Port(), 0});
  rc.sink = &router_sink;
  cluster::Router router(rc);
  router.Start();

  const auto runtimes = baselines::MakeRuntimeSetFor(scenario);
  ctrl::ClusterSchedulerConfig cc;
  for (std::size_t i = 0; i < runtimes->Size(); ++i) {
    cc.profiles.push_back(runtime::ProfileRuntime(
        runtimes->Runtime(static_cast<RuntimeId>(i)), scenario.slo,
        static_cast<RuntimeId>(i), Millis(0.8)));
  }
  cc.sink = &router_sink;
  ctrl::ClusterScheduler scheduler(
      [] { return std::vector<ctrl::CtrlNode>{}; }, cc);

  trace::TwitterTraceConfig trace_config;
  trace_config.duration_s = 1.0;
  trace_config.mean_rate = 20.0;
  trace_config.pattern = trace::TwitterTraceConfig::Pattern::kStable;
  trace_config.seed = 3;
  const trace::Trace t = trace::SynthesizeTwitterTrace(trace_config);
  net::LoadGeneratorConfig lg;
  lg.port = router.Port();
  lg.time_scale = 0.1;
  const net::LoadGeneratorResult result = net::RunLoadGenerator(t, lg);
  EXPECT_GT(result.received, 0u);
  EXPECT_EQ(result.Lost(), 0u);

  router.Stop();
  server.Stop();
  (void)testbed.Finish();
  return {FamilyLines(node_sink), FamilyLines(router_sink)};
}

// Each tier registers its own families, so a node no longer exports the
// router's and ctrl's zero-valued families, and a router no longer exports
// the serving core's (serving, batch, generative) or the frontend's (net).
TEST(MetricFamilies, EachProcessExportsOnlyItsOwnTiers) {
  const Exported exported = RunNodeAndRouter();
  EXPECT_EQ(Joined(exported.node),
            Joined(Filtered(kParentNodeFamilies, [](const std::string& f) {
              return !IsRouterTierFamily(f);
            })));
  EXPECT_EQ(Joined(exported.router),
            Joined(Filtered(kParentRouterFamilies, [](const std::string& f) {
              return IsRouterTierFamily(f) || IsSinkFamily(f);
            })));
  // What the router dropped is what a node serves.
  for (const std::string& line :
       Filtered(kParentRouterFamilies, [](const std::string& f) {
         return !IsRouterTierFamily(f) && !IsSinkFamily(f);
       })) {
    EXPECT_NE(std::find(exported.node.begin(), exported.node.end(), line),
              exported.node.end())
        << line;
  }
}

}  // namespace
}  // namespace arlo
