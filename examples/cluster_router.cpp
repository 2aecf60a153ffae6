// Standalone cluster router: speaks the wire protocol to clients on the
// front, multiplexes across N backend nodes (live_serving --listen
// processes) on the back, and exposes its own admin plane with live
// drain/join endpoints.
//
// A 3-node local cluster, by hand:
//
//   ./build/examples/live_serving --listen=0 --admin-port=0 &   # x3, note
//                                                               # the ports
//   NODES=9001:8001,9002:8002,9003:8003
//   ./build/examples/cluster_router --nodes=$NODES --policy=queue-delay
//   ./build/examples/live_serving --connect=<router port> --rate=400
//
// --nodes is a comma-separated list of PORT or PORT:ADMIN_PORT pairs; an
// omitted admin port disables probing for that node (trusted while its
// connection stays up).  Ctrl-C drains in flight work and prints a final
// per-node routing summary.
//
// --ctrl attaches the cluster Runtime Scheduler (docs/CONTROL_PLANE.md): a
// control loop that scrapes every node's length mix, re-solves the fleet
// allocation when the mix drifts (KS gate), and ships per-node deltas via
// each node's POST /realloc.  Nodes should run --freeze-alloc so local and
// cluster reallocation do not fight.
//
// Run: ./build/examples/cluster_router --nodes=9001:8001,9002:8002
//      [--listen=0] [--admin-port=0] [--policy=queue-delay]
//      [--probe-ms=100] [--probe-failures=3] [--retries=4] [--seed=1]
//      [--ctrl] [--ctrl-period-ms=500] [--ctrl-ks=0.1]
//      [--ctrl-min-samples=50] [--ctrl-budget-ms=50] [--slo-ms=150]
//      [--trace-sample=off|1|1/N] [--trace-out=PATH]
//
// --trace-sample turns on cross-hop tracing: the router samples 1/N of
// requests by id hash, stamps the trace flag on the forwarded submit, and
// assembles per-stage timelines from the nodes' reply annexes (visible on
// /metrics as arlo_stage_* and merged fleet-wide on GET /fleetz).
// --trace-out writes the assembled timelines as a Chrome trace_event JSON
// file at shutdown.
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/scenario.h"
#include "cluster/router.h"
#include "cluster/router_admin.h"
#include "common/cli.h"
#include "ctrl/scheduler.h"
#include "runtime/profiler.h"
#include "runtime/runtime_set.h"
#include "telemetry/exporters.h"
#include "telemetry/sink.h"

using namespace arlo;

namespace {

std::atomic<bool> g_interrupted{false};

void OnSigInt(int) { g_interrupted.store(true, std::memory_order_relaxed); }

/// Parses "9001:8001,9002,9003:8003" into endpoints (admin port optional).
std::vector<cluster::NodeEndpoint> ParseNodes(const std::string& spec) {
  std::vector<cluster::NodeEndpoint> nodes;
  std::istringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) continue;
    cluster::NodeEndpoint endpoint;
    const std::size_t colon = item.find(':');
    endpoint.port = static_cast<std::uint16_t>(
        std::stoi(colon == std::string::npos ? item : item.substr(0, colon)));
    if (colon != std::string::npos) {
      endpoint.admin_port =
          static_cast<std::uint16_t>(std::stoi(item.substr(colon + 1)));
    }
    nodes.push_back(endpoint);
  }
  return nodes;
}

}  // namespace

static int Run(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const int listen_port = flags.GetInt("listen", 0);
  const int admin_port = flags.GetInt("admin-port", 0);
  const std::string policy = flags.GetString("policy", "queue-delay");
  const std::string nodes_spec = flags.GetString("nodes", "");
  const long long probe_ms = flags.GetInt("probe-ms", 100);
  const long long probe_failures = flags.GetInt("probe-failures", 3);
  const long long retries = flags.GetInt("retries", 4);
  const long long seed = flags.GetInt("seed", 1);
  const bool enable_ctrl = flags.GetBool("ctrl", false);
  const double ctrl_period_ms = flags.GetDouble("ctrl-period-ms", 500.0);
  const double ctrl_ks = flags.GetDouble("ctrl-ks", 0.1);
  const long long ctrl_min_samples = flags.GetInt("ctrl-min-samples", 50);
  const double ctrl_budget_ms = flags.GetDouble("ctrl-budget-ms", 50.0);
  const double slo_ms = flags.GetDouble("slo-ms", 150.0);
  const unsigned trace_sample =
      ParseTraceSample(flags.GetString("trace-sample", "off"));
  const std::string trace_out = flags.GetString("trace-out", "");
  flags.RejectUnknown();

  if (nodes_spec.empty()) {
    std::cerr << "usage: cluster_router --nodes=PORT[:ADMIN],... "
                 "[--policy=rr|least-inflight|queue-delay|length]\n";
    return 2;
  }

  std::signal(SIGINT, OnSigInt);
  std::signal(SIGTERM, OnSigInt);

  telemetry::TelemetryConfig tc;
  tc.concurrency = telemetry::Concurrency::kMultiThreaded;
  telemetry::TelemetrySink sink(tc);

  cluster::RouterConfig rc;
  rc.port = static_cast<std::uint16_t>(listen_port);
  rc.policy = policy;
  rc.nodes = ParseNodes(nodes_spec);
  rc.probe_period = std::chrono::milliseconds(probe_ms);
  rc.probe_failures_to_evict = static_cast<int>(probe_failures);
  rc.retry.max_attempts = static_cast<int>(retries);
  rc.seed = static_cast<std::uint64_t>(seed);
  rc.sink = &sink;
  rc.trace_sample_n = trace_sample;

  cluster::Router router(rc);
  router.Start();

  // The cluster Runtime Scheduler profiles the same runtime set the nodes
  // run (BertBase, default Arlo set, the nodes' default 0.8 ms overhead),
  // so its ILP prices capacity the way the fleet actually serves.
  std::unique_ptr<ctrl::ClusterScheduler> scheduler;
  if (enable_ctrl) {
    baselines::ScenarioConfig scenario;
    scenario.model = runtime::ModelSpec::BertBase();
    scenario.slo = Millis(slo_ms);
    const auto runtimes = baselines::MakeRuntimeSetFor(scenario);
    ctrl::ClusterSchedulerConfig cc;
    for (std::size_t i = 0; i < runtimes->Size(); ++i) {
      cc.profiles.push_back(runtime::ProfileRuntime(
          runtimes->Runtime(static_cast<RuntimeId>(i)), scenario.slo,
          static_cast<RuntimeId>(i), Millis(0.8)));
    }
    cc.slo_seconds = slo_ms / 1e3;
    cc.scrape_period_s = ctrl_period_ms / 1e3;
    cc.ks_threshold = ctrl_ks;
    cc.min_window_samples = ctrl_min_samples;
    cc.solve_budget_ms = ctrl_budget_ms;
    cc.sink = &sink;
    scheduler = std::make_unique<ctrl::ClusterScheduler>(
        [&router] {
          std::vector<ctrl::CtrlNode> out;
          for (const cluster::NodeStatus& n : router.Pool().Status()) {
            if (n.state == cluster::NodeState::kHealthy &&
                n.endpoint.admin_port != 0) {
              out.push_back(ctrl::CtrlNode{n.node, n.endpoint.admin_port});
            }
          }
          return out;
        },
        std::move(cc));
    scheduler->Start();
  }

  auto admin = cluster::MakeRouterAdmin(
      router, &sink, static_cast<std::uint16_t>(admin_port), scheduler.get());
  admin->Start();

  const int joined = router.Pool().NumRoutable();
  // Both lines flushed eagerly: check.sh's cluster smoke and the bench
  // harness parse the ports from a redirected pipe while we are running.
  std::cout << "router listening on 127.0.0.1:" << router.Port() << " ("
            << joined << "/" << rc.nodes.size() << " nodes, policy "
            << policy << "); Ctrl-C to stop" << std::endl;
  std::cout << "router admin on 127.0.0.1:" << admin->Port()
            << " (/metrics /healthz /statusz /cluster/drain /cluster/join"
            << (scheduler ? " /ctrl/statusz /ctrl/replan" : "") << ")"
            << std::endl;
  if (joined == 0) {
    std::cerr << "no backend node reachable; exiting\n";
    return 1;
  }

  while (!g_interrupted.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "\nshutting down..." << std::endl;

  const std::vector<cluster::NodeStatus> status = router.Pool().Status();
  admin->Stop();
  if (scheduler) {
    scheduler->Stop();
    const ctrl::ClusterScheduler::Stats cs = scheduler->GetStats();
    std::cout << "ctrl: rounds " << cs.rounds << ", replans " << cs.replans
              << ", deltas " << cs.deltas_shipped << " shipped / "
              << cs.deltas_applied << " applied / " << cs.deltas_rejected
              << " rejected, last KS " << cs.last_ks << "\n";
  }
  router.Stop();

  // Chrome trace_event dump of the assembled cross-hop timelines (one
  // "request" parent span per traced request, per-stage children nested
  // inside it) — load into chrome://tracing or Perfetto.
  if (!trace_out.empty()) {
    telemetry::WriteTraceFile(sink, trace_out);
    std::cout << "trace written to " << trace_out << "\n";
  }

  const cluster::Router::Stats stats = router.GetStats();
  std::cout << "router: accepted " << stats.accepted << ", routed "
            << stats.routed << ", replies " << stats.replies << ", retries "
            << stats.retries << ", no-node sheds " << stats.no_node << "\n";
  for (const cluster::NodeStatus& n : status) {
    std::cout << "  node " << n.node << " (" << n.endpoint.name << " :"
              << n.endpoint.port << ") " << cluster::NodeStateName(n.state)
              << ": routed " << n.routed << ", est queue delay "
              << ToMillis(n.est_queue_delay_ns) << " ms";
    if (!n.down_reason.empty()) std::cout << ", down: " << n.down_reason;
    std::cout << "\n";
  }
  return 0;
}

int main(int argc, char** argv) { return RunCliMain(argc, argv, Run); }
