#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "baselines/scenario.h"
#include "batch/policy.h"
#include "cluster/router.h"
#include "ctrl/scheduler.h"
#include "load_client.h"
#include "net/server.h"
#include "obs/admin_server.h"
#include "runtime/profiler.h"
#include "runtime/runtime_set.h"
#include "serving/live_testbed.h"
#include "sim/engine.h"
#include "sim/report.h"
#include "stats.h"
#include "telemetry/sink.h"
#include "timed_layers.h"
#include "trace/twitter.h"

namespace perfbench {
namespace {

using namespace arlo;
using telemetry::Stage;

constexpr std::size_t kMaxSpanRequests = 2000;
/// Closed-loop completions before this offset are ramp-up, not peak.
constexpr std::int64_t kClosedLoopRampNs = 500'000'000;
/// The open loop is measured for --seconds; each closed loop then runs for
/// this share of --seconds.
constexpr double kClosedShare = 0.5;
/// Outstanding requests per connection in the closed loop behind peak_rps.
constexpr int kPeakWindow = 64;

// ---------------------------------------------------------------------------
// Workload parameters

struct ServingSpec {
  int nodes = 1;
  int gpus_per_node = 1;
  double time_scale = 1.0;
  int max_batch = 1;
  bool ctrl = false;
  bool warm_start = false;  ///< nodes start from the trace's demand
  double open_rate = 0.0;   ///< req/s, open-loop phase
  double latency_limit_ms = 0.0;  ///< wall ms, for goodput
  /// >0: the e2e percentiles come from a closed loop with this many
  /// requests outstanding per connection (send to reply), run after the
  /// open loop, instead of from the open loop (due time to reply); see
  /// perfbench/METRICS.md for why.
  int latency_window = 0;
  /// Traced pass also runs the Fig. 10b simulator probe (the sim layer).
  bool sim_probe = false;
  /// Open-loop lead-in before the measured interval, at the same rate: the
  /// ctrl loop's bootstrap plan rolls out here.  Requests due in it are
  /// accounted for but not timed.
  double warmup_s = 0.0;
  int connections = 2;  ///< client connections, every phase
};

ServingSpec SpecFor(const std::string& name) {
  ServingSpec s;
  if (name == "cluster-modelled") {
    s.nodes = 2;
    s.gpus_per_node = 3;
    s.ctrl = true;
    s.warm_start = true;
    s.open_rate = 300.0;
    s.latency_limit_ms = 150.0;
    s.warmup_s = 5.0;
    s.sim_probe = true;
  } else if (name == "cluster-zero-gpu") {
    s.nodes = 2;
    s.gpus_per_node = 2;
    s.time_scale = 1e-3;
    s.max_batch = 8;
    s.open_rate = 20000.0;
    s.latency_limit_ms = 10.0;
    s.latency_window = 1;
    // One connection: each extra client and router reader thread
    // oversubscribes the 4 vCPUs further, and the ceiling then swings with
    // thread placement (peak_rps IQR/median 0.07-0.08 with one connection,
    // 0.12-0.24 with two).
    s.connections = 1;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return s;
}

trace::Trace MakeTrace(double rate, double seconds, std::uint64_t seed,
                       bool bursty) {
  trace::TwitterTraceConfig tc;
  tc.duration_s = seconds;
  tc.mean_rate = rate;
  tc.seed = seed;
  tc.max_length = 512;
  tc.pattern = bursty ? trace::TwitterTraceConfig::Pattern::kBursty
                      : trace::TwitterTraceConfig::Pattern::kStable;
  return trace::SynthesizeTwitterTrace(tc);
}

/// The trace with its arrival times stretched or compressed so that its
/// mean rate is exactly `rate`.  Over seconds to minutes the bursty arrival
/// process realizes mean rates up to ~20% off nominal; rescaling keeps each
/// seed's burst pattern and length mix but gives every seed the same load.
trace::Trace AtMeanRate(const trace::Trace& trace, double rate) {
  const double span_s = ToSeconds(trace.Duration());
  if (trace.Size() < 2 || span_s <= 0.0) return trace;
  const double factor = static_cast<double>(trace.Size()) / (rate * span_s);
  std::vector<Request> requests = trace.Requests();
  for (Request& r : requests) {
    r.arrival = static_cast<SimTime>(static_cast<double>(r.arrival) * factor);
  }
  return trace::Trace(std::move(requests));
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(SteadyNowNs() - start_ns) / 1e9;
}

// ---------------------------------------------------------------------------
// The serving stack, composed from public classes only

/// One production-shaped node: LiveTestbed (frozen Arlo) + net::Server +
/// obs::AdminPlane sharing one multi-threaded telemetry sink.
class Node {
 public:
  Node(const ServingSpec& spec, const std::vector<double>& demand,
       bool timed) {
    telemetry::TelemetryConfig tc;
    tc.concurrency = telemetry::Concurrency::kMultiThreaded;
    // One snapshot per wall second and a bounded trace ring, whatever the
    // time scale: the settings a long-running node needs.
    tc.snapshot_period = Seconds(1.0 / spec.time_scale);
    tc.max_trace_events = 1 << 16;
    sink_ = std::make_unique<telemetry::TelemetrySink>(tc);

    baselines::ScenarioConfig sc;
    sc.model = runtime::ModelSpec::BertBase();
    sc.gpus = spec.gpus_per_node;
    sc.slo = Millis(150.0);
    sc.enable_reallocation = false;
    sc.max_batch = spec.max_batch;
    sc.initial_demand = demand;
    runtimes_ = baselines::MakeRuntimeSetFor(sc);
    std::unique_ptr<sim::Scheme> scheme =
        baselines::MakeSchemeByName("arlo", sc);
    std::unique_ptr<batch::BatchPolicy> policy =
        batch::MakeBatchPolicy("greedy");
    if (timed) {
      auto ts = std::make_unique<TimedScheme>(std::move(scheme));
      auto tp = std::make_unique<TimedBatchPolicy>(std::move(policy));
      timed_scheme_ = ts.get();
      timed_policy_ = tp.get();
      scheme = std::move(ts);
      policy = std::move(tp);
    }
    scheme_ = std::move(scheme);
    policy_ = std::move(policy);

    serving::TestbedConfig tb;
    tb.time_scale = spec.time_scale;
    tb.max_batch = spec.max_batch;
    tb.batch_policy = policy_.get();
    tb.telemetry = sink_.get();
    tb.mix_bounds = runtimes_->BinUpperBounds();
    testbed_ = std::make_unique<serving::LiveTestbed>(*scheme_, tb);
    testbed_->Start();

    obs::AdminPlaneConfig apc;
    apc.sink = sink_.get();
    serving::LiveTestbed* backend = testbed_.get();
    apc.statusz = [backend](std::ostream& os) { backend->WriteStatusJson(os); };
    apc.healthz = [backend] {
      const serving::TestbedHealth h = backend->Health();
      obs::AdminPlaneConfig::HealthzReport report;
      report.ok = h.ok;
      report.detail_json = "{\"live_workers\":" +
                           std::to_string(h.live_workers) + "}";
      return report;
    };
    apc.now = [backend] { return backend->Now(); };
    apc.realloc = [backend](const std::vector<int>& allocation) {
      return backend->ApplyAllocation(allocation);
    };
    admin_ = std::make_unique<obs::AdminPlane>(std::move(apc));
    admin_->Start();

    net::ServerConfig svc;
    svc.telemetry = sink_.get();
    server_ = std::make_unique<net::Server>(*testbed_, svc);
    server_->Start();
  }

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  std::uint16_t Port() const { return server_->Port(); }
  std::uint16_t AdminPort() const { return admin_->Port(); }

  /// Graceful stop; collects the server counters and the testbed records.
  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    server_->Stop();
    stats_ = server_->Stats();
    admin_->Stop();
    result_ = testbed_->Finish();
  }

  const net::ServerStats& Stats() const { return stats_; }
  const serving::TestbedResult& Result() const { return result_; }
  const TimedScheme* Scheme() const { return timed_scheme_; }
  const TimedBatchPolicy* Policy() const { return timed_policy_; }
  std::vector<int> MaxLengths() const { return runtimes_->BinUpperBounds(); }

 private:
  std::unique_ptr<telemetry::TelemetrySink> sink_;
  std::shared_ptr<const runtime::RuntimeSet> runtimes_;
  std::unique_ptr<batch::BatchPolicy> policy_;
  std::unique_ptr<sim::Scheme> scheme_;
  TimedScheme* timed_scheme_ = nullptr;
  TimedBatchPolicy* timed_policy_ = nullptr;
  std::unique_ptr<serving::LiveTestbed> testbed_;
  std::unique_ptr<obs::AdminPlane> admin_;
  std::unique_ptr<net::Server> server_;
  bool stopped_ = false;
  net::ServerStats stats_;
  serving::TestbedResult result_;
};

/// Calls ClusterScheduler::RunOnce at the scrape period (what Start() would
/// do) and times each round.
class CtrlLoop {
 public:
  struct Round {
    ctrl::ClusterScheduler::RoundReport report;
    double wall_ms = 0.0;
  };

  CtrlLoop(ctrl::ClusterScheduler& scheduler, double period_s)
      : scheduler_(scheduler), period_s_(period_s) {}
  ~CtrlLoop() { Stop(); }
  CtrlLoop(const CtrlLoop&) = delete;
  CtrlLoop& operator=(const CtrlLoop&) = delete;

  void RunRound() {
    const std::int64_t start = SteadyNowNs();
    Round round;
    round.report = scheduler_.RunOnce(false);
    round.wall_ms = static_cast<double>(SteadyNowNs() - start) / 1e6;
    std::lock_guard lock(mu_);
    rounds_.push_back(std::move(round));
  }

  void Start() {
    thread_ = std::thread([this] {
      const auto period = std::chrono::duration<double>(period_s_);
      for (;;) {
        {
          std::unique_lock lock(mu_);
          if (cv_.wait_for(lock, period, [this] { return stopping_; })) return;
        }
        RunRound();
      }
    });
  }

  void Stop() {
    {
      std::lock_guard lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::vector<Round> Rounds() const {
    std::lock_guard lock(mu_);
    return rounds_;
  }

 private:
  ctrl::ClusterScheduler& scheduler_;
  const double period_s_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;  // guarded by mu_
  std::vector<Round> rounds_;  // guarded by mu_
  std::thread thread_;
};

/// Nodes behind a Router, optionally driven by the ctrl loop.
class Stack {
 public:
  Stack(const ServingSpec& spec, const trace::Trace& trace, std::uint64_t seed,
        bool timed) {
    std::vector<double> demand;
    baselines::ScenarioConfig scenario;
    scenario.model = runtime::ModelSpec::BertBase();
    scenario.slo = Millis(150.0);
    const auto runtimes = baselines::MakeRuntimeSetFor(scenario);
    if (spec.warm_start) {
      // Each node sees its share of the trace's demand.
      demand = baselines::DemandFromTrace(trace, *runtimes, scenario.slo);
      for (double& d : demand) d /= spec.nodes;
    }
    for (int i = 0; i < spec.nodes; ++i) {
      nodes_.push_back(std::make_unique<Node>(spec, demand, timed));
    }

    telemetry::TelemetryConfig tc;
    tc.concurrency = telemetry::Concurrency::kMultiThreaded;
    tc.max_trace_events = 1 << 16;
    sink_ = std::make_unique<telemetry::TelemetrySink>(tc);
    cluster::RouterConfig rc;
    rc.seed = seed;
    rc.sink = sink_.get();
    std::vector<ctrl::CtrlNode> targets;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      cluster::NodeEndpoint endpoint;
      endpoint.name = "node-" + std::to_string(i);
      endpoint.port = nodes_[i]->Port();
      endpoint.admin_port = nodes_[i]->AdminPort();
      rc.nodes.push_back(endpoint);
      targets.push_back(ctrl::CtrlNode{static_cast<int>(i),
                                       nodes_[i]->AdminPort()});
    }
    router_ = std::make_unique<cluster::Router>(rc);
    router_->Start();
    if (router_->Pool().NumRoutable() != spec.nodes) {
      throw std::runtime_error("router failed to join every node");
    }
    if (!spec.ctrl) return;

    ctrl::ClusterSchedulerConfig cc;
    for (std::size_t i = 0; i < runtimes->Size(); ++i) {
      cc.profiles.push_back(runtime::ProfileRuntime(
          runtimes->Runtime(static_cast<RuntimeId>(i)), scenario.slo,
          static_cast<RuntimeId>(i), Millis(0.8)));
    }
    cc.slo_seconds = ToSeconds(scenario.slo);
    // A 2 s demand window lets the bootstrap plan and its confirmation both
    // land inside the warm-up (the 5 s default would confirm mid-run).
    cc.window_span_s = 2.0;
    cc.sink = sink_.get();
    scheduler_ = std::make_unique<ctrl::ClusterScheduler>(
        [targets] { return targets; }, cc);
    ctrl_ = std::make_unique<CtrlLoop>(*scheduler_, cc.scrape_period_s);
    ctrl_->RunRound();  // bootstrap scrape: every node answers
    ctrl_->Start();
  }

  ~Stack() { Stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::uint16_t Port() const { return router_->Port(); }

  void StopCtrl() {
    if (ctrl_) ctrl_->Stop();
  }

  /// Stops everything; router counters are sampled first, at quiesce.
  void Stop() {
    StopCtrl();
    if (router_) {
      router_stats_ = router_->GetStats();
      for (const cluster::NodeStatus& s : router_->Pool().Status()) {
        routed_.push_back(static_cast<double>(s.routed));
      }
      router_->Stop();
      router_.reset();
    }
    for (auto& node : nodes_) node->Stop();
  }

  const std::vector<std::unique_ptr<Node>>& Nodes() const { return nodes_; }
  const cluster::Router::Stats& RouterStats() const { return router_stats_; }
  const std::vector<double>& RoutedPerNode() const { return routed_; }
  std::vector<CtrlLoop::Round> CtrlRounds() const {
    return ctrl_ ? ctrl_->Rounds() : std::vector<CtrlLoop::Round>{};
  }
  std::uint64_t CtrlScrapeFailures() const {
    return scheduler_ ? scheduler_->GetStats().scrape_failures : 0;
  }

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<telemetry::TelemetrySink> sink_;
  std::unique_ptr<cluster::Router> router_;
  std::unique_ptr<ctrl::ClusterScheduler> scheduler_;
  std::unique_ptr<CtrlLoop> ctrl_;
  cluster::Router::Stats router_stats_;
  std::vector<double> routed_;
};

// ---------------------------------------------------------------------------
// Metric assembly

using Metrics = std::map<std::string, double>;

/// Slices of the measured interval the e2e percentiles and peak_rps are
/// taken over.
constexpr int kLatencyChunks = 10;

void AppendSpan(std::ostringstream& os, const char* name, double ts_us,
                double dur_us, int tid) {
  if (os.tellp() > 0) os << ",";
  os << "{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
     << ",\"ts\":" << ts_us << ",\"dur\":" << dur_us << "}";
}

/// Scheme / BatchPolicy decorator samples merged over nodes.
struct LayerSamples {
  std::vector<double> select_ns, complete_ns, tick_ns, decide_ns, batch_sizes;
  std::uint64_t buffered = 0;
  std::uint64_t wait_decisions = 0;
  double scheme_ns = 0.0;
  int schemes = 0;

  void AddScheme(const TimedScheme::Samples& s) {
    select_ns.insert(select_ns.end(), s.select_ns.begin(), s.select_ns.end());
    complete_ns.insert(complete_ns.end(), s.complete_ns.begin(),
                       s.complete_ns.end());
    tick_ns.insert(tick_ns.end(), s.tick_ns.begin(), s.tick_ns.end());
    buffered += s.select_buffered;
    scheme_ns += s.total_ns;
    ++schemes;
  }
  void AddPolicy(const TimedBatchPolicy::Samples& s) {
    decide_ns.insert(decide_ns.end(), s.decide_ns.begin(), s.decide_ns.end());
    batch_sizes.insert(batch_sizes.end(), s.batch_sizes.begin(),
                       s.batch_sizes.end());
    wait_decisions += s.wait_decisions;
  }

  void Report(Metrics& m, double padding_waste, double wall_ns) const {
    const double calls = static_cast<double>(select_ns.size());
    m["core.select_calls"] = calls;
    m["core.select_p50_ns"] = NearestRank(select_ns, 0.50);
    m["core.select_p99_ns"] = NearestRank(select_ns, 0.99);
    m["core.complete_p99_ns"] = NearestRank(complete_ns, 0.99);
    m["core.select_buffered_frac"] =
        calls > 0 ? static_cast<double>(buffered) / calls : 0.0;
    m["core.tick_p99_us"] = NearestRank(tick_ns, 0.99) / 1e3;
    m["core.padding_waste_frac"] = padding_waste;
    const double decisions = static_cast<double>(decide_ns.size());
    m["batch.decide_p99_ns"] = NearestRank(decide_ns, 0.99);
    m["batch.size_mean"] = Mean(batch_sizes);
    m["batch.wait_decision_frac"] =
        decisions > 0 ? static_cast<double>(wait_decisions) / decisions : 0.0;
    // Each node's scheme runs concurrently with the others': the share is
    // per node.
    m["core.scheme_time_frac"] =
        wall_ns > 0 && schemes > 0 ? scheme_ns / (schemes * wall_ns) : 0.0;
  }
};

// ---------------------------------------------------------------------------
// Serving workloads

std::vector<ScheduledRequest> ScheduleOf(const trace::Trace& trace) {
  std::vector<ScheduledRequest> schedule;
  schedule.reserve(trace.Size());
  for (const Request& r : trace.Requests()) {
    schedule.push_back(
        ScheduledRequest{r.arrival, static_cast<std::uint32_t>(r.length)});
  }
  return schedule;
}

Outcome OutcomeOf(const ClosedLoopResult& r) {
  return Outcome{r.sent, r.ok, r.refused, r.failed, r.unanswered};
}

/// OK send-to-reply latencies of a closed loop after its ramp, in completion
/// order.
std::vector<double> ClosedLatencyMs(const ClosedLoopResult& r) {
  std::vector<std::pair<std::int64_t, double>> by_time;
  for (std::size_t i = 0; i < r.ok_latency_ns.size(); ++i) {
    if (r.ok_completion_ns[i] >= kClosedLoopRampNs &&
        r.ok_completion_ns[i] < r.phase_ns) {
      by_time.emplace_back(r.ok_completion_ns[i],
                           static_cast<double>(r.ok_latency_ns[i]) / 1e6);
    }
  }
  std::sort(by_time.begin(), by_time.end());
  std::vector<double> latency_ms;
  for (const auto& [t, latency] : by_time) latency_ms.push_back(latency);
  return latency_ms;
}

// ---------------------------------------------------------------------------
// The simulator layer, at the paper's Fig. 10b scale

/// Runs sim::RunScenario twice on one seeded trace: plain (timed as a
/// whole: sim.req_per_s), then through the timing decorators.  The two
/// passes must complete every request with identical records.
void ProbeSimLayer(std::uint64_t seed, Metrics& layer,
                   std::vector<std::string>& violations) {
  // Bert-Large at 25k req/s on 300 GPUs, SLO 450 ms, Twitter-Bursty (at
  // exactly the nominal mean rate), with the Runtime Scheduler's periodic
  // ILP re-allocation on every 2 modelled seconds.
  constexpr double kRate = 25000.0;
  baselines::ScenarioConfig config;
  config.model = runtime::ModelSpec::BertLarge();
  config.gpus = 300;
  config.slo = Millis(450.0);
  config.period = Seconds(2.0);
  const trace::Trace trace =
      AtMeanRate(MakeTrace(kRate, 10.0, seed, /*bursty=*/true), kRate);
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand =
      baselines::DemandFromTrace(trace, *runtimes, config.slo);

  auto plain_scheme = baselines::MakeSchemeByName("arlo", config);
  const std::int64_t start = SteadyNowNs();
  const sim::EngineResult plain = sim::RunScenario(trace, *plain_scheme);
  const double plain_ns = static_cast<double>(SteadyNowNs() - start);

  TimedScheme scheme(baselines::MakeSchemeByName("arlo", config));
  TimedBatchPolicy policy(batch::MakeBatchPolicy("greedy"));
  sim::EngineConfig ec;
  ec.batch_policy = &policy;
  const std::int64_t timed_start = SteadyNowNs();
  const sim::EngineResult timed = sim::RunScenario(trace, scheme, ec);
  const double timed_ns = static_cast<double>(SteadyNowNs() - timed_start);

  if (plain.records.size() != trace.Size()) {
    violations.push_back("sim: " + std::to_string(plain.records.size()) +
                         " of " + std::to_string(trace.Size()) +
                         " requests completed");
  }
  const auto same = [](const RequestRecord& a, const RequestRecord& b) {
    return a.id == b.id && a.dispatch == b.dispatch && a.start == b.start &&
           a.completion == b.completion && a.instance == b.instance;
  };
  if (plain.records.size() != timed.records.size() ||
      !std::equal(plain.records.begin(), plain.records.end(),
                  timed.records.begin(), same)) {
    violations.push_back("sim: the timing decorators changed the records");
  }

  std::vector<double> latency_ms;
  for (const RequestRecord& r : plain.records) {
    latency_ms.push_back(ToMillis(r.Latency()));
  }
  const TimedScheme::Samples& samples = scheme.GetSamples();
  layer["sim.req_per_s"] = static_cast<double>(trace.Size()) * 1e9 / plain_ns;
  layer["sim.scheme_time_frac"] = samples.total_ns / timed_ns;
  layer["sim.select_p99_ns"] = NearestRank(samples.select_ns, 0.99);
  layer["sim.tick_p99_us"] = NearestRank(samples.tick_ns, 0.99) / 1e3;
  layer["sim.modelled_p50_ms"] = NearestRank(latency_ms, 0.50);
  layer["sim.modelled_p99_ms"] = NearestRank(latency_ms, 0.99);
}

}  // namespace

WorkloadResult RunWorkload(const WorkloadArgs& args) {
  const ServingSpec spec = SpecFor(args.name);
  const double open_s = args.seconds;
  const double closed_s = args.seconds * kClosedShare;
  WorkloadResult out;
  auto violate = [&out](const std::string& what) {
    out.violations.push_back(what);
  };

  // Set-up, repeated: every repetition but the last is torn down untimed.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  trace::Trace trace;
  for (int rep = 0; rep < std::max(1, args.setup_reps); ++rep) {
    stack.reset();
    const std::int64_t start = SteadyNowNs();
    trace = MakeTrace(spec.open_rate, spec.warmup_s + open_s, args.seed,
                      /*bursty=*/false);
    stack = std::make_unique<Stack>(spec, trace, args.seed, args.traced);
    setup_s.push_back(SecondsSince(start));
  }

  ClientConfig client;
  client.port = stack->Port();
  client.connections = spec.connections;
  client.traced = args.traced;

  // The open loop runs first: the testbed appends every completion record
  // to one vector under its dispatch mutex, and the reallocations of a
  // million-record vector would otherwise stall the latency phase.  On
  // cluster-modelled the ctrl loop stops before the closed loop probes
  // capacity, so it cannot re-plan for closed-loop demand.
  std::vector<std::uint32_t> lengths;
  for (const Request& r : trace.Requests()) {
    lengths.push_back(static_cast<std::uint32_t>(r.length));
  }
  const auto closed_ns = static_cast<std::int64_t>(closed_s * 1e9);
  const OpenLoopResult open = RunOpenLoop(client, ScheduleOf(trace));
  stack->StopCtrl();
  ClosedLoopResult probe;
  if (spec.latency_window > 0) {
    probe = RunClosedLoop(client, lengths, spec.latency_window, closed_ns);
  }
  const ClosedLoopResult closed =
      RunClosedLoop(client, lengths, kPeakWindow, closed_ns);
  const std::int64_t wall_end = SteadyNowNs();
  const std::int64_t wall_start = open.start_ns;
  stack->Stop();

  // --- client-side accounting ---------------------------------------------
  Outcome open_outcome;
  std::vector<double> ok_latency_ms;
  std::vector<double> send_lag_us;
  std::uint64_t frames_sent = probe.sent + closed.sent;
  const std::int64_t measured_from_ns =
      open.start_ns + static_cast<std::int64_t>(spec.warmup_s * 1e9);
  for (const RequestResult& r : open.requests) {
    ++open_outcome.sent;
    if (r.sent_ns == 0) {
      ++open_outcome.failed;  // never left the client
      continue;
    }
    ++frames_sent;
    send_lag_us.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e3);
    if (r.recv_ns == 0) {
      ++open_outcome.unanswered;
    } else if (r.status == net::ReplyStatus::kOk) {
      ++open_outcome.ok;
      if (r.due_ns >= measured_from_ns) {
        ok_latency_ms.push_back(static_cast<double>(r.recv_ns - r.due_ns) /
                                1e6);
      }
    } else if (IsRefusal(r.status)) {
      ++open_outcome.refused;
    } else {
      ++open_outcome.failed;
    }
  }
  if (!open_outcome.Balanced()) violate("open loop: outcomes != sent");
  if (!OutcomeOf(probe).Balanced()) violate("latency loop: outcomes != sent");
  if (!OutcomeOf(closed).Balanced()) violate("closed loop: outcomes != sent");
  if (open.protocol_violations + probe.protocol_violations +
          closed.protocol_violations >
      0) {
    violate("client received unknown or duplicate reply ids");
  }
  Outcome total = open_outcome;
  total += OutcomeOf(probe);
  total += OutcomeOf(closed);
  out.attempted = total.sent;
  out.failed = total.Misses();

  // --- server-side accounting -------------------------------------------
  std::uint64_t node_accepted = 0, node_rejected = 0, node_replies = 0;
  std::uint64_t node_bytes = 0, node_completed = 0;
  for (const auto& node : stack->Nodes()) {
    const net::ServerStats& s = node->Stats();
    node_accepted += s.accepted;
    node_rejected += s.TotalRejected();
    node_replies += s.replies_sent;
    node_bytes += s.bytes_in + s.bytes_out;
    node_completed += node->Result().records.size();
    if (s.protocol_errors != 0) violate("node saw protocol errors");
  }
  if (node_completed != node_accepted) {
    violate("node: " + std::to_string(node_completed) + " records for " +
            std::to_string(node_accepted) + " admitted requests");
  }
  if (node_replies != node_accepted + node_rejected) {
    violate("node: " + std::to_string(node_replies) + " replies for " +
            std::to_string(node_accepted + node_rejected) + " requests");
  }
  const cluster::Router::Stats& rs = stack->RouterStats();
  if (rs.accepted != rs.replies + rs.no_node) {
    violate("router: accepted != replies + no_node at quiesce");
  }
  if (rs.accepted != frames_sent) {
    violate("router: accepted != requests the client sent");
  }

  // --- end-to-end metrics -------------------------------------------------
  out.info["setup_reps"] = static_cast<double>(setup_s.size());
  out.info["open_loop_samples"] = static_cast<double>(ok_latency_ms.size());
  out.info["peak_completions"] = static_cast<double>(closed.ok);
  const std::vector<double> e2e_latency_ms =
      spec.latency_window > 0 ? ClosedLatencyMs(probe) : ok_latency_ms;
  out.info["e2e_samples"] = static_cast<double>(e2e_latency_ms.size());
  out.info["e2e_p99_whole_run_ms"] = NearestRank(e2e_latency_ms, 0.99);
  Metrics& e2e = out.end_to_end;
  e2e["setup_s"] = NearestRank(setup_s, 0.5);
  e2e["e2e_p50_ms"] = ChunkedPercentile(e2e_latency_ms, 0.50, kLatencyChunks);
  e2e["e2e_p95_ms"] = ChunkedPercentile(e2e_latency_ms, 0.95, kLatencyChunks);
  e2e["goodput_rps"] = Goodput(ok_latency_ms, spec.latency_limit_ms, open_s);
  e2e["peak_rps"] = SteadyRate(closed.ok_completion_ns, closed.phase_ns,
                               kClosedLoopRampNs, kLatencyChunks);
  if (!args.traced) return out;

  // --- per-layer metrics (traced pass) ------------------------------------
  std::array<std::vector<double>, telemetry::kNumStages> stage_us;
  std::vector<double> service_ms;
  double annex_sum_ns = 0.0, e2e_sum_ns = 0.0;
  std::ostringstream spans;
  std::size_t spanned = 0;
  std::uint64_t overshoots = 0;
  for (const RequestResult& r : open.requests) {
    if (r.recv_ns == 0 || r.status != net::ReplyStatus::kOk) continue;
    service_ms.push_back(static_cast<double>(r.service_ns) / 1e6);
    if (r.annex.empty()) {
      violate("traced reply without a timing annex");
      break;
    }
    const double client_ns = static_cast<double>(r.recv_ns - r.sent_ns);
    double sum = 0.0;
    double overlap = 0.0;
    for (const telemetry::StageSpan& span : r.annex) {
      stage_us[static_cast<std::size_t>(span.stage)].push_back(
          static_cast<double>(span.dur_ns) / 1e3);
      sum += static_cast<double>(span.dur_ns);
      if (span.stage == Stage::kAccept || span.stage == Stage::kAdmission) {
        overlap += static_cast<double>(span.dur_ns);
      }
    }
    // The annex tiles the router- (or node-) observed e2e, which nests
    // inside the client's send-to-receive interval -- except that the node
    // stamps a request's arrival before timing accept and admission, so
    // those two spans also lie inside the queue span.
    if (sum - overlap > client_ns) ++overshoots;
    annex_sum_ns += sum - overlap;
    e2e_sum_ns += client_ns;
    if (spanned < kMaxSpanRequests) {
      const int tid = static_cast<int>(spanned % 16);
      double ts = static_cast<double>(r.sent_ns - open.start_ns) / 1e3;
      AppendSpan(spans, "request", ts, client_ns / 1e3, tid);
      for (const telemetry::StageSpan& span : r.annex) {
        const double dur = static_cast<double>(span.dur_ns) / 1e3;
        AppendSpan(spans, telemetry::StageName(span.stage), ts, dur, tid);
        ts += dur;
      }
      ++spanned;
    }
  }
  if (overshoots > 0) {
    violate("annex stage sum exceeds e2e on " + std::to_string(overshoots) +
            " requests");
  }

  Metrics& layer = out.per_layer;
  const auto stage_p = [&](Stage stage, double q) {
    return NearestRank(stage_us[static_cast<std::size_t>(stage)], q);
  };
  layer["net.accept_p99_us"] = stage_p(Stage::kAccept, 0.99);
  layer["net.admission_p99_us"] = stage_p(Stage::kAdmission, 0.99);
  layer["net.reply_write_p99_us"] = stage_p(Stage::kReplyWrite, 0.99);
  layer["net.rejected"] = static_cast<double>(node_rejected);
  const double handled = static_cast<double>(node_accepted + node_rejected);
  layer["net.bytes_per_req"] =
      handled > 0 ? static_cast<double>(node_bytes) / handled : 0.0;
  layer["serving.queue_p50_us"] = stage_p(Stage::kQueue, 0.50);
  layer["serving.queue_p99_us"] = stage_p(Stage::kQueue, 0.99);

  LayerSamples samples;
  std::vector<RequestRecord> records;
  std::vector<int> max_lengths;
  for (const auto& node : stack->Nodes()) {
    samples.AddScheme(node->Scheme()->GetSamples());
    samples.AddPolicy(node->Policy()->GetSamples());
    const auto& recs = node->Result().records;
    records.insert(records.end(), recs.begin(), recs.end());
    max_lengths = node->MaxLengths();
  }
  samples.Report(layer,
                 sim::PaddingWasteOfRun(records, runtime::ModelSpec::BertBase(),
                                        max_lengths),
                 static_cast<double>(wall_end - wall_start));
  layer["batch.wait_p99_us"] = stage_p(Stage::kBatch, 0.99);
  layer["runtime.service_p50_ms"] = NearestRank(service_ms, 0.50);

  layer["cluster.pending_p99_us"] = stage_p(Stage::kRouterPending, 0.99);
  layer["cluster.pick_p99_us"] = stage_p(Stage::kRouterPick, 0.99);
  layer["cluster.wire_p99_us"] = stage_p(Stage::kWire, 0.99);
  const auto& routed = stack->RoutedPerNode();
  const double lo = *std::min_element(routed.begin(), routed.end());
  const double hi = *std::max_element(routed.begin(), routed.end());
  layer["cluster.route_imbalance"] = lo > 0 ? hi / lo : hi;
  layer["cluster.retries"] = static_cast<double>(stack->RouterStats().retries);
  layer["cluster.no_node"] = static_cast<double>(stack->RouterStats().no_node);

  const std::vector<CtrlLoop::Round> rounds = stack->CtrlRounds();
  std::vector<double> round_ms;
  double replans = 0, shipped = 0, applied = 0, capped = 0, solve_max = 0;
  for (const CtrlLoop::Round& round : rounds) {
    round_ms.push_back(round.wall_ms);
    replans += round.report.replanned;
    shipped += round.report.deltas_shipped;
    applied += round.report.deltas_applied;
    capped += round.report.capped;
    solve_max = std::max(solve_max, round.report.solve_ms);
  }
  layer["ctrl.rounds"] = static_cast<double>(rounds.size());
  layer["ctrl.round_p99_ms"] = NearestRank(round_ms, 0.99);
  layer["ctrl.replans"] = replans;
  layer["ctrl.deltas_applied_frac"] = shipped > 0 ? applied / shipped : 0.0;
  layer["ctrl.scrape_failures"] =
      static_cast<double>(stack->CtrlScrapeFailures());
  layer["solver.solve_max_ms"] = solve_max;
  layer["solver.capped"] = capped;

  layer["client.send_lag_p99_us"] = NearestRank(send_lag_us, 0.99);
  layer["client.open_p50_ms"] = NearestRank(ok_latency_ms, 0.50);
  layer["client.open_p99_ms"] = NearestRank(ok_latency_ms, 0.99);
  layer["client.fail_frac"] = total.FailFrac();
  if (spec.sim_probe) ProbeSimLayer(args.seed, layer, out.violations);
  // Accept and admission are left out of the annex sum: they lie inside
  // the queue span (see the annex check above).
  layer["trace.unattributed_frac"] =
      e2e_sum_ns > 0 ? 1.0 - annex_sum_ns / e2e_sum_ns : 0.0;
  out.trace_events = spans.str();
  return out;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},         {"e2e_p50_ms", "ms"},
      {"e2e_p95_ms", "ms"},     {"goodput_rps", "req/s"},
      {"peak_rps", "req/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"net.accept_p99_us", "us"},
      {"net.admission_p99_us", "us"},
      {"net.reply_write_p99_us", "us"},
      {"net.rejected", "count"},
      {"net.bytes_per_req", "bytes"},
      {"serving.queue_p50_us", "us"},
      {"serving.queue_p99_us", "us"},
      {"core.select_calls", "count"},
      {"core.select_p50_ns", "ns"},
      {"core.select_p99_ns", "ns"},
      {"core.complete_p99_ns", "ns"},
      {"core.select_buffered_frac", "ratio"},
      {"core.tick_p99_us", "us"},
      {"core.padding_waste_frac", "ratio"},
      {"core.scheme_time_frac", "ratio"},
      {"batch.decide_p99_ns", "ns"},
      {"batch.size_mean", "requests"},
      {"batch.wait_decision_frac", "ratio"},
      {"batch.wait_p99_us", "us"},
      {"runtime.service_p50_ms", "ms"},
      {"cluster.pending_p99_us", "us"},
      {"cluster.pick_p99_us", "us"},
      {"cluster.wire_p99_us", "us"},
      {"cluster.route_imbalance", "ratio"},
      {"cluster.retries", "count"},
      {"cluster.no_node", "count"},
      {"ctrl.rounds", "count"},
      {"ctrl.round_p99_ms", "ms"},
      {"ctrl.replans", "count"},
      {"ctrl.deltas_applied_frac", "ratio"},
      {"ctrl.scrape_failures", "count"},
      {"solver.solve_max_ms", "ms"},
      {"solver.capped", "count"},
      {"sim.req_per_s", "req/s"},
      {"sim.scheme_time_frac", "ratio"},
      {"sim.select_p99_ns", "ns"},
      {"sim.tick_p99_us", "us"},
      {"sim.modelled_p50_ms", "ms"},
      {"sim.modelled_p99_ms", "ms"},
      {"client.send_lag_p99_us", "us"},
      {"client.open_p50_ms", "ms"},
      {"client.open_p99_ms", "ms"},
      {"client.fail_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
      {"trace.unattributed_frac", "ratio"},
  };
  return specs;
}

}  // namespace perfbench
