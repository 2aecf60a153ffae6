// Live serving on real threads: the same Arlo scheme that runs in the
// simulator, driven by the threaded testbed — its executor thread emulates
// GPU instances with wall-clock service times, a frontend replays the trace
// in (compressed) real time, and the multi-level queue absorbs dispatch
// races.
//
// This is the path to use when validating scheduler behaviour against real
// concurrency (lock ordering, replacement races) rather than modeled time.
//
// Three modes:
//   (default)        replay a synthetic trace in-process
//   --listen=PORT    serve the wire protocol over TCP until Ctrl-C
//                    (--max-inflight/--rate-limit bound admission)
//   --connect=PORT   replay the trace against a running --listen server
//                    over --connections sockets
//
// Ctrl-C is a graceful shutdown everywhere: in-flight requests drain, and
// a final telemetry summary is printed before exit.
//
// The admin plane (--admin-port, 0 = ephemeral) exposes /metrics, /healthz,
// /statusz, /slo, and POST /debug/dump on a loopback HTTP endpoint while
// the run is live; SIGUSR1 (or a fault-layer crash/shed storm) dumps the
// flight recorder's recent events to --dump-out as Chrome trace JSON.
//
// Run: ./build/examples/live_serving [--seconds=3] [--rate=150] [--speed=1.0]
//      [--gpus=3] [--max-batch=1] [--batch-policy=greedy|length|slo]
//      [--fault-plan=plan.txt] [--hang-timeout_s=0]
//      [--metrics-out=live.prom] [--trace-out=live.trace.json]
//      [--trace-max-events=0] [--admin-port=0]
//      [--dump-out=flight.trace.json] [--slo-ms=150]
//      [--listen=0 | --connect=PORT] [--connections=4]
//      [--max-inflight=0] [--rate-limit=0] [--deadline-ms=0]
//      [--generative] [--decode-len-dist=mixed] [--kv-capacity=0]
//      [--gen-batcher=continuous|static] [--gen-admission=prefill|decode]
//      [--tenants=interactive:w8:slo50,batch:w2:slo500]
//      [--tenant-mix=0.2,0.8] [--freeze-alloc]
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "baselines/scenario.h"
#include "batch/continuous.h"
#include "batch/policy.h"
#include "common/cli.h"
#include "common/table.h"
#include "fault/fault_plan.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/admin_server.h"
#include "obs/dump_trigger.h"
#include "obs/flight_recorder.h"
#include "obs/slo_monitor.h"
#include "obs/tenant_slo.h"
#include "serving/live_testbed.h"
#include "serving/testbed.h"
#include "sim/report.h"
#include "tenant/class_table.h"
#include "telemetry/exporters.h"
#include "telemetry/sink.h"
#include "trace/generative.h"
#include "trace/twitter.h"

using namespace arlo;

namespace {

std::atomic<bool> g_interrupted{false};
std::atomic<bool> g_dump_requested{false};

void OnSigInt(int) { g_interrupted.store(true, std::memory_order_relaxed); }

void OnSigUsr1(int) { g_dump_requested.store(true, std::memory_order_relaxed); }

/// Polls the dump-request flag (set by SIGUSR1 or the storm trigger — both
/// contexts where file I/O is off-limits) and performs the actual dump.
class DumpWatcher {
 public:
  DumpWatcher(const obs::FlightRecorder& flight, std::string path)
      : flight_(flight), path_(std::move(path)) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~DumpWatcher() {
    stopping_.store(true, std::memory_order_relaxed);
    thread_.join();
    MaybeDump();  // a request that raced shutdown still lands
  }

 private:
  void Loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
      MaybeDump();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  void MaybeDump() {
    if (!g_dump_requested.exchange(false, std::memory_order_relaxed)) return;
    if (flight_.DumpToFile(path_)) {
      std::cout << "flight recorder dumped to " << path_ << " ("
                << flight_.Recorded() << " events recorded)\n";
    } else {
      std::cout << "flight recorder dump to " << path_ << " FAILED\n";
    }
  }

  const obs::FlightRecorder& flight_;
  std::string path_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

/// The end-of-run telemetry digest every mode prints on exit (including
/// Ctrl-C): the counters that tell you what the run actually did.
void PrintTelemetrySummary(const telemetry::TelemetrySink& sink) {
  const auto& s = sink.Serving();
  std::cout << "telemetry summary:\n"
            << "  requests: enqueued " << s.enqueued->Value() << ", completed "
            << s.completed->Value() << ", buffered " << s.buffered->Value()
            << ", shed " << s.sheds->Value() << "\n"
            << "  cluster: launches " << s.launches->Value()
            << ", retirements " << s.retirements->Value() << ", failures "
            << s.failures->Value() << ", retries " << s.retries->Value()
            << "\n";
}

/// Parses --tenant-mix: comma-separated per-class arrival fractions.
std::vector<double> ParseTenantMix(const std::string& spec, int classes) {
  std::vector<double> mix;
  std::stringstream ss(spec);
  std::string field;
  while (std::getline(ss, field, ',')) {
    mix.push_back(std::stod(field));
  }
  if (static_cast<int>(mix.size()) != classes) {
    throw std::invalid_argument("--tenant-mix needs one fraction per class (" +
                                std::to_string(classes) + ")");
  }
  return mix;
}

double PercentileMs(std::vector<SimDuration> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return ToSeconds(values[idx]) * 1e3;
}

/// Per-class rows of the final summary (printed on exit, including Ctrl-C):
/// completions and p98 from the run's records, sheds from the sink's
/// arlo_tenant_* family (frontend rejections and class-overload sheds).
void PrintTenantSummary(const tenant::TenantClassTable& table,
                        const std::vector<RequestRecord>& records,
                        const telemetry::TelemetrySink* sink) {
  std::cout << "tenant classes:\n";
  for (int c = 0; c < table.Size(); ++c) {
    const tenant::TenantClass& klass = table.Class(c);
    std::vector<SimDuration> latencies;
    for (const RequestRecord& r : records) {
      if (table.Clamp(r.tenant_class) == c) latencies.push_back(r.Latency());
    }
    std::uint64_t shed = 0;
    if (sink != nullptr) {
      if (const telemetry::TenantClassMetrics* t = sink->Tenant(c)) {
        shed = t->shed->Value();
      }
    }
    std::cout << "  class " << c << " (" << klass.name << ", w"
              << klass.weight << "): completed " << latencies.size()
              << ", shed " << shed << ", p98 "
              << TablePrinter::Num(PercentileMs(latencies, 0.98))
              << " ms (slo " << ToSeconds(klass.slo) * 1e3 << " ms)\n";
  }
}

void PrintResult(const serving::TestbedResult& result,
                 const baselines::ScenarioConfig& config) {
  const LatencySummary summary = Summarize(result.records, config.slo);
  std::cout << "served " << summary.count << " requests\n"
            << "  mean latency " << TablePrinter::Num(summary.mean_ms)
            << " ms, p98 " << TablePrinter::Num(summary.p98_ms)
            << " ms, max " << TablePrinter::Num(summary.max_ms) << " ms\n"
            << "  SLO violations "
            << TablePrinter::Num(100.0 * summary.slo_violation_frac, 2)
            << "%\n  peak workers " << result.peak_workers << "\n";
  if (result.faults_injected > 0) {
    std::cout << "  faults " << result.faults_injected << " (worker kills "
              << result.injected_failures << "), retries " << result.retries
              << ", requeues " << result.requeues << "\n";
  }
  if (result.gen_prefill_iterations > 0) {
    std::vector<SimDuration> ttft;
    std::vector<SimDuration> itl;
    for (const RequestRecord& r : result.records) {
      if (!r.IsGenerative()) continue;
      ttft.push_back(r.TimeToFirstToken());
      if (r.decode_len >= 2) itl.push_back(r.MeanInterTokenLatency());
    }
    std::cout << "  generative: prefill iters "
              << result.gen_prefill_iterations << ", decode iters "
              << result.gen_decode_iterations << ", preemptions "
              << result.gen_preemptions << "\n  ttft p50 "
              << TablePrinter::Num(PercentileMs(ttft, 0.50)) << " ms, p98 "
              << TablePrinter::Num(PercentileMs(ttft, 0.98))
              << " ms; itl p50 " << TablePrinter::Num(PercentileMs(itl, 0.50))
              << " ms, p98 " << TablePrinter::Num(PercentileMs(itl, 0.98))
              << " ms\n";
  }
  sim::PrintPerRuntimeBreakdown(std::cout, result.records);
}

}  // namespace

static int Run(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const double seconds = flags.GetDouble("seconds", 3.0);
  const double rate = flags.GetDouble("rate", 150.0);
  // speed > 1 compresses wall time (2.0 = twice as fast as real time).
  const double speed = flags.GetDouble("speed", 1.0);
  const int gpus = flags.GetInt("gpus", 3);
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string plan_path = flags.GetString("fault-plan", "");
  const double hang_timeout_s = flags.GetDouble("hang-timeout_s", 0.0);
  const bool listen = flags.Has("listen");
  const int listen_port = flags.GetInt("listen", 0);
  const int connect_port = flags.GetInt("connect", 0);
  const int connections = flags.GetInt("connections", 4);
  const int max_inflight = flags.GetInt("max-inflight", 0);
  const double rate_limit = flags.GetDouble("rate-limit", 0.0);
  const double deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  const long long max_batch = flags.GetInt("max-batch", 1);
  batch::ValidateMaxBatch(max_batch);
  const std::string batch_policy_name =
      flags.GetString("batch-policy", "greedy");
  const bool admin = flags.Has("admin-port");
  const int admin_port = flags.GetInt("admin-port", 0);
  // Freeze the local periodic reallocation: the node keeps whatever
  // allocation it has until an external controller POSTs /realloc — the
  // deployment mode cluster nodes run under the ctrl Runtime Scheduler
  // (docs/CONTROL_PLANE.md).
  const bool freeze_alloc = flags.GetBool("freeze-alloc", false);
  const std::string dump_out = flags.GetString("dump-out", "flight.trace.json");
  const long long trace_max_events = flags.GetInt("trace-max-events", 0);
  const double slo_ms = flags.GetDouble("slo-ms", 150.0);
  const bool generative = flags.GetBool("generative", false);
  const std::string decode_dist = flags.GetString("decode-len-dist", "mixed");
  const long long kv_capacity = flags.GetInt("kv-capacity", 0);
  const std::string gen_batcher = flags.GetString("gen-batcher", "continuous");
  const std::string gen_admission = flags.GetString("gen-admission", "prefill");
  const std::string tenants_spec = flags.GetString("tenants", "");
  const std::string tenant_mix = flags.GetString("tenant-mix", "");
  const unsigned trace_sample =
      ParseTraceSample(flags.GetString("trace-sample", "off"));
  tenant::TenantClassTable tenant_table;
  if (!tenants_spec.empty()) {
    tenant_table = tenant::TenantClassTable::Parse(tenants_spec);
  } else if (flags.Has("tenant-mix")) {
    throw std::invalid_argument("--tenant-mix requires --tenants");
  }
  if (!generative) {
    for (const char* dep :
         {"decode-len-dist", "kv-capacity", "gen-batcher", "gen-admission"}) {
      if (flags.Has(dep)) {
        throw std::invalid_argument("--" + std::string(dep) +
                                    " requires --generative");
      }
    }
  }
  flags.RejectUnknown();

  std::signal(SIGINT, OnSigInt);
  std::signal(SIGTERM, OnSigInt);
  std::signal(SIGUSR1, OnSigUsr1);

  // Adds one synthesizer track per tenant class: arrival fractions from
  // --tenant-mix, or equal shares when it was omitted.
  const auto add_tenant_tracks = [&](trace::TwitterTraceConfig& workload) {
    if (tenant_table.Empty()) return;
    const std::vector<double> mix =
        tenant_mix.empty()
            ? std::vector<double>(
                  static_cast<std::size_t>(tenant_table.Size()), 1.0)
            : ParseTenantMix(tenant_mix, tenant_table.Size());
    for (const double fraction : mix) {
      trace::TwitterTraceConfig::TenantTrack track;
      track.fraction = fraction;
      workload.tenants.push_back(track);
    }
  };

  // --connect: pure client — replay the trace against a remote server.
  if (connect_port > 0) {
    trace::TwitterTraceConfig workload;
    workload.duration_s = seconds;
    workload.mean_rate = rate;
    workload.seed = 99;
    if (generative) {
      workload.decode_lengths = trace::ParseDecodeLengthDist(decode_dist);
    }
    add_tenant_tracks(workload);
    const trace::Trace trace = trace::SynthesizeTwitterTrace(workload);

    net::LoadGeneratorConfig lg;
    lg.port = static_cast<std::uint16_t>(connect_port);
    lg.connections = connections;
    lg.time_scale = 1.0 / speed;
    lg.deadline = Millis(deadline_ms);
    lg.trace_sample_n = trace_sample;
    std::cout << "replaying " << trace.Size() << " requests against port "
              << connect_port << " over " << connections
              << " connections...\n";
    const net::LoadGeneratorResult result = net::RunLoadGenerator(trace, lg);

    const std::uint64_t ok = result.CountByStatus(net::ReplyStatus::kOk);
    std::cout << "sent " << result.sent << ", replies " << result.received
              << " (lost " << result.Lost() << "), ok " << ok << ", rejected "
              << result.received - ok << "\n";
    const auto ok_latency = result.LatenciesByStatus(net::ReplyStatus::kOk);
    if (!ok_latency.empty()) {
      std::cout << "  ok latency p50 "
                << TablePrinter::Num(
                       ToMillis(ok_latency[ok_latency.size() / 2]))
                << " ms, p98 "
                << TablePrinter::Num(ToMillis(
                       ok_latency[ok_latency.size() * 98 / 100]))
                << " ms\n";
    }
    // Mean per-stage breakdown over trace-sampled replies (reply annexes),
    // in wall ns as the serving pipeline measured them.
    std::array<std::int64_t, telemetry::kNumStages> stage_sum{};
    std::uint64_t annexed = 0;
    for (const auto& r : result.requests) {
      if (r.annex.empty()) continue;
      ++annexed;
      for (const telemetry::StageSpan& span : r.annex) {
        stage_sum[static_cast<std::size_t>(span.stage)] += span.dur_ns;
      }
    }
    if (annexed > 0) {
      std::cout << "  traced " << annexed << " requests; mean stage ms:";
      for (int s = 0; s < telemetry::kNumStages; ++s) {
        if (stage_sum[static_cast<std::size_t>(s)] == 0) continue;
        std::cout << " " << telemetry::StageName(static_cast<telemetry::Stage>(s))
                  << "="
                  << TablePrinter::Num(
                         ToMillis(stage_sum[static_cast<std::size_t>(s)] /
                                  static_cast<std::int64_t>(annexed)));
      }
      std::cout << "\n";
    }
    return 0;
  }

  baselines::ScenarioConfig config;
  config.model = runtime::ModelSpec::BertBase();
  config.gpus = gpus;
  config.slo = Millis(slo_ms);
  config.period = Seconds(5.0);
  config.enable_reallocation = !freeze_alloc;

  serving::TestbedConfig testbed;
  testbed.time_scale = 1.0 / speed;
  testbed.cancel = &g_interrupted;
  if (!tenant_table.Empty()) testbed.tenants = &tenant_table;
  testbed.max_batch = static_cast<int>(max_batch);
  config.max_batch = testbed.max_batch;  // profiles see the batched cost
  batch::BatchPolicyConfig bpc;
  bpc.slo = config.slo;
  const auto batch_policy = batch::MakeBatchPolicy(batch_policy_name, bpc);
  testbed.batch_policy = batch_policy.get();

  batch::GenerativeConfig gen_config;
  if (generative) {
    gen_config.mode = batch::ParseGenBatcherMode(gen_batcher);
    gen_config.admission = batch::ParseGenAdmission(gen_admission);
    // 0 (the default) derives the cap from a 16 GB KV budget at the model's
    // native max context — the formula docs/GENERATIVE.md walks through.
    gen_config.kv_capacity =
        kv_capacity == 0
            ? runtime::KvSequenceCapacity(config.model, 16.0,
                                          config.model.native_max_length)
            : batch::ValidateKvCapacity(kv_capacity);
    testbed.generative = &gen_config;
  }

  fault::FaultPlan plan;
  if (!plan_path.empty()) {
    plan = fault::FaultPlan::ParseFile(plan_path);
    testbed.fault_plan = &plan;
    testbed.resilience.hang_timeout = Seconds(hang_timeout_s);
  }

  // Telemetry: always on for --listen and for the admin plane (both exist
  // to observe a live run); otherwise only when an output file was
  // requested.  The testbed records from its executor thread and from the
  // submitting threads, so the sink is built with the multi-threaded
  // (sharded) layout.
  std::unique_ptr<telemetry::TelemetrySink> sink;
  if (listen || admin || !metrics_out.empty() || !trace_out.empty()) {
    telemetry::TelemetryConfig tcfg;
    tcfg.run_id = 99;
    tcfg.concurrency = telemetry::Concurrency::kMultiThreaded;
    tcfg.max_trace_events =
        trace_max_events > 0 ? static_cast<std::size_t>(trace_max_events) : 0;
    sink = std::make_unique<telemetry::TelemetrySink>(tcfg);
    testbed.telemetry = sink.get();
    if (!tenant_table.Empty()) {
      std::vector<std::string> names;
      for (const tenant::TenantClass& klass : tenant_table.Classes()) {
        names.push_back(klass.name);
      }
      sink->EnableTenantMetrics(names);
    }
  }

  // Observability plane (only when --admin-port was given): flight recorder
  // mirroring every trace event, SLO burn monitor + storm trigger on the
  // sink's observer fan-out, and the watcher that turns dump requests
  // (SIGUSR1, POST /debug/dump handles its own, storm trigger) into files.
  std::unique_ptr<obs::FlightRecorder> flight;
  std::unique_ptr<obs::SloMonitor> slo_monitor;
  std::unique_ptr<obs::TenantSloSet> tenant_slo;
  std::unique_ptr<obs::DumpTrigger> dump_trigger;
  std::unique_ptr<DumpWatcher> dump_watcher;
  if (admin) {
    flight = std::make_unique<obs::FlightRecorder>();
    sink->Tracer().SetMirror(flight.get());
    obs::SloMonitorConfig smc;
    smc.slo = config.slo;
    smc.sink = sink.get();
    slo_monitor = std::make_unique<obs::SloMonitor>(smc);
    sink->AddObserver(slo_monitor.get());
    if (!tenant_table.Empty()) {
      // Per-class burn monitoring: each class's SLO is its deadline.
      tenant_slo = std::make_unique<obs::TenantSloSet>(tenant_table, smc);
      sink->AddObserver(tenant_slo.get());
    }
    obs::DumpTriggerConfig dtc;
    dtc.on_storm = [] {
      g_dump_requested.store(true, std::memory_order_relaxed);
    };
    dump_trigger = std::make_unique<obs::DumpTrigger>(std::move(dtc));
    sink->AddObserver(dump_trigger.get());
    dump_watcher = std::make_unique<DumpWatcher>(*flight, dump_out);
  }

  // Builds the admin plane over a running LiveTestbed; both serving modes
  // call this right after Start().
  const auto make_admin_plane =
      [&](serving::LiveTestbed& backend) -> std::unique_ptr<obs::AdminPlane> {
    if (!admin) return nullptr;
    obs::AdminPlaneConfig apc;
    apc.port = static_cast<std::uint16_t>(admin_port);
    apc.sink = sink.get();
    apc.statusz = [&backend](std::ostream& os) { backend.WriteStatusJson(os); };
    apc.healthz = [&backend] {
      const serving::TestbedHealth h = backend.Health();
      obs::AdminPlaneConfig::HealthzReport report;
      report.ok = h.ok;
      std::ostringstream os;
      os << "{\"live_workers\":" << h.live_workers
         << ",\"outstanding\":" << h.outstanding << ",\"hung\":" << h.hung.size()
         << "}";
      report.detail_json = os.str();
      return report;
    };
    apc.now = [&backend] { return backend.Now(); };
    apc.slo = slo_monitor.get();
    apc.tenant_slo = tenant_slo.get();
    apc.flight = flight.get();
    apc.realloc = [&backend](const std::vector<int>& allocation) {
      return backend.ApplyAllocation(allocation);
    };
    auto plane = std::make_unique<obs::AdminPlane>(std::move(apc));
    plane->Start();
    // Flushed eagerly: scripts (check.sh admin smoke) parse this line from a
    // redirected pipe while the process is still running.
    std::cout << "admin plane on 127.0.0.1:" << plane->Port()
              << " (/metrics /healthz /statusz /slo /realloc /debug/dump)"
              << std::endl;
    return plane;
  };

  serving::TestbedResult result;
  if (listen) {
    // --listen: serve the wire protocol until Ctrl-C.
    auto runtimes = baselines::MakeRuntimeSetFor(config);
    auto scheme = baselines::MakeSchemeByName("arlo", config);
    testbed.mix_bounds = runtimes->BinUpperBounds();
    serving::LiveTestbed backend(*scheme, testbed);
    backend.Start();
    auto admin_plane = make_admin_plane(backend);

    net::ServerConfig sc;
    sc.port = static_cast<std::uint16_t>(listen_port);
    sc.admission.max_inflight = max_inflight;
    sc.admission.rate_limit = rate_limit;
    if (!tenant_table.Empty()) sc.admission.tenants = &tenant_table;
    sc.telemetry = sink.get();
    net::Server server(backend, sc);
    server.Start();
    // Flushed eagerly: cluster scripts and bench/cluster_sweep parse this
    // line from a redirected pipe while the process is still running.
    std::cout << "listening on 127.0.0.1:" << server.Port() << " ("
              << config.gpus << " workers, speed " << speed
              << "x); Ctrl-C to stop" << std::endl;

    while (!g_interrupted.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::cout << "\nshutting down...\n";
    server.Stop();
    const net::ServerStats stats = server.Stats();
    std::cout << "server: " << stats.connections_accepted << " connections, "
              << stats.accepted << " accepted, " << stats.TotalRejected()
              << " rejected, " << stats.replies_sent << " replies, "
              << stats.protocol_errors << " protocol errors, bytes "
              << stats.bytes_in << " in / " << stats.bytes_out << " out\n";
    if (admin_plane) admin_plane->Stop();  // providers reference the backend
    result = backend.Finish();
  } else {
    // Default: in-process trace replay (Ctrl-C stops the frontend early;
    // already-submitted requests still drain).
    trace::TwitterTraceConfig workload;
    workload.duration_s = seconds;
    workload.mean_rate = rate;
    workload.seed = 99;
    if (generative) {
      workload.decode_lengths = trace::ParseDecodeLengthDist(decode_dist);
    }
    add_tenant_tracks(workload);
    const trace::Trace trace = trace::SynthesizeTwitterTrace(workload);

    auto runtimes = baselines::MakeRuntimeSetFor(config);
    config.initial_demand =
        baselines::DemandFromTrace(trace, *runtimes, config.slo);
    auto scheme = baselines::MakeSchemeByName("arlo", config);
    testbed.mix_bounds = runtimes->BinUpperBounds();

    std::cout << "replaying " << trace.Size() << " requests over ~"
              << seconds / speed << " wall seconds on " << config.gpus
              << " GPU instances...\n";
    if (admin) {
      // With an admin plane the replay runs on an explicit LiveTestbed so
      // the /statusz and /healthz providers have a backend to inspect —
      // RunTestbed's internal testbed is not reachable from outside.
      serving::LiveTestbed backend(*scheme, testbed);
      backend.Start();
      auto admin_plane = make_admin_plane(backend);
      for (const Request& r : trace.Requests()) {
        if (g_interrupted.load(std::memory_order_relaxed)) break;
        while (backend.Now() < r.arrival &&
               !g_interrupted.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        backend.Submit(r);
      }
      if (admin_plane) admin_plane->Stop();
      result = backend.Finish();
    } else {
      result = serving::RunTestbed(trace, *scheme, testbed);
    }
    if (g_interrupted.load(std::memory_order_relaxed)) {
      std::cout << "\ninterrupted: stopped after " << result.records.size()
                << " requests\n";
    }
  }
  // Stop the dump watcher before the flight recorder can go away; a pending
  // SIGUSR1/storm request is flushed here.
  dump_watcher.reset();

  if (sink && !metrics_out.empty()) {
    telemetry::WriteMetricsFile(*sink, metrics_out);
  }
  if (sink && !trace_out.empty()) telemetry::WriteTraceFile(*sink, trace_out);

  PrintResult(result, config);
  if (!tenant_table.Empty()) {
    PrintTenantSummary(tenant_table, result.records, sink.get());
  }
  if (sink) PrintTelemetrySummary(*sink);
  return 0;
}

int main(int argc, char** argv) { return RunCliMain(argc, argv, Run); }
