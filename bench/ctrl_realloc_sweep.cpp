// Cluster Runtime Scheduler under length-mix drift (src/ctrl).
//
// Spawns 3 real `live_serving --listen --freeze-alloc` backend processes
// (frozen local reallocation: every node boots with all GPUs on the largest
// runtime and keeps them there unless an external controller ships a
// delta), fronts them with an in-process cluster::Router, and replays a
// trace whose length mix flips hard at the midpoint: uniformly short
// requests in the first half, uniformly long in the second.  Two rows:
//
//   frozen   no controller — the startup allocation serves both phases, so
//            short requests pay the full large-runtime padding cost
//   ctrl     a ClusterScheduler scrapes the nodes' /statusz length mixes,
//            KS-gates the drift, re-solves the fleet ILP, and ships
//            per-node deltas through POST /realloc mid-replay
//
// The acceptance criteria this bench certifies (scripts/check.sh ctrl bench
// smoke, EXPERIMENTS.md): ctrl p98 <= frozen p98, lost = 0 on both rows
// (reallocation is zero-loss — retired workers requeue, nothing drops), and
// replans >= 1 on the ctrl row.
//
// Output: one CSV block (stdout); --json=PATH writes BENCH_ctrl.json.
#include "bench_util.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "ctrl/scheduler.h"
#include "net/client.h"
#include "obs/probe.h"
#include "runtime/profiler.h"
#include "runtime/runtime_set.h"

using namespace arlo;

namespace {

/// A live_serving --listen --freeze-alloc child (see bench/cluster_sweep.cpp
/// for the pipe/port-parsing protocol this mirrors).
class BackendProcess {
 public:
  ~BackendProcess() { Stop(); }

  bool Spawn(const std::string& binary, int gpus, double speed) {
    int fds[2];
    if (::pipe(fds) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid_ == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::dup2(fds[1], STDERR_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      const std::string gpus_arg = "--gpus=" + std::to_string(gpus);
      char speed_buf[32];
      std::snprintf(speed_buf, sizeof(speed_buf), "--speed=%g", speed);
      ::execl(binary.c_str(), binary.c_str(), "--listen=0", "--admin-port=0",
              "--freeze-alloc", gpus_arg.c_str(), speed_buf,
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    return ParsePorts();
  }

  std::uint16_t Port() const { return port_; }
  std::uint16_t AdminPort() const { return admin_port_; }

  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (drain_.joinable()) drain_.join();
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

 private:
  bool ParsePorts() {
    std::string buffer;
    char chunk[256];
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (std::chrono::steady_clock::now() < give_up) {
      const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;  // child died before announcing
      buffer.append(chunk, static_cast<std::size_t>(n));
      FindPort(buffer, "listening on 127.0.0.1:", port_);
      FindPort(buffer, "admin plane on 127.0.0.1:", admin_port_);
      if (port_ != 0 && admin_port_ != 0) {
        const int fd = out_fd_;
        drain_ = std::thread([fd] {
          char sink[512];
          while (::read(fd, sink, sizeof(sink)) > 0) {
          }
        });
        return true;
      }
    }
    return false;
  }

  static void FindPort(const std::string& buffer, const char* marker,
                       std::uint16_t& out) {
    if (out != 0) return;
    const std::size_t at = buffer.find(marker);
    if (at == std::string::npos) return;
    const char* digits = buffer.c_str() + at + std::strlen(marker);
    const long port = std::strtol(digits, nullptr, 10);
    if (port > 0 && port <= 65535) out = static_cast<std::uint16_t>(port);
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t admin_port_ = 0;
  std::thread drain_;
};

/// The drifting workload: Poisson arrivals at `rate`; lengths are uniform
/// [8, 64] in the first half, then 30% of the mass shifts to uniform
/// [129, 256] — a step-drift of the mix (Fig. 1's slow drift, compressed
/// into one cliff).  The adversarial case for an allocation planned on the
/// first-half mix: the shifted mass is only servable by runtimes it kept
/// no capacity on.
trace::Trace MakeDriftTrace(double rate, double duration_s,
                            std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<int> short_len(8, 64);
  std::uniform_int_distribution<int> mid_len(129, 256);
  std::bernoulli_distribution shifted(0.3);
  const double flip_s = duration_s / 2.0;
  std::vector<Request> requests;
  double t = gap(rng);
  while (t < duration_s) {
    Request r;
    r.arrival = Seconds(t);
    r.length = t < flip_s || !shifted(rng) ? short_len(rng) : mid_len(rng);
    requests.push_back(r);
    t += gap(rng);
  }
  return trace::Trace(std::move(requests));
}

struct Row {
  std::string mode;
  int nodes = 0;
  double offered_rps = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t lost = 0;
  double p50_ms = 0.0;
  double p98_ms = 0.0;
  double p98_short_ms = 0.0;  ///< first (short-mix) phase
  double p98_long_ms = 0.0;   ///< second (long-mix) phase
  std::uint64_t replans = 0;
  std::uint64_t deltas_applied = 0;
  std::uint64_t deltas_rejected = 0;
  double apply_ms = 0.0;  ///< mean wall-clock POST /realloc round trip
};

double PercentileMs(std::vector<SimDuration> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t idx = std::min(
      values.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(values.size())));
  return ToMillis(values[idx]);
}

Row RunCell(bool with_ctrl, const std::string& backend_binary, int nodes,
            int gpus, double speed, double per_node_rps, double duration_s,
            double ctrl_period_s, std::uint64_t seed) {
  std::vector<std::unique_ptr<BackendProcess>> backends;
  cluster::RouterConfig rc;
  // Length-aware routing: the scheduler specializes nodes by runtime, and
  // the router must steer each length to a node whose workers fit it, or
  // the right-sized capacity sits idle behind other nodes' queues.  On the
  // frozen row every node is identical, so the policy degrades to its
  // queue-delay tie-break — the comparison stays apples-to-apples.
  rc.policy = "length";
  rc.probe_period = std::chrono::milliseconds(25);
  rc.seed = seed;
  for (int i = 0; i < nodes; ++i) {
    auto backend = std::make_unique<BackendProcess>();
    if (!backend->Spawn(backend_binary, gpus, speed)) {
      throw std::runtime_error("failed to spawn backend " + backend_binary);
    }
    cluster::NodeEndpoint endpoint;
    endpoint.name = "bench-" + std::to_string(i);
    endpoint.port = backend->Port();
    endpoint.admin_port = backend->AdminPort();
    rc.nodes.push_back(endpoint);
    backends.push_back(std::move(backend));
  }

  cluster::Router router(rc);
  router.Start();
  if (router.Pool().NumRoutable() != nodes) {
    throw std::runtime_error("router failed to join all backends");
  }

  // The scheduler profiles the identical runtime set / SLO / profiling
  // overhead the nodes serve with (live_serving --listen defaults), so its
  // ILP prices the fleet the way the fleet actually runs.
  telemetry::TelemetryConfig tcfg;
  tcfg.concurrency = telemetry::Concurrency::kMultiThreaded;
  telemetry::TelemetrySink sink(tcfg);
  std::unique_ptr<ctrl::ClusterScheduler> scheduler;
  if (with_ctrl) {
    baselines::ScenarioConfig scenario;
    scenario.model = runtime::ModelSpec::BertBase();
    scenario.slo = Millis(150.0);
    const auto runtimes = baselines::MakeRuntimeSetFor(scenario);
    ctrl::ClusterSchedulerConfig cc;
    for (std::size_t i = 0; i < runtimes->Size(); ++i) {
      cc.profiles.push_back(runtime::ProfileRuntime(
          runtimes->Runtime(static_cast<RuntimeId>(i)), scenario.slo,
          static_cast<RuntimeId>(i), Millis(0.8)));
    }
    cc.slo_seconds = 0.15;
    cc.scrape_period_s = ctrl_period_s;
    // A 3 s window at ~2 kreq/s holds thousands of samples, so the KS gate
    // at 0.1 sits far above two-sample noise while reacting ~1 s after the
    // midpoint cliff (shifted fraction must reach threshold/shift-size of
    // the window before D crosses).
    cc.ks_threshold = 0.1;
    cc.min_window_samples = 100;
    cc.window_span_s = 3.0;
    // Plan ~20% above measured demand: at capacity == demand the ILP packs
    // runtimes to ~100% utilization and queueing tails explode.
    cc.demand_headroom = 1.2;
    cc.sink = &sink;
    std::vector<ctrl::CtrlNode> targets;
    for (int i = 0; i < nodes; ++i) {
      targets.push_back(ctrl::CtrlNode{i, backends[static_cast<std::size_t>(i)]
                                              ->AdminPort()});
    }
    scheduler = std::make_unique<ctrl::ClusterScheduler>(
        [targets] { return targets; }, std::move(cc));
    scheduler->Start();
  }

  // ARLO_CTRL_DEBUG=1: trace the control loop against the fleet's actual
  // ready-runtime vectors on stderr while the replay runs.
  std::atomic<bool> dbg_stop{false};
  std::thread dbg;
  if (with_ctrl && std::getenv("ARLO_CTRL_DEBUG") != nullptr) {
    dbg = std::thread([&] {
      while (!dbg_stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        const auto cs = scheduler->GetStats();
        std::ostringstream os;
        os << "[dbg] rounds=" << cs.rounds << " replans=" << cs.replans
           << " ship=" << cs.deltas_shipped << " ok=" << cs.deltas_applied
           << " rej=" << cs.deltas_rejected << " ks=" << cs.last_ks
           << " incumbent=";
        for (int v : cs.incumbent) os << v << ",";
        os << " nodes=";
        for (const auto& b : backends) {
          const obs::NodeProbe p = obs::ProbeAdminEndpoint(b->AdminPort());
          os << "[";
          for (int rt : p.ReadyRuntimes()) os << rt << " ";
          os << "]";
        }
        std::cerr << os.str() << "\n";
      }
    });
  }

  const double offered = per_node_rps * nodes;
  const trace::Trace trace = MakeDriftTrace(offered, duration_s, seed);

  net::LoadGeneratorConfig lg;
  lg.port = router.Port();
  lg.connections = std::max(2, 2 * nodes);
  lg.time_scale = 1.0 / speed;  // wall/sim ratio; matches backend --speed
  const net::LoadGeneratorResult result = net::RunLoadGenerator(trace, lg);

  dbg_stop.store(true);
  if (dbg.joinable()) dbg.join();
  ctrl::ClusterScheduler::Stats cs;
  if (scheduler) {
    scheduler->Stop();
    cs = scheduler->GetStats();
  }
  router.Stop();
  for (auto& backend : backends) backend->Stop();

  Row row;
  row.mode = with_ctrl ? "ctrl" : "frozen";
  row.nodes = nodes;
  row.offered_rps = offered;
  row.sent = result.sent;
  row.ok = result.CountByStatus(net::ReplyStatus::kOk);
  for (const auto& r : result.requests) {
    if (r.replied && r.status != net::ReplyStatus::kOk) ++row.rejected;
  }
  row.lost = result.Lost();
  const SimTime flip = Seconds(duration_s / 2.0);
  std::vector<SimDuration> all;
  std::vector<SimDuration> phase_short;
  std::vector<SimDuration> phase_long;
  for (const auto& r : result.requests) {
    if (!r.replied || r.status != net::ReplyStatus::kOk) continue;
    all.push_back(r.latency);
    (r.arrival < flip ? phase_short : phase_long).push_back(r.latency);
  }
  row.p50_ms = PercentileMs(all, 0.50);
  row.p98_ms = PercentileMs(all, 0.98);
  row.p98_short_ms = PercentileMs(phase_short, 0.98);
  row.p98_long_ms = PercentileMs(phase_long, 0.98);
  row.replans = cs.replans;
  row.deltas_applied = cs.deltas_applied;
  row.deltas_rejected = cs.deltas_rejected;
  if (scheduler) {
    row.apply_ms = scheduler->Metrics().apply_ns->MeanNs() / 1e6;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  // --backend is ours; strip it before BenchArgs rejects unknown flags.
  std::string backend_binary = "./build/examples/live_serving";
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const char* prefix = "--backend=";
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) {
      backend_binary = argv[i] + std::strlen(prefix);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const bench::BenchArgs args = bench::BenchArgs::Parse(
      static_cast<int>(passthrough.size()), passthrough.data());
  if (::access(backend_binary.c_str(), X_OK) != 0) {
    std::cerr << "backend binary not executable: " << backend_binary
              << " (pass --backend=PATH)\n";
    return 2;
  }

  // The regime where right-sizing is the capacity story (§3): 3 GPUs/node
  // all on the largest runtime serve ~525 req/s, so 700 req/s/node
  // overloads the frozen fleet (~133%, queues grow without bound) while
  // fitting comfortably inside a right-sized allocation in both phases
  // (mostly-small runtimes clear ~3 kreq/s).  Phases must be long relative
  // to the 1 s runtime-switch provisioning delay, or the rollout transient
  // dominates what it buys.
  // Real time (speed 1), unlike cluster_sweep: the control plane measures
  // demand in wall-clock arrivals against sim-calibrated capacity profiles,
  // so compressed replay would inflate demand by the compression factor.
  const int nodes = 3;
  const int gpus = 3;
  const double speed = 1.0;
  const double per_node_rps = 700.0;
  // Long enough that frozen's unbounded queue growth dominates its p98
  // while ctrl's fixed-size transients (bootstrap rollout, drift
  // detection + convergence, each a few seconds) amortize away.
  const double duration_s = args.Duration(24.0, 36.0);
  // Several control rounds per phase: the bootstrap plan lands within the
  // first rounds and the KS gate reopens shortly after the midpoint flip.
  const double ctrl_period_s = 0.1;

  std::vector<Row> rows;
  for (const bool with_ctrl : {false, true}) {
    std::cerr << "cell " << (with_ctrl ? "ctrl" : "frozen") << " nodes="
              << nodes << "...\n";
    rows.push_back(RunCell(with_ctrl, backend_binary, nodes, gpus, speed,
                           per_node_rps, duration_s, ctrl_period_s,
                           args.seed));
  }

  TablePrinter t("ctrl realloc under drift");
  t.SetHeader({"mode", "nodes", "offered_rps", "sent", "ok", "rejected",
               "lost", "p50_ms", "p98_ms", "p98_short_ms", "p98_long_ms",
               "replans", "deltas_applied", "deltas_rejected", "apply_ms"});
  for (const Row& r : rows) {
    t.AddRow({r.mode, TablePrinter::Int(r.nodes),
              TablePrinter::Num(r.offered_rps),
              TablePrinter::Int(static_cast<long long>(r.sent)),
              TablePrinter::Int(static_cast<long long>(r.ok)),
              TablePrinter::Int(static_cast<long long>(r.rejected)),
              TablePrinter::Int(static_cast<long long>(r.lost)),
              TablePrinter::Num(r.p50_ms), TablePrinter::Num(r.p98_ms),
              TablePrinter::Num(r.p98_short_ms),
              TablePrinter::Num(r.p98_long_ms),
              TablePrinter::Int(static_cast<long long>(r.replans)),
              TablePrinter::Int(static_cast<long long>(r.deltas_applied)),
              TablePrinter::Int(static_cast<long long>(r.deltas_rejected)),
              TablePrinter::Num(r.apply_ms)});
  }
  t.PrintCsv(std::cout);
  args.WriteJson(t);
  return 0;
}
