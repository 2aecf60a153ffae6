// Cluster Runtime Scheduler end-to-end on 127.0.0.1: two real frozen
// backends (LiveTestbed + AdminPlane, the live_serving --freeze-alloc
// wiring) under a ClusterScheduler driven round by round.  Pins the full
// control loop: scrape -> bootstrap plan -> delta apply, then a length-mix
// flip mid-run -> drift fire -> second plan -> the fleet's allocation
// actually changes — with every submitted request completing (zero-loss
// reallocation).  CtrlLive.* runs under TSan and ASan in check.sh: scrapes
// and POST /realloc race live dispatch and worker replacement.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/scenario.h"
#include "ctrl/scheduler.h"
#include "obs/admin_server.h"
#include "obs/probe.h"
#include "runtime/profiler.h"
#include "runtime/runtime_set.h"
#include "serving/live_testbed.h"
#include "telemetry/sink.h"

namespace arlo::ctrl {
namespace {

using namespace std::chrono_literals;

bool WaitFor(const std::function<bool()>& done,
             std::chrono::milliseconds budget = 10000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return done();
}

/// One backend node the way live_serving --listen --freeze-alloc builds it:
/// frozen arlo scheme, live testbed exporting the length mix, admin plane
/// accepting POST /realloc.
struct CtrlBackend {
  std::unique_ptr<sim::Scheme> scheme;
  std::unique_ptr<serving::LiveTestbed> testbed;
  std::unique_ptr<obs::AdminPlane> plane;
  std::uint64_t submitted = 0;

  CtrlBackend(const baselines::ScenarioConfig& config,
              const std::vector<int>& mix_bounds) {
    scheme = baselines::MakeSchemeByName("arlo", config);
    serving::TestbedConfig tb;
    tb.time_scale = 0.02;  // 50x: worker replacement costs 1 s of sim time
    tb.mix_bounds = mix_bounds;
    testbed = std::make_unique<serving::LiveTestbed>(*scheme, tb);
    testbed->Start();

    obs::AdminPlaneConfig apc;
    apc.statusz = [this](std::ostream& os) { testbed->WriteStatusJson(os); };
    apc.healthz = [this] {
      obs::AdminPlaneConfig::HealthzReport report;
      report.ok = testbed->Health().ok;
      return report;
    };
    apc.now = [this] { return testbed->Now(); };
    apc.realloc = [this](const std::vector<int>& allocation) {
      return testbed->ApplyAllocation(allocation);
    };
    plane = std::make_unique<obs::AdminPlane>(std::move(apc));
    plane->Start();
  }

  ~CtrlBackend() {
    plane->Stop();
    (void)testbed->Finish();
  }

  void Submit(int count, int length) {
    for (int i = 0; i < count; ++i) {
      Request r;
      r.id = static_cast<RequestId>(++submitted);
      r.arrival = testbed->Now();
      r.length = length;
      testbed->Submit(r);
    }
  }

  obs::NodeProbe Probe() const {
    return obs::ProbeAdminEndpoint(plane->Port());
  }
};

TEST(CtrlLive, DriftReplansFleetMidRunWithZeroLoss) {
  baselines::ScenarioConfig config;
  config.model = runtime::ModelSpec::BertBase();
  config.gpus = 2;
  config.slo = Millis(150.0);
  config.enable_reallocation = false;  // frozen: only POST /realloc moves it
  const auto runtimes = baselines::MakeRuntimeSetFor(config);

  std::vector<std::unique_ptr<CtrlBackend>> nodes;
  for (int i = 0; i < 2; ++i) {
    nodes.push_back(
        std::make_unique<CtrlBackend>(config, runtimes->BinUpperBounds()));
  }
  // Every GPU boots on the largest runtime (empty initial demand).
  for (const auto& node : nodes) {
    const obs::NodeProbe probe = node->Probe();
    ASSERT_EQ(probe.ReadyRuntimes().size(), 2u);
    for (int rt : probe.ReadyRuntimes()) {
      EXPECT_EQ(rt, static_cast<int>(runtimes->Size()) - 1);
    }
  }

  ClusterSchedulerConfig cc;
  for (std::size_t i = 0; i < runtimes->Size(); ++i) {
    cc.profiles.push_back(runtime::ProfileRuntime(
        runtimes->Runtime(static_cast<RuntimeId>(i)), config.slo,
        static_cast<RuntimeId>(i), Millis(0.8)));
  }
  cc.slo_seconds = 0.15;
  cc.ks_threshold = 0.1;
  cc.min_window_samples = 20;
  cc.window_span_s = 60.0;  // rounds are hand-driven; never expire mid-test
  std::vector<CtrlNode> targets;
  for (int i = 0; i < 2; ++i) {
    targets.push_back(CtrlNode{i, nodes[static_cast<std::size_t>(i)]
                                      ->plane->Port()});
  }
  ClusterScheduler scheduler([targets] { return targets; }, std::move(cc));

  // Phase 1: a short-length flow.  The first round only baselines the
  // nodes' cumulative counters; once fresh counts land, the bootstrap plan
  // fires and ships deltas converting part of the fleet to small runtimes.
  ClusterScheduler::RoundReport report;
  bool bootstrapped = false;
  for (int round = 0; round < 50 && !bootstrapped; ++round) {
    for (auto& node : nodes) node->Submit(10, 48);
    std::this_thread::sleep_for(20ms);
    report = scheduler.RunOnce();
    bootstrapped = report.replanned && report.deltas_applied > 0;
  }
  ASSERT_TRUE(bootstrapped) << "bootstrap plan never shipped";
  EXPECT_FALSE(report.target.empty());
  EXPECT_GT(report.target[0], 0) << "short flow must buy small runtimes";

  // The rollout completes: no pending launches, and some ready worker now
  // runs a non-largest runtime.
  ASSERT_TRUE(WaitFor([&] {
    for (const auto& node : nodes) {
      const obs::NodeProbe probe = node->Probe();
      if (probe.pending_launches > 0) return false;
    }
    const ClusterScheduler::RoundReport r = scheduler.RunOnce();
    return r.nodes_reachable == 2 && !r.settle_hold;
  }));
  const auto MinReadyRuntime = [&] {
    int min_rt = static_cast<int>(runtimes->Size());
    for (const auto& node : nodes) {
      for (int rt : node->Probe().ReadyRuntimes()) {
        min_rt = std::min(min_rt, rt);
      }
    }
    return min_rt;
  };
  ASSERT_TRUE(WaitFor([&] {
    return MinReadyRuntime() < static_cast<int>(runtimes->Size()) - 1;
  }));
  const int phase1_min_rt = MinReadyRuntime();

  // Phase 2: the mix flips to mid lengths the small runtimes cannot serve.
  // The KS gate must fire and the second plan must change the fleet again.
  const std::uint64_t replans_before = scheduler.GetStats().replans;
  bool replanned = false;
  for (int round = 0; round < 100 && !replanned; ++round) {
    for (auto& node : nodes) node->Submit(10, 200);
    std::this_thread::sleep_for(20ms);
    report = scheduler.RunOnce();
    replanned = report.replanned && report.deltas_applied > 0 &&
                scheduler.GetStats().replans > replans_before;
  }
  ASSERT_TRUE(replanned) << "drift never re-planned the fleet";
  EXPECT_GT(report.ks, 0.1);

  // The fleet's deployment moved: a runtime fitting length 200 appears
  // where the phase-1 deployment had none below the largest except the
  // short-flow runtime.
  const int mid_bin = static_cast<int>(runtimes->IdealRuntimeFor(200));
  ASSERT_TRUE(WaitFor([&] {
    for (const auto& node : nodes) {
      for (int rt : node->Probe().ReadyRuntimes()) {
        if (rt >= mid_bin && rt < static_cast<int>(runtimes->Size()) - 1 &&
            rt != phase1_min_rt) {
          return true;
        }
      }
    }
    return false;
  })) << "no mid-runtime worker ever appeared";

  // Zero loss: every submitted request completes; the nodes report the
  // applied reallocations.
  std::uint64_t total_submitted = 0;
  std::int64_t total_applied = 0;
  for (auto& node : nodes) {
    node->testbed->Drain();
    total_submitted += node->submitted;
    const obs::NodeProbe probe = node->Probe();
    EXPECT_EQ(probe.completed, static_cast<std::int64_t>(node->submitted));
    total_applied += probe.reallocs_applied;
  }
  EXPECT_GT(total_submitted, 0u);
  EXPECT_GE(total_applied, 2);
  EXPECT_EQ(scheduler.GetStats().deltas_rejected +
                scheduler.GetStats().deltas_applied,
            scheduler.GetStats().deltas_shipped);
}

}  // namespace
}  // namespace arlo::ctrl
