// Differential test: the simulator and the threaded testbed run the same
// executor core, so one trace under one seeded fault plan must come out of
// both substrates with the same requests served exactly once, and both must
// actually have exercised the retry and requeue paths.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "baselines/scenario.h"
#include "fault/fault_plan.h"
#include "serving/testbed.h"
#include "sim/engine.h"
#include "trace/twitter.h"

namespace arlo {
namespace {

std::unique_ptr<sim::Scheme> ArloScheme(const trace::Trace& t) {
  baselines::ScenarioConfig config;
  config.gpus = 4;
  config.period = Seconds(30.0);  // no periodic churn: the plan drives it
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand = baselines::DemandFromTrace(t, *runtimes, config.slo);
  return baselines::MakeSchemeByName("arlo", config);
}

/// Request id -> times served.
std::map<RequestId, int> ServedCounts(
    const std::vector<RequestRecord>& records) {
  std::map<RequestId, int> counts;
  for (const RequestRecord& r : records) ++counts[r.id];
  return counts;
}

TEST(ExecutorDifferential, SimAndTestbedServeTheSameRequestsUnderFaults) {
  trace::TwitterTraceConfig tc;
  tc.duration_s = 2.0;
  tc.mean_rate = 250.0;
  tc.seed = 41;
  const trace::Trace t = trace::SynthesizeTwitterTrace(tc);

  fault::FaultPlan plan;
  plan.seed = 5;
  plan.dispatch_error_prob = 0.05;
  plan.HangAt(Seconds(0.4), 1, Seconds(10.0)).CrashAt(Seconds(0.6), 0);
  fault::ResiliencePolicy resilience;
  resilience.hang_timeout = Millis(300.0);

  auto sim_scheme = ArloScheme(t);
  sim::EngineConfig engine;
  engine.fault_plan = &plan;
  engine.resilience = resilience;
  const sim::EngineResult sim = sim::RunScenario(t, *sim_scheme, engine);

  auto tb_scheme = ArloScheme(t);
  serving::TestbedConfig tb;
  tb.time_scale = 0.25;
  tb.fault_plan = &plan;
  tb.resilience = resilience;
  const serving::TestbedResult live = serving::RunTestbed(t, *tb_scheme, tb);

  std::map<RequestId, int> want;
  for (const Request& r : t.Requests()) want[r.id] = 1;
  EXPECT_EQ(ServedCounts(sim.records), want);
  EXPECT_EQ(ServedCounts(live.records), want);
  for (const auto* counters :
       {static_cast<const sim::ExecutorCounters*>(&sim),
        static_cast<const sim::ExecutorCounters*>(&live)}) {
    EXPECT_GT(counters->requeues, 0u);
    EXPECT_GT(counters->retries, 0u);
    EXPECT_GE(counters->injected_failures, 2);  // the crash + the reaped hang
  }
}

}  // namespace
}  // namespace arlo
