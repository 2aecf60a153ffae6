// Golden pins for the simulator's executor paths: fault injection, the
// generative iteration loop, tenant-aware batching and the legacy mtbf
// knobs.  Each case hashes (FNV-1a) the seeded run's Chrome trace plus a
// dump of every EngineResult counter and record; the constants were
// generated before the executor logic was shared with the threaded testbed,
// so any behavioural drift in dispatch, batching, faults or record building
// moves a hash.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "baselines/scenario.h"
#include "batch/continuous.h"
#include "batch/policy.h"
#include "fault/fault_plan.h"
#include "golden_dump.h"
#include "sim/engine.h"
#include "telemetry/sink.h"
#include "tenant/class_table.h"
#include "trace/generative.h"
#include "trace/twitter.h"

namespace arlo {
namespace {

using golden::Fnv1a;

/// Chrome trace + every EngineResult field, as one string.
std::string Dump(const sim::EngineResult& result,
                 const telemetry::TelemetrySink& sink) {
  std::ostringstream os;
  sink.WriteChromeTrace(os);
  golden::DumpResult(os, result);
  return os.str();
}

trace::Trace TwitterTrace(double rate, double duration_s, std::uint64_t seed) {
  trace::TwitterTraceConfig tc;
  tc.duration_s = duration_s;
  tc.mean_rate = rate;
  tc.seed = seed;
  return trace::SynthesizeTwitterTrace(tc);
}

std::unique_ptr<sim::Scheme> Arlo(const trace::Trace& t, int gpus,
                                  int max_batch = 1) {
  baselines::ScenarioConfig config;
  config.gpus = gpus;
  config.period = Seconds(2.0);
  config.max_batch = max_batch;
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand = baselines::DemandFromTrace(t, *runtimes, config.slo);
  return baselines::MakeSchemeByName("arlo", config);
}

sim::EngineResult RunFaultPlan(const trace::Trace& t, int gpus,
                               const fault::FaultPlan& plan,
                               SimDuration hang_timeout,
                               SimDuration shed_deadline,
                               telemetry::TelemetrySink& sink) {
  auto scheme = Arlo(t, gpus);
  sim::EngineConfig engine;
  engine.fault_plan = &plan;
  engine.resilience.hang_timeout = hang_timeout;
  engine.resilience.shed_deadline = shed_deadline;
  engine.telemetry = &sink;
  return sim::RunScenario(t, *scheme, engine);
}

// (a) Every FaultPlan feature: scheduled crash, hang, slowdown, transient
// dispatch errors and random crashes — first under the exact plan and load
// of FaultPlanSim.SeededRunsProduceByteIdenticalTraces, then overloaded with
// a hang long enough to be reaped and a deadline short enough to shed.
TEST(ExecutorGolden, FaultPlanRunIsByteIdentical) {
  fault::FaultPlan plan;
  plan.seed = 9;
  plan.dispatch_error_prob = 0.02;
  plan.random_crash_mtbf_s = 3.0;
  plan.CrashAt(Seconds(2.0), 1)
      .HangAt(Seconds(2.5), 3, Millis(600.0))
      .SlowdownAt(Seconds(3.0), 4, Seconds(1.0), 3.0);
  {
    telemetry::TelemetrySink sink;
    const sim::EngineResult result =
        RunFaultPlan(TwitterTrace(500.0, 6.0, 22), 6, plan, Seconds(2.0),
                     Millis(500.0), sink);
    EXPECT_GT(result.retries, 0u);
    EXPECT_EQ(Fnv1a(Dump(result, sink)), 1113378317265432646ull);
  }
  plan.HangAt(Seconds(1.5), 0, Seconds(5.0));
  {
    telemetry::TelemetrySink sink;
    const sim::EngineResult result =
        RunFaultPlan(TwitterTrace(600.0, 6.0, 22), 2, plan, Millis(400.0),
                     Millis(150.0), sink);
    EXPECT_GT(result.requeues, 0u);
    EXPECT_GT(result.sheds, 0u);
    EXPECT_GT(result.buffered_requests, 0u);
    EXPECT_EQ(Fnv1a(Dump(result, sink)), 12903235645317765187ull);
  }
}

// (b) Generative serving with a tight KV cap, so prefill-first admission
// preempts residents; a mid-run crash exercises StealAll + recompute.
TEST(ExecutorGolden, GenerativeRunWithPreemptionIsByteIdentical) {
  trace::TwitterTraceConfig tc;
  tc.duration_s = 3.0;
  tc.mean_rate = 200.0;
  tc.seed = 23;
  tc.decode_lengths = trace::ParseDecodeLengthDist("mixed");
  const trace::Trace t = trace::SynthesizeTwitterTrace(tc);
  auto scheme = Arlo(t, 3);
  batch::GenerativeConfig gen;
  gen.kv_capacity = 3;
  fault::FaultPlan plan;
  plan.seed = 4;
  plan.CrashAt(Seconds(1.5), 0).HangAt(Seconds(1.0), 1, Millis(200.0));
  telemetry::TelemetrySink sink;
  sim::EngineConfig engine;
  engine.generative = &gen;
  engine.fault_plan = &plan;
  engine.telemetry = &sink;
  const sim::EngineResult result = sim::RunScenario(t, *scheme, engine);
  EXPECT_GT(result.gen_preemptions, 0u);
  EXPECT_EQ(Fnv1a(Dump(result, sink)), 15562894056693737126ull);
}

// (c) A tenant class table under the waiting "slo" batch policy at batch 4.
TEST(ExecutorGolden, TenantSloBatchingRunIsByteIdentical) {
  trace::TwitterTraceConfig tc;
  tc.duration_s = 4.0;
  tc.mean_rate = 600.0;
  tc.seed = 31;
  tc.tenants.resize(3);
  tc.tenants[0].fraction = 0.2;
  tc.tenants[1].fraction = 0.5;
  tc.tenants[2].fraction = 0.3;
  const trace::Trace t = trace::SynthesizeTwitterTrace(tc);
  const tenant::TenantClassTable table = tenant::TenantClassTable::Parse(
      "interactive:w8:slo50,batch:w2:slo500,best:w1:slo2000:shed");
  auto scheme = Arlo(t, 4, 4);
  auto policy = batch::MakeBatchPolicy("slo");
  telemetry::TelemetrySink sink;
  sim::EngineConfig engine;
  engine.max_batch = 4;
  engine.batch_policy = policy.get();
  engine.tenants = &table;
  engine.telemetry = &sink;
  const sim::EngineResult result = sim::RunScenario(t, *scheme, engine);
  EXPECT_GT(result.batch_timeouts, 0u);
  EXPECT_EQ(Fnv1a(Dump(result, sink)), 17232718325860178626ull);
}

// (d) The pre-plan fault knobs: exponential random crashes from fault_seed.
TEST(ExecutorGolden, LegacyMtbfRunIsByteIdentical) {
  const trace::Trace t = TwitterTrace(300.0, 8.0, 5);
  auto scheme = Arlo(t, 4);
  telemetry::TelemetrySink sink;
  sim::EngineConfig engine;
  engine.mean_time_between_failures_s = 2.0;
  engine.fault_seed = 13;
  engine.telemetry = &sink;
  const sim::EngineResult result = sim::RunScenario(t, *scheme, engine);
  EXPECT_GT(result.injected_failures, 0);
  EXPECT_EQ(Fnv1a(Dump(result, sink)), 6632588879405898808ull);
}

}  // namespace
}  // namespace arlo
