// Golden pins for the scheme layer: the instance lifecycle, the Eq. 7
// guard, autoscaling and replacement rollout of every baseline and Arlo
// ablation.  Each case runs a seeded Twitter trace under a crash + hang +
// random-crash fault plan and pins two FNV-1a hashes: the Chrome trace plus
// every EngineResult field and record, and the scheme's /statusz section at
// the end of the run.  `replacement` instants are dropped from the hashed
// trace so the pins hold whether or not a scheme records its rollout steps.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "baselines/scenario.h"
#include "fault/fault_plan.h"
#include "golden_dump.h"
#include "sim/engine.h"
#include "telemetry/sink.h"
#include "trace/twitter.h"

namespace arlo {
namespace {

using golden::Fnv1a;

trace::Trace Twitter(std::uint64_t seed) {
  trace::TwitterTraceConfig tc;
  tc.duration_s = 10.0;
  tc.mean_rate = 250.0;
  tc.seed = seed;
  return trace::SynthesizeTwitterTrace(tc);
}

fault::FaultPlan Faults() {
  fault::FaultPlan plan;
  plan.seed = 17;
  plan.random_crash_mtbf_s = 4.0;
  plan.CrashAt(Seconds(2.0), 1).HangAt(Seconds(3.0), 2, Seconds(2.0));
  return plan;
}

/// One trace event per line; drops `replacement` instants and the
/// separating commas, so removing an event leaves the rest unchanged.
std::string WithoutReplacements(const std::string& trace) {
  std::istringstream in(trace);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"name\":\"replacement\"") != std::string::npos) continue;
    if (!line.empty() && line.back() == ',') line.pop_back();
    out += line;
    out += '\n';
  }
  return out;
}

/// Trace events named `name`.
int Count(const std::string& trace, const std::string& name) {
  const std::string key = "\"name\":\"" + name + "\"";
  int n = 0;
  for (auto at = trace.find(key); at != std::string::npos;
       at = trace.find(key, at + 1)) {
    ++n;
  }
  return n;
}

struct Golden {
  std::uint64_t run = 0;     ///< trace (minus replacements) + EngineResult
  std::uint64_t status = 0;  ///< WriteStatusJson at end of run
  std::string trace;
};

Golden RunScheme(const std::string& name,
                 const baselines::ScenarioConfig& config,
                 const trace::Trace& t) {
  auto scheme = baselines::MakeSchemeByName(name, config);
  const fault::FaultPlan plan = Faults();
  telemetry::TelemetrySink sink;
  sim::EngineConfig engine;
  engine.fault_plan = &plan;
  engine.resilience.hang_timeout = Millis(800.0);
  engine.telemetry = &sink;
  const sim::EngineResult result = sim::RunScenario(t, *scheme, engine);
  EXPECT_GT(result.faults_injected, 2u) << name;

  std::ostringstream trace;
  sink.WriteChromeTrace(trace);
  std::ostringstream run;
  run << WithoutReplacements(trace.str());
  golden::DumpResult(run, result);
  std::ostringstream status;
  scheme->WriteStatusJson(status, result.end_time);
  return Golden{Fnv1a(run.str()), Fnv1a(status.str()), trace.str()};
}

baselines::ScenarioConfig Config(int gpus) {
  baselines::ScenarioConfig config;
  config.gpus = gpus;
  config.period = Seconds(2.0);
  return config;
}

/// Warm start from the trace's own demand, so the schemes deploy a mixed
/// fleet and re-allocate from the first period.
baselines::ScenarioConfig WarmConfig(int gpus, const trace::Trace& t) {
  baselines::ScenarioConfig config = Config(gpus);
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand = baselines::DemandFromTrace(t, *runtimes, config.slo);
  return config;
}

/// A fast-acting autoscaler, so a 10 s run scales both out and in.
baselines::ScenarioConfig Autoscaled(baselines::ScenarioConfig config) {
  config.autoscale = true;
  config.autoscaler.latency_window = Seconds(2.0);
  config.autoscaler.scale_out_cooldown = Seconds(1.0);
  config.autoscaler.scale_in_interval = Seconds(2.0);
  return config;
}

void ExpectGolden(const Golden& got, std::uint64_t run,
                  std::uint64_t status) {
  EXPECT_EQ(got.run, run);
  EXPECT_EQ(got.status, status);
}

void ExpectScaledBothWays(const Golden& got) {
  EXPECT_GT(Count(got.trace, "autoscale_out"), 0);
  EXPECT_GT(Count(got.trace, "autoscale_in"), 0);
}

TEST(SchemeGolden, StFaultRunIsByteIdentical) {
  ExpectGolden(RunScheme("st", Config(6), Twitter(51)), 4830440156700305265ull,
               11130636828841537614ull);
}

TEST(SchemeGolden, DtFaultRunIsByteIdentical) {
  ExpectGolden(RunScheme("dt", Config(6), Twitter(52)), 5816166874224384984ull,
               13076231552105992942ull);
}

TEST(SchemeGolden, InfaasReallocatingFaultRunIsByteIdentical) {
  const trace::Trace t = Twitter(53);
  const Golden got = RunScheme("infaas", WarmConfig(6, t), t);
  EXPECT_GT(Count(got.trace, "instance_retired"), 0);  // rolled out a plan
  ExpectGolden(got, 15062939810936227416ull, 7051556687971228731ull);
}

TEST(SchemeGolden, ArloIlbFaultRunIsByteIdentical) {
  const trace::Trace t = Twitter(54);
  ExpectGolden(RunScheme("arlo-ilb", WarmConfig(6, t), t),
               13937476743337030642ull, 5340150452585372420ull);
}

TEST(SchemeGolden, ArloIgFaultRunIsByteIdentical) {
  const trace::Trace t = Twitter(55);
  ExpectGolden(RunScheme("arlo-ig", WarmConfig(6, t), t),
               14739275705666338076ull, 10810160891790697770ull);
}

// The autoscaled cases pin the order of the OnTick steps: the guard, the
// rollout, re-allocation and scaling each launch instances, and the launch
// order fixes the instance ids.
TEST(SchemeGolden, InfaasAutoscaledFaultRunIsByteIdentical) {
  const trace::Trace t = Twitter(56);
  const Golden got = RunScheme("infaas", Autoscaled(WarmConfig(4, t)), t);
  ExpectScaledBothWays(got);
  ExpectGolden(got, 6739828432601019688ull, 18131780162694628430ull);
}

TEST(SchemeGolden, ArloAutoscaledFaultRunIsByteIdentical) {
  const trace::Trace t = Twitter(57);
  const Golden got = RunScheme("arlo", Autoscaled(WarmConfig(4, t)), t);
  ExpectScaledBothWays(got);
  ExpectGolden(got, 13562745918412390663ull, 10101487656865452173ull);
}

}  // namespace
}  // namespace arlo
