#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "baselines/infaas_scheme.h"
#include "baselines/scenario.h"
#include "baselines/uniform_scheme.h"
#include "sim/engine.h"
#include "telemetry/sink.h"
#include "trace/twitter.h"

namespace arlo::baselines {
namespace {

trace::Trace SmallTrace(double rate, double duration_s, std::uint64_t seed) {
  trace::TwitterTraceConfig config;
  config.duration_s = duration_s;
  config.mean_rate = rate;
  config.seed = seed;
  return trace::SynthesizeTwitterTrace(config);
}

TEST(StScheme, ConstantServiceTimeRegardlessOfLength) {
  ScenarioConfig config;
  config.gpus = 4;
  auto scheme = MakeSchemeByName("st", config);
  EXPECT_EQ(scheme->Name(), "st");
  const trace::Trace t = SmallTrace(150.0, 3.0, 1);
  const sim::EngineResult result = sim::RunScenario(t, *scheme);
  ASSERT_EQ(result.records.size(), t.Size());
  const SimDuration service = result.records.front().ServiceTime();
  for (const auto& r : result.records) {
    EXPECT_EQ(r.ServiceTime(), service);  // padded to 512 every time
  }
}

TEST(DtScheme, ServiceTimeGrowsWithLength) {
  ScenarioConfig config;
  config.gpus = 4;
  auto scheme = MakeSchemeByName("dt", config);
  const trace::Trace t = SmallTrace(150.0, 3.0, 2);
  const sim::EngineResult result = sim::RunScenario(t, *scheme);
  ASSERT_EQ(result.records.size(), t.Size());
  // Group by length: longer requests must not be cheaper.
  SimDuration short_service = 0, long_service = 0;
  for (const auto& r : result.records) {
    if (r.length <= 64) short_service = std::max(short_service, r.ServiceTime());
    if (r.length >= 400) long_service = std::max(long_service, r.ServiceTime());
  }
  if (short_service > 0 && long_service > 0) {
    EXPECT_GT(long_service, short_service);
  }
}

TEST(DtScheme, BeatsStOnMeanLatencyForTypicalTraffic) {
  const trace::Trace t = SmallTrace(400.0, 5.0, 3);
  auto run = [&](const std::string& name) {
    ScenarioConfig config;
    config.gpus = 4;
    auto scheme = MakeSchemeByName(name, config);
    const sim::EngineResult result = sim::RunScenario(t, *scheme);
    return Summarize(result.records, Millis(150.0)).mean_ms;
  };
  // Most requests are short; DT computes their true length (inflated) while
  // ST pads everything to 512 — DT wins on mean latency (§5.1.1).
  EXPECT_LT(run("dt"), run("st"));
}

TEST(UniformScheme, RequiresSingleRuntimeSet) {
  ScenarioConfig config;
  auto multi = MakeRuntimeSetFor(config);
  BaselineConfig base;
  EXPECT_THROW(UniformScheme("bad", multi, base), std::logic_error);
}

TEST(InfaasScheme, ServesAllAndReallocatesVariants) {
  ScenarioConfig config;
  config.gpus = 4;
  config.period = Seconds(2.0);
  auto scheme = MakeSchemeByName("infaas", config);
  EXPECT_EQ(scheme->Name(), "infaas");
  const trace::Trace t = SmallTrace(250.0, 8.0, 4);
  const sim::EngineResult result = sim::RunScenario(t, *scheme);
  ASSERT_EQ(result.records.size(), t.Size());
  // After the first period, smaller variants get deployed and used.
  bool used_small_variant = false;
  for (const auto& r : result.records) {
    if (r.runtime != 7u) used_small_variant = true;
  }
  EXPECT_TRUE(used_small_variant);
}

// INFaaS rolls its plans out through the shared replacement path, so every
// executed step is a `replacement` trace instant and counts toward
// Serving().replacements.  Without faults or autoscaling every retirement is
// a rollout step, which gives the independent count.
TEST(InfaasScheme, RolloutStepsAreRecordedAsReplacements) {
  const trace::Trace t = SmallTrace(250.0, 8.0, 4);
  ScenarioConfig config;  // cold start: the first plan re-images the fleet
  config.gpus = 4;
  config.period = Seconds(2.0);
  auto scheme = MakeSchemeByName("infaas", config);
  telemetry::TelemetrySink sink;
  sim::EngineConfig engine;
  engine.telemetry = &sink;
  const sim::EngineResult result = sim::RunScenario(t, *scheme, engine);
  ASSERT_EQ(result.records.size(), t.Size());

  std::ostringstream trace;
  sink.WriteChromeTrace(trace);
  auto count = [&](const std::string& name) {
    const std::string key = "\"name\":\"" + name + "\"";
    std::uint64_t n = 0;
    for (auto at = trace.str().find(key); at != std::string::npos;
         at = trace.str().find(key, at + 1)) {
      ++n;
    }
    return n;
  };
  const std::uint64_t replacements = count("replacement");
  EXPECT_GT(replacements, 0u);
  EXPECT_EQ(replacements, count("instance_retired"));
  EXPECT_EQ(sink.Serving().replacements->Value(), replacements);
}

TEST(InfaasScheme, BinPackingPrefersLoadedInstancesWithHeadroom) {
  // Direct unit check of the dispatch behaviour through the scheme's MLQ is
  // covered in MultiLevelQueue.BestFit; here we check the scheme-level
  // fallback: when everything is at capacity it still dispatches.
  ScenarioConfig config;
  config.gpus = 1;
  auto scheme = MakeSchemeByName("infaas", config);
  const trace::Trace t = SmallTrace(800.0, 2.0, 5);  // heavy overload
  const sim::EngineResult result = sim::RunScenario(t, *scheme);
  EXPECT_EQ(result.records.size(), t.Size());  // nothing dropped
}

TEST(Schemes, AllNamesConstructAndRun) {
  const trace::Trace t = SmallTrace(100.0, 2.0, 6);
  for (const auto& name : AllSchemeNames()) {
    ScenarioConfig config;
    config.gpus = 3;
    auto scheme = MakeSchemeByName(name, config);
    const sim::EngineResult result = sim::RunScenario(t, *scheme);
    EXPECT_EQ(result.records.size(), t.Size()) << name;
  }
}

}  // namespace
}  // namespace arlo::baselines
