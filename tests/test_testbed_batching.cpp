// LiveTestbed dynamic batching: batch formation on the executor and
// submitting threads, waiting policies interruptible by faults and
// shutdown, and zero request loss when a kill lands mid-batch.  Runs under
// TSan (filter TestbedBatching.*) and ASan in check.sh.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/scenario.h"
#include "batch/policy.h"
#include "fault/fault_plan.h"
#include "serving/testbed.h"
#include "trace/twitter.h"

namespace arlo::serving {
namespace {

using baselines::MakeSchemeByName;
using baselines::ScenarioConfig;

trace::Trace TinyTrace(double rate, double duration_s, std::uint64_t seed) {
  trace::TwitterTraceConfig config;
  config.duration_s = duration_s;
  config.mean_rate = rate;
  config.seed = seed;
  return trace::SynthesizeTwitterTrace(config);
}

void ExpectServedExactlyOnce(const TestbedResult& result,
                             const trace::Trace& t) {
  ASSERT_EQ(result.records.size(), t.Size());
  std::vector<int> count(t.Size(), 0);
  for (const auto& r : result.records) ++count[r.id];
  for (std::size_t id = 0; id < count.size(); ++id) {
    EXPECT_EQ(count[id], 1) << "request " << id;
  }
}

TEST(TestbedBatching, FormsBatchesAndServesAll) {
  ScenarioConfig config;
  config.gpus = 2;
  config.max_batch = 4;
  auto scheme = MakeSchemeByName("st", config);
  // Past the unbatched 2-worker ST capacity, so queues actually deepen and
  // greedy formation has something to take.
  const trace::Trace t = TinyTrace(400.0, 1.5, 21);
  TestbedConfig tb;
  tb.time_scale = 0.5;
  tb.max_batch = 4;
  const TestbedResult result = RunTestbed(t, *scheme, tb);
  ExpectServedExactlyOnce(result, t);
  EXPECT_GT(result.batches_formed, 0u);
  // Real batches formed: strictly fewer launches than requests…
  EXPECT_LT(result.batches_formed, result.records.size());
  // …but no launch carried more than max_batch.
  EXPECT_GE(result.batches_formed * 4, result.records.size());
  EXPECT_EQ(result.batch_timeouts, 0u);  // greedy never waits
}

TEST(TestbedBatching, SloPolicyWaitsAndStillDrains) {
  ScenarioConfig config;
  config.gpus = 2;
  config.max_batch = 4;
  auto scheme = MakeSchemeByName("st", config);
  const trace::Trace t = TinyTrace(200.0, 1.5, 22);
  batch::BatchPolicyConfig bpc;
  bpc.slo = Millis(150.0);
  const auto policy = batch::MakeBatchPolicy("slo", bpc);
  TestbedConfig tb;
  tb.time_scale = 0.5;
  tb.max_batch = 4;
  tb.batch_policy = policy.get();
  const TestbedResult result = RunTestbed(t, *scheme, tb);
  // The wait budget is bounded, so Finish() drains everything — including
  // the tail where no further arrivals will ever fill a batch.
  ExpectServedExactlyOnce(result, t);
  EXPECT_GT(result.batches_formed, 0u);
  EXPECT_LT(result.batches_formed, result.records.size());
}

// The acceptance hammer: batch formation + fault-supervisor kills + drain,
// zero request loss.  A kill must interrupt a worker mid-formation-wait
// (its queue is stolen and requeued) and mid-batch (the worker requeues the
// whole in-flight batch itself), and every request still completes once.
TEST(TestbedBatching, SurvivesKillAndDrainsWithZeroLoss) {
  ScenarioConfig config;
  config.gpus = 3;
  config.max_batch = 4;
  config.period = Seconds(1.0);
  const trace::Trace t = TinyTrace(250.0, 2.0, 23);
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand =
      baselines::DemandFromTrace(t, *runtimes, config.slo);
  auto scheme = MakeSchemeByName("arlo", config);

  batch::BatchPolicyConfig bpc;
  bpc.slo = Millis(150.0);
  const auto policy = batch::MakeBatchPolicy("slo", bpc);

  fault::FaultPlan plan;
  plan.seed = 5;
  plan.CrashAt(Seconds(0.6), 0).CrashAt(Seconds(1.2), 1);

  TestbedConfig tb;
  tb.time_scale = 0.5;
  tb.max_batch = 4;
  tb.batch_policy = policy.get();
  tb.fault_plan = &plan;
  const TestbedResult result = RunTestbed(t, *scheme, tb);

  ExpectServedExactlyOnce(result, t);
  EXPECT_GE(result.injected_failures, 1);
  EXPECT_GT(result.batches_formed, 0u);
  for (const auto& r : result.records) {
    EXPECT_GT(r.completion, r.start);
  }
}

}  // namespace
}  // namespace arlo::serving
