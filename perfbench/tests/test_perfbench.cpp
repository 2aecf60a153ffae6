// Unit tests for the benchmark's own arithmetic and its timing decorators.
#include <gtest/gtest.h>

#include <sstream>

#include "baselines/scenario.h"
#include "batch/policy.h"
#include "sim/engine.h"
#include "stats.h"
#include "telemetry/sink.h"
#include "timed_layers.h"
#include "trace/twitter.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(NearestRank, MatchesTheRankDefinition) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(NearestRank(v, 0.50), 50);
  EXPECT_EQ(NearestRank(v, 0.99), 99);  // 0.99 * 100 must not round up
  EXPECT_EQ(NearestRank(v, 0.991), 100);
  EXPECT_EQ(NearestRank(v, 1.0), 100);
  EXPECT_EQ(NearestRank(v, 0.0), 1);
  EXPECT_EQ(NearestRank(OneTo(1000), 0.99), 990);
  EXPECT_EQ(NearestRank(OneTo(3), 0.5), 2);
  EXPECT_EQ(NearestRank(OneTo(4), 0.5), 2);  // lower middle, never averaged
  EXPECT_EQ(NearestRank({7.5}, 0.99), 7.5);
  EXPECT_EQ(NearestRank({}, 0.5), 0.0);
}

TEST(ChunkedPercentile, IgnoresAStallConfinedToOneChunk) {
  // Ten chunks of 100 samples 1..100; one chunk also holds a 20-sample
  // stall at 1000.  The whole-run p95 lands in the stall, the chunked one
  // does not.
  std::vector<double> v;
  for (int c = 0; c < 10; ++c) {
    for (int i = 1; i <= 100; ++i) {
      v.push_back(c == 3 && i > 80 ? 1000.0 : i);
    }
  }
  EXPECT_EQ(NearestRank(v, 0.99), 1000.0);
  EXPECT_EQ(ChunkedPercentile(v, 0.95, 10), 95.0);
  EXPECT_EQ(ChunkedPercentile(v, 0.50, 10), 50.0);
  EXPECT_EQ(ChunkedPercentile(v, 0.95, 1), NearestRank(v, 0.95));
  EXPECT_EQ(ChunkedPercentile({3.0, 1.0}, 0.5, 10), 1.0);  // fewer than k
  EXPECT_EQ(ChunkedPercentile({}, 0.5, 10), 0.0);
}

TEST(Outcome, AccountsForEveryRequest) {
  Outcome o{10, 6, 2, 1, 1};
  EXPECT_TRUE(o.Balanced());
  EXPECT_EQ(o.Misses(), 4u);
  EXPECT_DOUBLE_EQ(o.FailFrac(), 0.4);
  o.ok = 7;
  EXPECT_FALSE(o.Balanced());
  EXPECT_DOUBLE_EQ(Outcome{}.FailFrac(), 0.0);
  Outcome sum{4, 4, 0, 0, 0};
  sum += Outcome{6, 2, 2, 1, 1};
  EXPECT_TRUE(sum.Balanced());
  EXPECT_EQ(sum.sent, 10u);
}

TEST(Goodput, CountsOnlyOkRepliesWithinTheLimit) {
  // Four OK replies, one beyond the 150 ms limit, over a 2 s phase; the
  // phase's refused and unanswered requests are simply absent.
  EXPECT_DOUBLE_EQ(Goodput({1.0, 150.0, 3.0, 200.0}, 150.0, 2.0), 1.5);
  EXPECT_DOUBLE_EQ(Goodput({}, 150.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(Goodput({1.0}, 150.0, 0.0), 0.0);
}

TEST(SteadyRate, CountsCompletionsAfterTheRampUp) {
  // 1 completion in the first 100 ms, then 25 per 100 ms for 900 ms.
  const std::int64_t w = 100'000'000;
  std::vector<std::int64_t> t = {w / 2};
  for (int k = 1; k < 10; ++k) {
    for (int i = 0; i < 25; ++i) t.push_back(k * w + i);
  }
  t.push_back(10 * w);  // at the phase end: outside the interval
  EXPECT_DOUBLE_EQ(SteadyRate(t, 10 * w, w, 1), 250.0);
  EXPECT_DOUBLE_EQ(SteadyRate(t, 10 * w, 0, 1), 226.0);
  EXPECT_DOUBLE_EQ(SteadyRate(t, 10 * w, w, 9), 250.0);
  EXPECT_DOUBLE_EQ(SteadyRate(t, w, w, 1), 0.0);
}

TEST(SteadyRate, IgnoresAStallConfinedToOneSlice) {
  // 100 completions per 100 ms slice for 1 s, except one slice that
  // stalled and completed only 10.
  const std::int64_t w = 100'000'000;
  std::vector<std::int64_t> t;
  for (int k = 0; k < 10; ++k) {
    for (int i = 0; i < (k == 4 ? 10 : 100); ++i) t.push_back(k * w + i * 1000);
  }
  EXPECT_DOUBLE_EQ(SteadyRate(t, 10 * w, 0, 1), 910.0);
  EXPECT_DOUBLE_EQ(SteadyRate(t, 10 * w, 0, 10), 1000.0);
}

struct SimRun {
  arlo::sim::EngineResult result;
  std::string status;
};

SimRun RunSmallScenario(bool wrapped, arlo::telemetry::TelemetrySink* sink) {
  using namespace arlo;
  trace::TwitterTraceConfig tc;
  tc.duration_s = 6.0;
  tc.mean_rate = 500.0;
  tc.seed = 7;
  tc.pattern = trace::TwitterTraceConfig::Pattern::kBursty;
  const trace::Trace trace = trace::SynthesizeTwitterTrace(tc);
  baselines::ScenarioConfig config;
  config.gpus = 8;
  config.period = Seconds(1.0);  // several OnTick re-allocations
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand =
      baselines::DemandFromTrace(trace, *runtimes, config.slo);

  std::unique_ptr<sim::Scheme> scheme =
      baselines::MakeSchemeByName("arlo", config);
  std::unique_ptr<batch::BatchPolicy> policy = batch::MakeBatchPolicy("slo");
  if (wrapped) {
    scheme = std::make_unique<TimedScheme>(std::move(scheme));
    policy = std::make_unique<TimedBatchPolicy>(std::move(policy));
  }
  sim::EngineConfig ec;
  ec.max_batch = 4;
  ec.batch_policy = policy.get();
  ec.telemetry = sink;
  ec.mean_time_between_failures_s = 2.0;  // exercises OnInstanceFailure
  ec.fault_seed = 3;
  SimRun run;
  run.result = sim::RunScenario(trace, *scheme, ec);
  std::ostringstream os;
  scheme->WriteStatusJson(os, run.result.end_time);
  run.status = os.str();
  if (wrapped) {
    const auto& timed = static_cast<const TimedScheme&>(*scheme);
    EXPECT_EQ(timed.Inner().Telemetry(), sink);
    EXPECT_EQ(timed.TickInterval(), timed.Inner().TickInterval());
    EXPECT_FALSE(timed.GetSamples().select_ns.empty());
    EXPECT_FALSE(timed.GetSamples().tick_ns.empty());
    const auto batch =
        static_cast<const TimedBatchPolicy&>(*policy).GetSamples();
    EXPECT_FALSE(batch.decide_ns.empty());
  }
  return run;
}

TEST(TimedLayers, SeededSimulationIsUnchangedByTheDecorators) {
  arlo::telemetry::TelemetryConfig tc;
  arlo::telemetry::TelemetrySink plain_sink(tc);
  arlo::telemetry::TelemetrySink wrapped_sink(tc);
  const SimRun plain = RunSmallScenario(false, &plain_sink);
  const SimRun wrapped = RunSmallScenario(true, &wrapped_sink);

  ASSERT_GT(plain.result.injected_failures, 0);
  EXPECT_EQ(plain.result.injected_failures, wrapped.result.injected_failures);
  EXPECT_EQ(plain.result.end_time, wrapped.result.end_time);
  EXPECT_EQ(plain.result.batches_formed, wrapped.result.batches_formed);
  EXPECT_EQ(plain.status, wrapped.status);
  ASSERT_EQ(plain.result.records.size(), wrapped.result.records.size());
  for (std::size_t i = 0; i < plain.result.records.size(); ++i) {
    const arlo::RequestRecord& a = plain.result.records[i];
    const arlo::RequestRecord& b = wrapped.result.records[i];
    ASSERT_EQ(a.id, b.id) << i;
    ASSERT_EQ(a.arrival, b.arrival) << i;
    ASSERT_EQ(a.dispatch, b.dispatch) << i;
    ASSERT_EQ(a.start, b.start) << i;
    ASSERT_EQ(a.completion, b.completion) << i;
    ASSERT_EQ(a.runtime, b.runtime) << i;
    ASSERT_EQ(a.instance, b.instance) << i;
  }
}

}  // namespace
}  // namespace perfbench
