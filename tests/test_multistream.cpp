#include "multistream/composite_scheme.h"

#include <gtest/gtest.h>

#include <string>

#include "baselines/scenario.h"
#include "sim/engine.h"
#include "trace/twitter.h"

namespace arlo::multistream {
namespace {

trace::Trace StreamTrace(double rate, double duration_s, std::uint64_t seed) {
  trace::TwitterTraceConfig config;
  config.duration_s = duration_s;
  config.mean_rate = rate;
  config.seed = seed;
  return trace::SynthesizeTwitterTrace(config);
}

TEST(MergeStreams, TagsAndSortsByArrival) {
  const trace::Trace a = StreamTrace(50.0, 2.0, 1);
  const trace::Trace b = StreamTrace(30.0, 2.0, 2);
  const trace::Trace merged = MergeStreams({a, b});
  EXPECT_EQ(merged.Size(), a.Size() + b.Size());
  SimTime last = 0;
  std::size_t from_a = 0, from_b = 0;
  for (const auto& r : merged.Requests()) {
    EXPECT_GE(r.arrival, last);
    last = r.arrival;
    (r.stream == 0 ? from_a : from_b) += 1;
  }
  EXPECT_EQ(from_a, a.Size());
  EXPECT_EQ(from_b, b.Size());
}

TEST(SplitRecordsByStream, PartitionsRecords) {
  std::vector<RequestRecord> records(5);
  records[0].stream = 0;
  records[1].stream = 1;
  records[2].stream = 1;
  records[3].stream = 0;
  records[4].stream = 1;
  const auto split = SplitRecordsByStream(records, 2);
  EXPECT_EQ(split[0].size(), 2u);
  EXPECT_EQ(split[1].size(), 3u);
}

TEST(CompositeScheme, ServesTwoStreamsOnSharedCluster) {
  const trace::Trace base_stream = StreamTrace(150.0, 5.0, 3);
  const trace::Trace large_stream = StreamTrace(60.0, 5.0, 4);
  const trace::Trace merged = MergeStreams({base_stream, large_stream});

  CompositeScheme composite;
  {
    baselines::ScenarioConfig config;
    config.model = runtime::ModelSpec::BertBase();
    config.gpus = 3;
    config.slo = Millis(150.0);
    config.period = Seconds(2.0);
    auto runtimes = baselines::MakeRuntimeSetFor(config);
    config.initial_demand =
        baselines::DemandFromTrace(base_stream, *runtimes, config.slo);
    composite.AddStream("bert-base", baselines::MakeSchemeByName("arlo", config));
  }
  {
    baselines::ScenarioConfig config;
    config.model = runtime::ModelSpec::BertLarge();
    config.gpus = 2;
    config.slo = Millis(450.0);
    config.period = Seconds(2.0);
    auto runtimes = baselines::MakeRuntimeSetFor(config);
    config.initial_demand =
        baselines::DemandFromTrace(large_stream, *runtimes, config.slo);
    composite.AddStream("bert-large",
                        baselines::MakeSchemeByName("arlo", config));
  }

  const sim::EngineResult result = sim::RunScenario(merged, composite);
  EXPECT_EQ(result.records.size(), merged.Size());
  EXPECT_EQ(result.peak_gpus, 5);  // 3 + 2 shared-pool instances

  // Each stream's requests ran only on that stream's instances, and both
  // streams' latencies are sane.
  const auto split = SplitRecordsByStream(result.records, 2);
  EXPECT_EQ(split[0].size(), base_stream.Size());
  EXPECT_EQ(split[1].size(), large_stream.Size());
  // Bert-Large services are strictly slower than Bert-Base's smallest.
  for (const auto& r : split[1]) {
    EXPECT_GT(r.ServiceTime(), Millis(1.0));
  }
}

TEST(CompositeScheme, PerStreamAutoscalersBreatheIndependently) {
  // Stream 0 is overloaded and must scale out; stream 1 is idle-ish.
  const trace::Trace hot = StreamTrace(500.0, 8.0, 5);
  const trace::Trace cold = StreamTrace(10.0, 8.0, 6);
  const trace::Trace merged = MergeStreams({hot, cold});

  CompositeScheme composite;
  for (int k = 0; k < 2; ++k) {
    baselines::ScenarioConfig config;
    config.model = runtime::ModelSpec::BertBase();
    config.gpus = 1;
    config.slo = Millis(150.0);
    config.period = Seconds(2.0);
    config.autoscale = true;
    config.autoscaler.min_samples = 10;
    config.autoscaler.latency_window = Seconds(4.0);
    config.autoscaler.scale_out_cooldown = Seconds(1.0);
    std::string name = "s";
    name += std::to_string(k);
    composite.AddStream(name, baselines::MakeSchemeByName("arlo", config));
  }

  const sim::EngineResult result = sim::RunScenario(merged, composite);
  EXPECT_EQ(result.records.size(), merged.Size());
  EXPECT_GT(composite.InstancesOf(0), composite.InstancesOf(1));
}

TEST(CompositeScheme, RejectsUnknownStreamTag) {
  CompositeScheme composite;
  baselines::ScenarioConfig config;
  config.gpus = 1;
  composite.AddStream("only", baselines::MakeSchemeByName("st", config));
  std::vector<Request> reqs;
  reqs.push_back({0, Millis(1.0), 10, /*stream=*/3});
  const trace::Trace bad(std::move(reqs));
  EXPECT_THROW(sim::RunScenario(bad, composite), std::logic_error);
}

TEST(CompositeScheme, SetupRequiresStreams) {
  CompositeScheme composite;
  EXPECT_THROW(sim::RunScenario(trace::Trace{}, composite), std::logic_error);
}

}  // namespace
}  // namespace arlo::multistream
