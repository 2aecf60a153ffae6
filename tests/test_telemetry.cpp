// Telemetry subsystem: sharded counters under contention, log-linear
// histogram bucketing, exporter formats, and — the property the whole
// design is built around — byte-identical trace output from identically
// seeded simulator runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "baselines/scenario.h"
#include "serving/testbed.h"
#include "sim/engine.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"
#include "telemetry/sink.h"
#include "telemetry/trace_recorder.h"
#include "trace/twitter.h"

namespace arlo::telemetry {
namespace {

// --- counters / gauges ----------------------------------------------------

TEST(TelemetryMetrics, CounterSingleThreaded) {
  MetricsRegistry registry(Concurrency::kSingleThreaded);
  Counter* c = registry.GetCounter("c_total", "help");
  c->Add(1);
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST(TelemetryMetrics, GaugeSetAndAdd) {
  MetricsRegistry registry(Concurrency::kSingleThreaded);
  Gauge* g = registry.GetGauge("g", "help");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->Value(), 7);
}

TEST(TelemetryMetrics, RegistryReturnsStablePointers) {
  MetricsRegistry registry(Concurrency::kSingleThreaded);
  Counter* a = registry.GetCounter("same", "");
  Counter* b = registry.GetCounter("same", "");
  EXPECT_EQ(a, b);
}

TEST(TelemetryConcurrency, ShardedCounterExactUnderContention) {
  MetricsRegistry registry(Concurrency::kMultiThreaded);
  Counter* c = registry.GetCounter("hammered_total", "");
  LatencyHistogram* h = registry.GetHistogram("hammered_ns", "");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c, h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Add(1);
        h->Record(t * kPerThread + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Lock-free sharding must lose nothing: totals are exact, not sampled.
  EXPECT_EQ(c->Value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->Count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(TelemetryConcurrency, ScrapeWhileWritingKeepsCountersMonotonic) {
  // The /metrics path: exposition snapshots taken while worker threads are
  // mid-Add must parse cleanly and never show a counter going backwards.
  MetricsRegistry registry(Concurrency::kMultiThreaded);
  Counter* c = registry.GetCounter("scraped_total", "");
  LatencyHistogram* h = registry.GetHistogram("scraped_ns", "");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c, h] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Add(1);
        h->Record(i);
      }
    });
  }
  std::uint64_t last_counter = 0;
  std::uint64_t last_hist_count = 0;
  for (int scrape = 0; scrape < 50; ++scrape) {
    std::ostringstream os;
    WritePrometheusText(registry, os);
    const std::string out = os.str();
    // Every sample line is `name[{labels}] value` with a numeric value.
    std::istringstream lines(out);
    std::string line;
    std::uint64_t counter = 0, hist_count = 0;
    while (std::getline(lines, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      const std::string value = line.substr(space + 1);
      if (value != "+Inf") {
        std::size_t consumed = 0;
        (void)std::stod(value, &consumed);
        ASSERT_EQ(consumed, value.size()) << line;
      }
      if (line.rfind("scraped_total ", 0) == 0) {
        counter = std::stoull(value);
      } else if (line.rfind("scraped_ns_count ", 0) == 0) {
        hist_count = std::stoull(value);
      }
    }
    EXPECT_GE(counter, last_counter);
    EXPECT_GE(hist_count, last_hist_count);
    last_counter = counter;
    last_hist_count = hist_count;
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->Value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->Count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(TelemetryConcurrency, GaugeBalancedAddsCancel) {
  MetricsRegistry registry(Concurrency::kMultiThreaded);
  Gauge* g = registry.GetGauge("depth", "");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([g] {
      for (int i = 0; i < 50000; ++i) {
        g->Add(+1);
        g->Add(-1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(g->Value(), 0);
}

// --- histogram bucketing --------------------------------------------------

TEST(TelemetryHistogram, UnitBucketsAreExact) {
  // Values below 8 land in per-value unit buckets.
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), static_cast<int>(v));
    EXPECT_EQ(LatencyHistogram::BucketUpperBound(static_cast<int>(v)), v);
  }
}

TEST(TelemetryHistogram, OctaveBoundaries) {
  // 8 is the first value of the first log-linear octave (8 sub-buckets of
  // width 1 covering [8, 16)).
  EXPECT_EQ(LatencyHistogram::BucketIndex(8), 8);
  EXPECT_EQ(LatencyHistogram::BucketIndex(15), 15);
  EXPECT_EQ(LatencyHistogram::BucketIndex(16), 16);
  // Sub-bucket width grows with the octave; the bucket upper bound must be
  // >= the value and the previous bucket's bound must be < the value.
  for (std::int64_t v : {17ll, 100ll, 1000ll, 123456ll, 99999999ll}) {
    const int b = LatencyHistogram::BucketIndex(v);
    EXPECT_GE(LatencyHistogram::BucketUpperBound(b), v) << v;
    if (b > 0) {
      EXPECT_LT(LatencyHistogram::BucketUpperBound(b - 1), v) << v;
    }
  }
}

TEST(TelemetryHistogram, HugeValuesClampToLastBucket) {
  const int last = LatencyHistogram::kNumBuckets - 1;
  EXPECT_EQ(
      LatencyHistogram::BucketIndex(std::numeric_limits<std::int64_t>::max()),
      last);
}

TEST(TelemetryHistogram, CountSumQuantile) {
  MetricsRegistry registry(Concurrency::kSingleThreaded);
  LatencyHistogram* h = registry.GetHistogram("h_ns", "");
  for (int i = 1; i <= 100; ++i) h->Record(i * 1000);
  EXPECT_EQ(h->Count(), 100u);
  EXPECT_EQ(h->Sum(), 5050u * 1000u);
  // Quantiles come back as bucket upper bounds: within one sub-bucket width
  // (1/8th) of the exact rank value.
  EXPECT_NEAR(static_cast<double>(h->Quantile(0.5)), 50000.0, 50000.0 / 8);
  EXPECT_NEAR(static_cast<double>(h->Quantile(0.98)), 99000.0, 99000.0 / 8);
  EXPECT_GE(h->Quantile(1.0), 100000u - 1);
}

TEST(TelemetryHistogram, NegativeDurationsClampToZero) {
  MetricsRegistry registry(Concurrency::kSingleThreaded);
  LatencyHistogram* h = registry.GetHistogram("h_ns", "");
  h->Record(-5);
  EXPECT_EQ(h->Count(), 1u);
  EXPECT_EQ(h->Quantile(1.0), 0u);
}

// --- trace recorder -------------------------------------------------------

TEST(TelemetryTrace, EventsSortedByTimestampInJson) {
  TraceRecorder rec(/*run_id=*/7);
  rec.Complete("later", "cat", /*ts=*/2000, /*dur=*/500, /*tid=*/1, {});
  rec.Instant("earlier", "cat", /*ts=*/1000, /*tid=*/0, {{"k", 3}});
  std::ostringstream os;
  rec.WriteJson(os);
  const std::string out = os.str();
  EXPECT_LT(out.find("earlier"), out.find("later"));
  EXPECT_NE(out.find("\"run_id\":\"7\""), std::string::npos);
  EXPECT_NE(out.find("\"k\":3"), std::string::npos);
  // Timestamps serialize as microseconds with fixed 3-decimal precision.
  EXPECT_NE(out.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(out.find("\"dur\":0.500"), std::string::npos);
}

// --- exporters ------------------------------------------------------------

TEST(TelemetryExport, PrometheusGolden) {
  MetricsRegistry registry(Concurrency::kSingleThreaded);
  registry.GetCounter("arlo_requests_total", "Requests seen")->Add(3);
  registry.GetGauge("arlo_depth{level=\"2\"}", "")->Set(4);
  LatencyHistogram* h = registry.GetHistogram("arlo_lat_ns", "Latency");
  h->Record(5);
  h->Record(5);
  h->Record(100);
  std::ostringstream os;
  WritePrometheusText(registry, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("# HELP arlo_requests_total Requests seen\n"
                     "# TYPE arlo_requests_total counter\n"
                     "arlo_requests_total 3\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("arlo_depth{level=\"2\"} 4\n"), std::string::npos) << out;
  // Histogram: cumulative occupied buckets, +Inf, sum, count.
  EXPECT_NE(out.find("arlo_lat_ns_bucket{le=\"5\"} 2\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("arlo_lat_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("arlo_lat_ns_sum 110\n"), std::string::npos) << out;
  EXPECT_NE(out.find("arlo_lat_ns_count 3\n"), std::string::npos) << out;
}

TEST(TelemetryExport, JsonSnapshotEscapesLabeledNames) {
  MetricsRegistry registry(Concurrency::kSingleThreaded);
  registry.GetGauge("arlo_queue_depth{level=\"1\"}", "")->Set(2);
  std::ostringstream os;
  WriteJsonSnapshot(registry, /*run_id=*/9, os);
  const std::string out = os.str();
  // The embedded label quotes must be escaped to keep the JSON parseable.
  EXPECT_NE(out.find("\"arlo_queue_depth{level=\\\"1\\\"}\":2"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"run_id\":\"9\""), std::string::npos);
}

TEST(TelemetryExport, CsvTimeSeries) {
  std::vector<SnapshotRow> rows(2);
  rows[0].time_s = 1.0;
  rows[0].enqueued = 10;
  rows[0].completed = 8;
  rows[0].instances = 4;
  rows[1].time_s = 2.0;
  rows[1].enqueued = 20;
  rows[1].completed = 19;
  rows[1].instances = 4;
  rows[1].e2e_p50_ms = 3.25;
  std::ostringstream os;
  WriteCsvTimeSeries(rows, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("time_s,enqueued,completed,"), std::string::npos);
  EXPECT_NE(out.find("\n1,10,8,"), std::string::npos) << out;
  EXPECT_NE(out.find("\n2,20,19,"), std::string::npos) << out;
  EXPECT_NE(out.find("3.25"), std::string::npos) << out;
}

// --- sink + engine integration -------------------------------------------

sim::EngineResult RunInstrumented(TelemetrySink* sink, std::uint64_t seed) {
  trace::TwitterTraceConfig tc;
  tc.duration_s = 4.0;
  tc.mean_rate = 300.0;
  tc.seed = seed;
  const trace::Trace t = trace::SynthesizeTwitterTrace(tc);

  baselines::ScenarioConfig config;
  config.gpus = 4;
  config.slo = Millis(150.0);
  config.period = Seconds(2.0);
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand =
      baselines::DemandFromTrace(t, *runtimes, config.slo);
  auto scheme = baselines::MakeSchemeByName("arlo", config);

  sim::EngineConfig engine;
  engine.telemetry = sink;
  return sim::RunScenario(t, *scheme, engine);
}

TEST(TelemetrySinkTest, CountsMatchEngineResult) {
  TelemetryConfig cfg;
  cfg.run_id = 5;
  TelemetrySink sink(cfg);
  const sim::EngineResult result = RunInstrumented(&sink, /*seed=*/5);

  const ServingMetrics& m = sink.Serving();
  EXPECT_EQ(m.enqueued->Value(), result.records.size());
  EXPECT_EQ(m.completed->Value(), result.records.size());
  EXPECT_EQ(m.e2e_latency_ns->Count(), result.records.size());
  EXPECT_GT(m.launches->Value(), 0u);
  // Everything dispatched completed, so the outstanding gauge drains to 0.
  EXPECT_EQ(m.outstanding->Value(), 0);
  EXPECT_GE(sink.Tracer().Size(), 2 * result.records.size());
  // Periodic snapshots: one per second of simulated time plus the final row.
  EXPECT_GE(sink.SnapshotRows().size(), 4u);
}

TEST(TelemetrySinkTest, SeededRunsProduceByteIdenticalTraces) {
  TelemetryConfig cfg;
  cfg.run_id = 21;
  TelemetrySink a(cfg);
  TelemetrySink b(cfg);
  (void)RunInstrumented(&a, /*seed=*/21);
  (void)RunInstrumented(&b, /*seed=*/21);

  std::ostringstream ja, jb;
  a.WriteChromeTrace(ja);
  b.WriteChromeTrace(jb);
  ASSERT_GT(ja.str().size(), 100u);
  // The determinism contract: wall-clock measurements go to metrics only,
  // so the trace JSON of two identically seeded runs is byte-identical.
  EXPECT_EQ(ja.str(), jb.str());

  std::ostringstream ca, cb;
  a.WriteCsv(ca);
  b.WriteCsv(cb);
  EXPECT_EQ(ca.str(), cb.str());
}

TEST(TelemetrySinkTest, TestbedRecordsFromWorkerThreads) {
  // The wall-clock testbed records from the frontend, every worker thread,
  // and the snapshotter thread at once; under scripts/check.sh this test
  // also runs with ThreadSanitizer.
  trace::TwitterTraceConfig tc;
  tc.duration_s = 1.0;
  tc.mean_rate = 200.0;
  tc.seed = 13;
  const trace::Trace t = trace::SynthesizeTwitterTrace(tc);

  baselines::ScenarioConfig config;
  config.gpus = 3;
  config.slo = Millis(150.0);
  config.period = Seconds(5.0);
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand =
      baselines::DemandFromTrace(t, *runtimes, config.slo);
  auto scheme = baselines::MakeSchemeByName("arlo", config);

  TelemetryConfig cfg;
  cfg.concurrency = Concurrency::kMultiThreaded;
  cfg.snapshot_period = Millis(100.0);
  TelemetrySink sink(cfg);
  serving::TestbedConfig tb;
  tb.time_scale = 0.5;  // 2x compressed replay
  tb.telemetry = &sink;
  const serving::TestbedResult result = serving::RunTestbed(t, *scheme, tb);

  const ServingMetrics& m = sink.Serving();
  EXPECT_EQ(m.completed->Value(), result.records.size());
  EXPECT_EQ(m.e2e_latency_ns->Count(), result.records.size());
  EXPECT_EQ(m.outstanding->Value(), 0);
  EXPECT_GE(sink.SnapshotRows().size(), 2u);
  // Exported output must be well-formed here too (labels, histograms).
  std::ostringstream prom;
  sink.WritePrometheus(prom);
  EXPECT_NE(prom.str().find("arlo_e2e_latency_ns_count"), std::string::npos);
}

TEST(TelemetrySinkTest, TestbedSnapshotRowsLandOnTheGrid) {
  // The testbed's snapshotter stamps rows with the *scheduled* grid time,
  // not the jittery wall-clock wake time, so testbed CSV rows line up with
  // sim rows on the same virtual-time axis.  Every row except the final
  // flush must sit exactly on a multiple of the snapshot period.
  trace::TwitterTraceConfig tc;
  tc.duration_s = 1.0;
  tc.mean_rate = 150.0;
  tc.seed = 17;
  const trace::Trace t = trace::SynthesizeTwitterTrace(tc);

  baselines::ScenarioConfig config;
  config.gpus = 2;
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand =
      baselines::DemandFromTrace(t, *runtimes, config.slo);
  auto scheme = baselines::MakeSchemeByName("arlo", config);

  TelemetryConfig cfg;
  cfg.concurrency = Concurrency::kMultiThreaded;
  const SimDuration period = Millis(100.0);
  cfg.snapshot_period = period;
  TelemetrySink sink(cfg);
  serving::TestbedConfig tb;
  tb.telemetry = &sink;
  (void)serving::RunTestbed(t, *scheme, tb);

  const auto& rows = sink.SnapshotRows();
  ASSERT_GE(rows.size(), 3u);
  double prev = -1.0;
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    const double time_s = rows[i].time_s;
    EXPECT_GT(time_s, prev);
    prev = time_s;
    // Recover the grid index and demand exact (bitwise) agreement with the
    // grid point — scheduled time, not measured time.
    const auto k = static_cast<SimTime>(
        time_s / ToSeconds(period) + 0.5);
    EXPECT_EQ(time_s, ToSeconds(k * period))
        << "row " << i << " off the snapshot grid: " << time_s;
  }
  EXPECT_GT(rows.back().time_s, prev);
}

TEST(TelemetrySinkTest, QueueDepthGaugesDrainToZero) {
  TelemetrySink sink;
  (void)RunInstrumented(&sink, /*seed=*/3);
  int labeled_gauges = 0;
  sink.Registry().ForEach([&](const std::string& name,
                              const MetricsRegistry::Entry& entry) {
    if (name.rfind("arlo_queue_depth{", 0) == 0) {
      ++labeled_gauges;
      EXPECT_EQ(entry.gauge->Value(), 0) << name;
    }
  });
  EXPECT_GT(labeled_gauges, 0);
}

}  // namespace
}  // namespace arlo::telemetry
