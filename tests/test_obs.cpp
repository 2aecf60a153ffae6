// Observability plane unit tests: the HTTP request parser/serializer, the
// lock-free flight recorder, the multi-window SLO burn-rate monitor, the
// storm-triggered dump, the TraceRecorder event cap, and the determinism
// contract (observers and mirrors must not perturb seeded trace output).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/scenario.h"
#include "common/json.h"
#include "common/rng.h"
#include "obs/dump_trigger.h"
#include "obs/flight_recorder.h"
#include "obs/http.h"
#include "obs/slo_monitor.h"
#include "sim/engine.h"
#include "telemetry/sink.h"
#include "telemetry/trace_recorder.h"
#include "trace/twitter.h"

namespace arlo::obs {
namespace {

// --- HTTP parser ----------------------------------------------------------

TEST(ObsHttp, ParsesSimpleGet) {
  HttpRequestParser p;
  const std::string raw =
      "GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
  p.Feed(raw.data(), raw.size());
  ASSERT_TRUE(p.Complete());
  EXPECT_EQ(p.Request().method, "GET");
  EXPECT_EQ(p.Request().path, "/metrics");
  EXPECT_EQ(p.Request().headers.at("host"), "x");
  EXPECT_EQ(p.Request().body, "");
}

TEST(ObsHttp, ParsesByteAtATime) {
  HttpRequestParser p;
  const std::string raw =
      "POST /debug/dump HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  for (char c : raw) {
    ASSERT_FALSE(p.Error());
    p.Feed(&c, 1);
  }
  ASSERT_TRUE(p.Complete());
  EXPECT_EQ(p.Request().method, "POST");
  EXPECT_EQ(p.Request().path, "/debug/dump");
  EXPECT_EQ(p.Request().body, "hello");
}

TEST(ObsHttp, StripsQueryString) {
  HttpRequestParser p;
  const std::string raw = "GET /slo?window=60 HTTP/1.1\r\n\r\n";
  p.Feed(raw.data(), raw.size());
  ASSERT_TRUE(p.Complete());
  EXPECT_EQ(p.Request().path, "/slo");
  EXPECT_EQ(p.Request().query, "window=60");
}

TEST(ObsHttp, LowercasesHeaderNames) {
  HttpRequestParser p;
  const std::string raw = "GET / HTTP/1.1\r\nCoNtEnT-TyPe: text/plain\r\n\r\n";
  p.Feed(raw.data(), raw.size());
  ASSERT_TRUE(p.Complete());
  EXPECT_EQ(p.Request().headers.at("content-type"), "text/plain");
}

TEST(ObsHttp, RejectsMalformedRequestLine) {
  HttpRequestParser p;
  const std::string raw = "NOT-HTTP\r\n\r\n";
  p.Feed(raw.data(), raw.size());
  EXPECT_TRUE(p.Error());
}

TEST(ObsHttp, RejectsOversizedHeaders) {
  HttpRequestParser p;
  std::string raw = "GET / HTTP/1.1\r\nX-Pad: ";
  raw += std::string(HttpRequestParser::kMaxHeaderBytes, 'a');
  p.Feed(raw.data(), raw.size());
  EXPECT_TRUE(p.Error());
}

TEST(ObsHttp, SerializeResponseHasLengthAndClose) {
  HttpResponse r;
  r.status = 200;
  r.body = "abc";
  const std::string wire = SerializeResponse(r);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 3), "abc");
}

TEST(ObsHttp, ReasonPhrases) {
  EXPECT_STREQ(HttpReason(200), "OK");
  EXPECT_STREQ(HttpReason(404), "Not Found");
  EXPECT_STREQ(HttpReason(405), "Method Not Allowed");
  EXPECT_STREQ(HttpReason(503), "Service Unavailable");
}

// --- HTTP fuzz ------------------------------------------------------------
//
// Seeded mutation loops in the style of NetProtocolFuzz (no libFuzzer):
// valid messages get byte flips, injected CRLFs, deletions, duplicated
// chunks, truncation, and Content-Length values that are oversized or
// overflow; the request parser is also fed at random split points.  Every
// input must end complete, in error, or still waiting, never crash, and
// nothing accepted may exceed the parsers' size caps.

std::size_t Pick(Rng& rng, std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(rng.NextU64() % n);
}

std::string MutateHttp(std::string s, Rng& rng) {
  static const char* const kLengths[] = {
      "0", "5", "1048576", "1048577", "4294967296", "9223372036854775807",
      "18446744073709551616", "99999999999999999999999", "-1", "+5", "0x10",
      ""};
  const std::size_t edits = 1 + Pick(rng, 4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t pos = Pick(rng, s.size() + 1);
    switch (Pick(rng, 6)) {
      case 0:
        if (pos < s.size()) s[pos] ^= static_cast<char>(1 + Pick(rng, 255));
        break;
      case 1: s.insert(pos, "\r\n"); break;
      case 2: s.erase(pos, 1 + Pick(rng, 8)); break;
      case 3: s.insert(pos, s.substr(Pick(rng, s.size()), 1 + Pick(rng, 16)));
        break;
      case 4: s.resize(pos); break;
      case 5: {
        const std::size_t cl = s.find("Content-Length: ");
        if (cl == std::string::npos) break;
        const std::size_t value = cl + 16;
        const std::size_t eol = s.find("\r\n", value);
        s.replace(value, eol == std::string::npos ? 0 : eol - value,
                  kLengths[Pick(rng, std::size(kLengths))]);
        break;
      }
    }
  }
  return s;
}

TEST(ObsHttpFuzz, RequestParserEndsCompleteErrorOrWaitingWithinCaps) {
  const std::vector<std::string> seeds = {
      "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n",
      "POST /realloc HTTP/1.1\r\nContent-Length: 9\r\n\r\nalloc=1,2",
      "POST /debug/dump HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
      // A header block right at the cap, so mutations cross it both ways.
      "GET / HTTP/1.1\r\nX-Pad: " +
          std::string(HttpRequestParser::kMaxHeaderBytes - 24, 'a') +
          "\r\n\r\n"};
  using State = HttpRequestParser::State;
  Rng rng(2027);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string input =
        trial < 4 ? seeds[static_cast<std::size_t>(trial)]
                  : MutateHttp(seeds[Pick(rng, seeds.size())], rng);
    HttpRequestParser p;
    std::size_t off = 0;
    while (off < input.size()) {
      // Mostly small chunks, sometimes the whole rest in one Feed.
      const std::size_t chunk =
          Pick(rng, 4) == 0 ? input.size()
                            : 1 + Pick(rng, std::max<std::size_t>(
                                               64, input.size() / 8));
      const std::size_t n = std::min(input.size() - off, chunk);
      const State before = p.GetState();
      p.Feed(input.data() + off, n);
      off += n;
      const State after = p.GetState();
      ASSERT_TRUE(after == State::kHeaders || after == State::kBody ||
                  after == State::kComplete || after == State::kError);
      if (before == State::kComplete || before == State::kError) {
        ASSERT_EQ(after, before) << "terminal states are sticky";
      }
    }
    if (!p.Complete()) continue;
    const std::size_t header_end = input.find("\r\n\r\n");
    ASSERT_NE(header_end, std::string::npos);
    EXPECT_LE(header_end, HttpRequestParser::kMaxHeaderBytes) << trial;
    EXPECT_LE(p.Request().body.size(), HttpRequestParser::kMaxBodyBytes);
    EXPECT_EQ(p.Request().path.front(), '/');
  }
}

TEST(ObsHttpFuzz, ResponseParserNeverCrashesAndStaysWithinCaps) {
  std::vector<std::string> seeds;
  for (const auto& [status, body] :
       std::vector<std::pair<int, std::string>>{
           {200, "{\"ok\":true}"}, {503, "no telemetry sink\n"},
           {404, ""}, {200, std::string(3000, 'x')}}) {
    HttpResponse r;
    r.status = status;
    r.body = body;
    seeds.push_back(SerializeResponse(r));
  }
  Rng rng(2028);
  int ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string input =
        trial < 4 ? seeds[static_cast<std::size_t>(trial)]
                  : MutateHttp(seeds[Pick(rng, seeds.size())], rng);
    const HttpResult r = ParseHttpResponse(input);
    if (trial < 4) {
      ASSERT_TRUE(r.ok) << input;
    }
    if (!r.ok) continue;
    ++ok;
    EXPECT_GE(r.status, 100);
    EXPECT_LE(r.status, 999);
    EXPECT_LE(input.size(), kHttpFetchMaxResponseBytes);
    ASSERT_LE(r.body.size(), input.size());
    EXPECT_EQ(input.compare(input.size() - r.body.size(), r.body.size(),
                            r.body),
              0)
        << "the body is the rest of the response";
    EXPECT_EQ(r.content_type.find("\r\n"), std::string::npos)
        << "content type ran past its header line: " << r.content_type;
  }
  EXPECT_GT(ok, 4);
  // Over the cap fails however well-formed it is.
  HttpResponse big;
  big.body = std::string(kHttpFetchMaxResponseBytes, 'x');
  EXPECT_FALSE(ParseHttpResponse(SerializeResponse(big)).ok);
}

// --- flight recorder ------------------------------------------------------

telemetry::TraceEventView MakeEvent(const char* name, SimTime ts) {
  telemetry::TraceEventView v;
  v.name = name;
  v.category = "test";
  v.phase = 'i';
  v.ts = ts;
  v.dur = 0;
  v.tid = 0;
  v.num_args = 0;
  return v;
}

TEST(ObsFlightRecorder, HoldsEverythingBelowCapacity) {
  FlightRecorder ring(8);
  for (int i = 0; i < 5; ++i) ring.Record(MakeEvent("ev", Millis(i)));
  EXPECT_EQ(ring.Recorded(), 5u);
  std::ostringstream os;
  ring.WriteJson(os);
  const std::string out = os.str();
  std::size_t count = 0, pos = 0;
  while ((pos = out.find("\"ev\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 5u);
  EXPECT_NE(out.find("\"flight_recorder\""), std::string::npos);
}

TEST(ObsFlightRecorder, WrapKeepsOnlyTheMostRecent) {
  FlightRecorder ring(8);
  EXPECT_EQ(ring.Capacity(), 8u);
  // 100 events; only the last 8 (ts 92..99 ms) survive the wrap.
  for (int i = 0; i < 100; ++i) ring.Record(MakeEvent("ev", Millis(i)));
  EXPECT_EQ(ring.Recorded(), 100u);
  std::ostringstream os;
  ring.WriteJson(os);
  const std::string out = os.str();
  // ts serializes as microseconds: 92 ms -> 92000.000.
  EXPECT_EQ(out.find("\"ts\":91000.000"), std::string::npos);
  EXPECT_NE(out.find("\"ts\":92000.000"), std::string::npos);
  EXPECT_NE(out.find("\"ts\":99000.000"), std::string::npos);
  // Sorted ascending by timestamp.
  EXPECT_LT(out.find("\"ts\":92000.000"), out.find("\"ts\":99000.000"));
}

TEST(ObsFlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder ring(5);
  EXPECT_EQ(ring.Capacity(), 8u);
}

TEST(ObsFlightRecorder, ConcurrentWritersNeverProduceTornOutput) {
  // Hammer the ring from several threads while a reader dumps repeatedly;
  // every emitted event must be one of the values some writer published
  // (name/ts pairing intact).  Runs under TSan via the ObsAdmin/Obs filter.
  FlightRecorder ring(64);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&ring, &stop, t] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Thread t writes only timestamps == t (mod 4), in microseconds.
        ring.Record(MakeEvent("w", 4 * static_cast<SimTime>(i++) * 1000 +
                                       t * 1000));
      }
    });
  }
  while (ring.Recorded() == 0) std::this_thread::yield();
  for (int round = 0; round < 50; ++round) {
    std::ostringstream os;
    ring.WriteJson(os);
    EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
  std::ostringstream os;
  ring.WriteJson(os);
  EXPECT_NE(os.str().find("\"w\""), std::string::npos);
}

// --- SLO monitor ----------------------------------------------------------

SloMonitorConfig OneWindowConfig() {
  SloMonitorConfig c;
  c.target = 0.99;  // error budget 1%
  c.windows = {Seconds(10.0)};
  c.buckets_per_window = 10;
  c.alert_burn_rate = 2.0;
  c.min_events_to_alert = 10;
  return c;
}

TEST(ObsSloMonitor, BurnRateIsViolationFractionOverBudget) {
  SloMonitor mon(OneWindowConfig());
  // 96 ok + 4 violations = 4% violating against a 1% budget -> burn 4.0.
  for (int i = 0; i < 96; ++i) mon.Observe(Millis(i), false);
  for (int i = 0; i < 4; ++i) mon.Observe(Millis(96 + i), true);
  const SloStats s = mon.Stats(Millis(100));
  EXPECT_EQ(s.total, 100u);
  EXPECT_EQ(s.violations, 4u);
  EXPECT_DOUBLE_EQ(s.attainment, 0.96);
  ASSERT_EQ(s.windows.size(), 1u);
  EXPECT_NEAR(s.windows[0].burn_rate, 4.0, 1e-9);
  EXPECT_TRUE(s.windows[0].alerting);  // 4.0 >= threshold 2.0
}

TEST(ObsSloMonitor, WindowForgetsExpiredEvents) {
  SloMonitor mon(OneWindowConfig());
  for (int i = 0; i < 20; ++i) mon.Observe(Millis(i), true);
  SloStats s = mon.Stats(Seconds(1.0));
  EXPECT_EQ(s.windows[0].total, 20u);
  // 30 s later the 10 s window is empty; lifetime stats are unaffected.
  s = mon.Stats(Seconds(30.0));
  EXPECT_EQ(s.windows[0].total, 0u);
  EXPECT_DOUBLE_EQ(s.windows[0].burn_rate, 0.0);
  EXPECT_EQ(s.total, 20u);
  EXPECT_EQ(s.violations, 20u);
}

TEST(ObsSloMonitor, FewEventsNeverAlert) {
  SloMonitor mon(OneWindowConfig());
  // 5 violations is burn 100x, but below min_events_to_alert.
  for (int i = 0; i < 5; ++i) mon.Observe(Millis(i), true);
  const SloStats s = mon.Stats(Millis(10));
  EXPECT_FALSE(s.windows[0].alerting);
}

TEST(ObsSloMonitor, AlertClearsWithHysteresis) {
  SloMonitorConfig cfg = OneWindowConfig();
  cfg.min_events_to_alert = 1;
  SloMonitor mon(cfg);
  for (int i = 0; i < 10; ++i) mon.Observe(Millis(i), true);
  EXPECT_TRUE(mon.Stats(Millis(10)).windows[0].alerting);
  // Burn decays as the violations age out; once below 0.8 * threshold the
  // alert clears.  At 30 s the window is empty -> burn 0 -> cleared.
  EXPECT_FALSE(mon.Stats(Seconds(30.0)).windows[0].alerting);
}

TEST(ObsSloMonitor, ObserverClassifiesCompletionsAndSheds) {
  SloMonitorConfig cfg = OneWindowConfig();
  cfg.slo = Millis(150.0);
  SloMonitor mon(cfg);
  RequestRecord ok;
  ok.arrival = 0;
  ok.completion = Millis(10.0);  // under SLO
  mon.OnComplete(ok);
  RequestRecord slow;
  slow.arrival = Millis(100.0);
  slow.completion = Millis(400.0);  // over SLO
  mon.OnComplete(slow);
  Request shed;
  shed.arrival = Millis(200.0);
  mon.OnShed(shed, Millis(210.0));  // sheds always count as violations
  const SloStats s = mon.Stats(Millis(500.0));
  EXPECT_EQ(s.total, 3u);
  EXPECT_EQ(s.violations, 2u);
}

TEST(ObsSloMonitor, ExportsGaugesAndAlertInstantsToSink) {
  telemetry::TelemetrySink sink;
  SloMonitorConfig cfg = OneWindowConfig();
  cfg.min_events_to_alert = 1;
  cfg.sink = &sink;
  SloMonitor mon(cfg);
  for (int i = 0; i < 10; ++i) mon.Observe(Millis(i), true);
  (void)mon.Stats(Millis(20));
  std::ostringstream prom;
  sink.WritePrometheus(prom);
  EXPECT_NE(prom.str().find("arlo_slo_burn_rate_pct{window=\"10s\"}"),
            std::string::npos)
      << prom.str();
  EXPECT_NE(prom.str().find("arlo_slo_alerts_total 1"), std::string::npos)
      << prom.str();
  std::ostringstream trace;
  sink.WriteChromeTrace(trace);
  EXPECT_NE(trace.str().find("slo_burn_alert"), std::string::npos);
}

TEST(ObsSloMonitor, WriteJsonShape) {
  SloMonitor mon(OneWindowConfig());
  mon.Observe(Millis(1), false);
  std::ostringstream os;
  json::Writer w(os);
  mon.WriteJson(w, Millis(2));
  const std::string out = os.str();
  EXPECT_NE(out.find("\"slo_ms\":"), std::string::npos);
  EXPECT_NE(out.find("\"windows\":["), std::string::npos);
  EXPECT_NE(out.find("\"burn_rate\":"), std::string::npos);
}

// --- dump trigger ---------------------------------------------------------

TEST(ObsDumpTrigger, FiresOnceAtThresholdWithCooldown) {
  int fired = 0;
  DumpTriggerConfig cfg;
  cfg.threshold = 5;
  cfg.window = Seconds(5.0);
  cfg.cooldown = Seconds(30.0);
  cfg.on_storm = [&fired] { ++fired; };
  DumpTrigger trigger(cfg);
  for (int i = 0; i < 4; ++i) trigger.Observe(Millis(i * 10.0));
  EXPECT_EQ(fired, 0);
  trigger.Observe(Millis(40.0));  // 5th event inside the window
  EXPECT_EQ(fired, 1);
  // A sustained storm inside the cooldown does not re-fire...
  for (int i = 0; i < 20; ++i) trigger.Observe(Seconds(1.0) + Millis(i));
  EXPECT_EQ(fired, 1);
  // ...but a storm after the cooldown does.
  for (int i = 0; i < 5; ++i) trigger.Observe(Seconds(31.0) + Millis(i));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(trigger.Storms(), 2u);
}

TEST(ObsDumpTrigger, SpacedEventsNeverFire) {
  int fired = 0;
  DumpTriggerConfig cfg;
  cfg.threshold = 3;
  cfg.window = Seconds(1.0);
  cfg.on_storm = [&fired] { ++fired; };
  DumpTrigger trigger(cfg);
  for (int i = 0; i < 50; ++i) trigger.Observe(Seconds(2.0 * i));
  EXPECT_EQ(fired, 0);
}

// --- TraceRecorder cap (satellite) ----------------------------------------

TEST(ObsTraceCap, DropsOldestWhenCapped) {
  telemetry::TraceRecorder rec(/*run_id=*/1, /*max_events=*/4);
  for (int i = 0; i < 10; ++i) {
    rec.Instant("ev", "cat", /*ts=*/Millis(i), /*tid=*/0, {});
  }
  EXPECT_EQ(rec.Size(), 4u);
  EXPECT_EQ(rec.Dropped(), 6u);
  std::ostringstream os;
  rec.WriteJson(os);
  const std::string out = os.str();
  // Oldest-first drop: ts 0..5 ms gone, 6..9 ms retained.
  EXPECT_EQ(out.find("\"ts\":5000.000"), std::string::npos);
  EXPECT_NE(out.find("\"ts\":6000.000"), std::string::npos);
  EXPECT_NE(out.find("\"ts\":9000.000"), std::string::npos);
}

TEST(ObsTraceCap, UnhitCapIsByteIdenticalToUnbounded) {
  // A generous cap that is never reached must not change a single byte of
  // the seeded trace artifact (the cap only drops, never reorders).
  auto run = [](std::size_t max_events) {
    telemetry::TelemetryConfig cfg;
    cfg.run_id = 77;
    cfg.max_trace_events = max_events;
    telemetry::TelemetrySink sink(cfg);
    trace::TwitterTraceConfig tc;
    tc.duration_s = 2.0;
    tc.mean_rate = 200.0;
    tc.seed = 77;
    const trace::Trace t = trace::SynthesizeTwitterTrace(tc);
    baselines::ScenarioConfig config;
    config.gpus = 3;
    auto runtimes = baselines::MakeRuntimeSetFor(config);
    config.initial_demand =
        baselines::DemandFromTrace(t, *runtimes, config.slo);
    auto scheme = baselines::MakeSchemeByName("arlo", config);
    sim::EngineConfig engine;
    engine.telemetry = &sink;
    (void)sim::RunScenario(t, *scheme, engine);
    std::ostringstream os;
    sink.WriteChromeTrace(os);
    return os.str();
  };
  const std::string unbounded = run(0);
  const std::string capped = run(1u << 22);
  ASSERT_GT(unbounded.size(), 100u);
  EXPECT_EQ(unbounded, capped);
}

// --- determinism with the full obs plane attached -------------------------

TEST(ObsDeterminism, ObserversAndMirrorDoNotPerturbSeededTraces) {
  // The acceptance contract: attaching SloMonitor + DumpTrigger observers
  // and a FlightRecorder mirror must leave the seeded sim trace output
  // byte-identical to a bare run.
  auto run = [](bool with_obs) {
    telemetry::TelemetryConfig cfg;
    cfg.run_id = 31;
    telemetry::TelemetrySink sink(cfg);
    FlightRecorder flight(256);
    SloMonitorConfig smc;
    smc.sink = nullptr;  // gauges would (intentionally) change /metrics only
    SloMonitor slo(smc);
    DumpTriggerConfig dtc;
    dtc.on_storm = [] {};
    DumpTrigger trigger(dtc);
    if (with_obs) {
      sink.Tracer().SetMirror(&flight);
      sink.AddObserver(&slo);
      sink.AddObserver(&trigger);
    }
    trace::TwitterTraceConfig tc;
    tc.duration_s = 2.0;
    tc.mean_rate = 200.0;
    tc.seed = 31;
    const trace::Trace t = trace::SynthesizeTwitterTrace(tc);
    baselines::ScenarioConfig config;
    config.gpus = 3;
    auto runtimes = baselines::MakeRuntimeSetFor(config);
    config.initial_demand =
        baselines::DemandFromTrace(t, *runtimes, config.slo);
    auto scheme = baselines::MakeSchemeByName("arlo", config);
    sim::EngineConfig engine;
    engine.telemetry = &sink;
    (void)sim::RunScenario(t, *scheme, engine);
    std::ostringstream os;
    sink.WriteChromeTrace(os);
    return os.str();
  };
  const std::string bare = run(false);
  const std::string observed = run(true);
  ASSERT_GT(bare.size(), 100u);
  EXPECT_EQ(bare, observed);
}

TEST(ObsDeterminism, SloBurnTrajectoryIsReproduciblePerSeed) {
  // Two identically seeded sim runs must drive the monitor through the
  // exact same burn trajectory (the injected-clock property).
  auto run = [] {
    telemetry::TelemetrySink sink;
    SloMonitor slo;
    sink.AddObserver(&slo);
    trace::TwitterTraceConfig tc;
    tc.duration_s = 2.0;
    tc.mean_rate = 300.0;
    tc.seed = 8;
    const trace::Trace t = trace::SynthesizeTwitterTrace(tc);
    baselines::ScenarioConfig config;
    config.gpus = 2;
    auto runtimes = baselines::MakeRuntimeSetFor(config);
    config.initial_demand =
        baselines::DemandFromTrace(t, *runtimes, config.slo);
    auto scheme = baselines::MakeSchemeByName("arlo", config);
    sim::EngineConfig engine;
    engine.telemetry = &sink;
    (void)sim::RunScenario(t, *scheme, engine);
    std::ostringstream os;
    json::Writer w(os);
    slo.WriteJson(w, Seconds(2.0));
    return os.str();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace arlo::obs
