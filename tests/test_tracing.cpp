// Cross-hop distributed tracing (docs/OBSERVABILITY.md):
//
//   TraceWire    — protocol v5 reply annex round-trips, back-compat with
//                  annex-less replies, strict rejection of malformed
//                  annexes, and fuzz over annexed streams
//   TraceStages  — stage naming/sampling invariants, the arlo_stage_*
//                  histogram family, the stage summary JSON, nested Chrome
//                  spans, and the arlo_trace_dropped_total counter
//   TraceCluster — integration over 127.0.0.1: annexes survive the router
//                  hop, timelines cover every hop exactly once, and the
//                  assembled spans sum to the client-observed latency
//   TraceProbe   — ProbeAdminEndpoint's statusz parsing rejects truncated
//                  or malformed payloads atomically
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "baselines/scenario.h"
#include "cluster/router.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/probe.h"
#include "serving/live_testbed.h"
#include "telemetry/sink.h"
#include "telemetry/stages.h"
#include "trace/twitter.h"

namespace arlo {
namespace {

using telemetry::Stage;
using telemetry::StageSpan;

// ---------------------------------------------------------------- TraceWire

net::Frame DecodeOne(const std::vector<std::uint8_t>& bytes) {
  net::FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  net::Frame frame;
  EXPECT_EQ(decoder.Next(frame), net::FrameDecoder::Result::kFrame);
  EXPECT_EQ(decoder.Pending(), 0u);
  return frame;
}

TEST(TraceWire, ReplyAnnexRoundTrips) {
  net::Reply msg;
  msg.id = 7;
  msg.request_id = 0xabcdef01u;
  msg.status = net::ReplyStatus::kOk;
  msg.queue_ns = 1000;
  msg.service_ns = 2000;
  msg.annex = {{Stage::kAccept, 120},
               {Stage::kAdmission, 80},
               {Stage::kQueue, 500000},
               {Stage::kBatch, 40000},
               {Stage::kPrefill, 3200000},
               {Stage::kDecode, 0},
               {Stage::kReplyWrite, 900}};

  std::vector<std::uint8_t> bytes;
  EncodeReply(msg, bytes);
  // base frame + count byte + 9 bytes per span
  ASSERT_EQ(bytes.size(), net::kReplyFrameBytes + 1 + msg.annex.size() * 9);

  const net::Frame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.type, net::MsgType::kReply);
  EXPECT_EQ(frame.reply, msg);
  EXPECT_EQ(frame.reply.annex, msg.annex);
}

TEST(TraceWire, UntracedReplyStaysByteIdentical) {
  // The annex is strictly additive: an empty one encodes the exact frame
  // every pre-v5 run produced, so untraced byte counts never move.
  net::Reply msg;
  msg.id = 3;
  std::vector<std::uint8_t> bytes;
  EncodeReply(msg, bytes);
  EXPECT_EQ(bytes.size(), net::kReplyFrameBytes);
  const net::Frame frame = DecodeOne(bytes);
  EXPECT_TRUE(frame.reply.annex.empty());
}

TEST(TraceWire, EncoderClampsAnnexToMaxSpans) {
  net::Reply msg;
  msg.id = 1;
  for (int i = 0; i < 40; ++i) {
    msg.annex.push_back({Stage::kQueue, i});
  }
  std::vector<std::uint8_t> bytes;
  EncodeReply(msg, bytes);
  ASSERT_EQ(bytes.size(), net::kReplyFrameBytes + 1 + net::kMaxAnnexSpans * 9);
  const net::Frame frame = DecodeOne(bytes);
  ASSERT_EQ(frame.reply.annex.size(), net::kMaxAnnexSpans);
  EXPECT_EQ(frame.reply.annex.front().dur_ns, 0);
}

TEST(TraceWire, MalformedAnnexesAreStickyErrors) {
  net::Reply msg;
  msg.id = 2;
  msg.annex = {{Stage::kQueue, 111}, {Stage::kPrefill, 222}};
  std::vector<std::uint8_t> base;
  EncodeReply(msg, base);

  {
    // Count byte claims more spans than the payload carries.
    std::vector<std::uint8_t> bytes = base;
    bytes[4 + 2 + 33] = 5;
    net::FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    net::Frame frame;
    EXPECT_EQ(decoder.Next(frame), net::FrameDecoder::Result::kError);
    EXPECT_NE(decoder.Error().find("annex"), std::string::npos)
        << decoder.Error();
  }
  {
    // Count byte of zero with annex bytes present: never valid (an empty
    // annex is encoded by omission).
    std::vector<std::uint8_t> bytes = base;
    bytes[4 + 2 + 33] = 0;
    net::FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    net::Frame frame;
    EXPECT_EQ(decoder.Next(frame), net::FrameDecoder::Result::kError);
  }
  {
    // A stage byte past the last defined stage.
    std::vector<std::uint8_t> bytes = base;
    bytes[4 + 2 + 33 + 1] = telemetry::kNumStages;
    net::FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    net::Frame frame;
    EXPECT_EQ(decoder.Next(frame), net::FrameDecoder::Result::kError);
    EXPECT_NE(decoder.Error().find("stage"), std::string::npos)
        << decoder.Error();
  }
  {
    // An annexed payload under a v4 version byte: the annex is v5-only.
    std::vector<std::uint8_t> bytes = base;
    bytes[4] = 4;
    net::FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    net::Frame frame;
    EXPECT_EQ(decoder.Next(frame), net::FrameDecoder::Result::kError);
  }
}

// Fuzz: single-byte corruption of an annexed reply stream either keeps
// decoding well-formed frames or dies sticky — annex validation must never
// let a mangled frame through with out-of-range stages.
TEST(TraceWireFuzz, AnnexedStreamSingleByteCorruptionEitherDecodesOrDies) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t i = 0; i < 6; ++i) {
    net::Reply r;
    r.id = i;
    r.status = net::ReplyStatus::kOk;
    r.annex = {{Stage::kAccept, 10},
               {Stage::kQueue, 20},
               {Stage::kPrefill, 30}};
    EncodeReply(r, stream);
  }

  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> mutated = stream;
    const std::size_t pos = rng.NextU64() % mutated.size();
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.NextU64() % 255);

    net::FrameDecoder decoder;
    decoder.Feed(mutated.data(), mutated.size());
    net::Frame frame;
    int frames = 0;
    for (;;) {
      const net::FrameDecoder::Result r = decoder.Next(frame);
      if (r == net::FrameDecoder::Result::kFrame) {
        ++frames;
        for (const StageSpan& span : frame.reply.annex) {
          ASSERT_LT(static_cast<int>(span.stage), telemetry::kNumStages);
        }
        continue;
      }
      break;  // kError (sticky) or kNeedMore (length-field mutation)
    }
    EXPECT_LE(frames, 6);
  }
}

// -------------------------------------------------------------- TraceStages

TEST(TraceStages, StageNamesAreStableAndDistinct) {
  ASSERT_EQ(telemetry::kNumNodeStages, 7);
  ASSERT_EQ(telemetry::kNumStages, 11);
  std::vector<std::string> names;
  for (int s = 0; s < telemetry::kNumStages; ++s) {
    names.emplace_back(telemetry::StageName(static_cast<Stage>(s)));
  }
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  // Wire-stable: these indices are on the wire (the annex stage byte).
  EXPECT_EQ(names[0], "accept");
  EXPECT_EQ(names[6], "reply_write");
  EXPECT_EQ(names[7], "router_pending");
  EXPECT_EQ(names[10], "wire");
}

TEST(TraceStages, HeadSamplingIsDeterministicAndProportional) {
  EXPECT_FALSE(telemetry::TraceSampled(123, 0));  // 0 = off
  EXPECT_TRUE(telemetry::TraceSampled(123, 1));   // 1 = everything
  int sampled = 0;
  for (std::uint64_t id = 0; id < 8192; ++id) {
    const bool hit = telemetry::TraceSampled(id, 8);
    EXPECT_EQ(hit, telemetry::TraceSampled(id, 8));  // deterministic
    if (hit) ++sampled;
  }
  // ~1/8 of 8192 = 1024; the splitmix64 hash should land well within 2x.
  EXPECT_GT(sampled, 512);
  EXPECT_LT(sampled, 2048);
}

TEST(TraceStages, ParseTraceSampleSpecs) {
  EXPECT_EQ(ParseTraceSample("off"), 0u);
  EXPECT_EQ(ParseTraceSample("0"), 0u);
  EXPECT_EQ(ParseTraceSample("1"), 1u);
  EXPECT_EQ(ParseTraceSample("1/64"), 64u);
  EXPECT_EQ(ParseTraceSample("64"), 64u);
  EXPECT_THROW(ParseTraceSample("1/0"), std::invalid_argument);
  EXPECT_THROW(ParseTraceSample("fast"), std::invalid_argument);
  EXPECT_THROW(ParseTraceSample("1/64x"), std::invalid_argument);
}

TEST(TraceStages, StageHistogramsExportAndSummarize) {
  telemetry::TelemetrySink sink;
  EXPECT_FALSE(sink.StageMetricsEnabled());
  {
    // Disabled: no arlo_stage_* family, and the summary is the empty
    // object — pre-tracing exports stay unchanged.
    std::ostringstream os;
    sink.WritePrometheus(os);
    EXPECT_EQ(os.str().find("arlo_stage_latency_ns"), std::string::npos);
    std::ostringstream summary;
    json::Writer summary_writer(summary);
    sink.WriteStageSummaryJson(summary_writer);
    EXPECT_EQ(summary.str(), "{}");
  }

  sink.EnableStageMetrics(/*include_router=*/false);
  ASSERT_TRUE(sink.StageMetricsEnabled());
  for (int i = 0; i < 10; ++i) {
    sink.RecordStageSpan({Stage::kQueue, 1000 * (i + 1)});
  }
  sink.RecordStageSpan({Stage::kPrefill, 5000});
  // Router stages are not registered on a node sink; recording one is a
  // no-op, not a crash.
  sink.RecordStageSpan({Stage::kWire, 42});

  std::ostringstream os;
  sink.WritePrometheus(os);
  const std::string prom = os.str();
  for (const char* stage :
       {"accept", "admission", "queue", "batch", "prefill", "decode",
        "reply_write"}) {
    // Histograms render as _bucket/_sum/_count series with the stage label.
    EXPECT_NE(prom.find("arlo_stage_latency_ns_count{stage=\"" +
                        std::string(stage) + "\"}"),
              std::string::npos)
        << stage;
  }
  EXPECT_EQ(prom.find("stage=\"wire\""), std::string::npos);

  std::ostringstream summary;
  json::Writer summary_writer(summary);
  sink.WriteStageSummaryJson(summary_writer);
  const std::string json = summary.str();
  EXPECT_NE(json.find("\"queue\":{\"count\":10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"prefill\":{\"count\":1"), std::string::npos);

  // Idempotent: a second enable (e.g. server restart) must not duplicate
  // the family, and widening to router stages only adds the new ones.
  sink.EnableStageMetrics(/*include_router=*/true);
  std::ostringstream os2;
  sink.WritePrometheus(os2);
  EXPECT_NE(os2.str().find("stage=\"wire\""), std::string::npos);
}

TEST(TraceStages, TimelineEmitsNestedChromeSpans) {
  telemetry::TelemetryConfig tc;
  tc.trace_requests = true;
  telemetry::TelemetrySink sink(tc);
  sink.EnableStageMetrics(/*include_router=*/true);

  const std::vector<StageSpan> spans = {{Stage::kRouterPending, 100},
                                        {Stage::kRouterPick, 50},
                                        {Stage::kQueue, 500},
                                        {Stage::kWire, 350}};
  sink.RecordStageTimeline(/*request_id=*/99, spans, /*e2e_ns=*/1000,
                           /*base_ts_ns=*/5000);

  std::ostringstream os;
  sink.Tracer().WriteJson(os);
  const std::string json = os.str();
  // One parent "request" span plus one child per stage, all in the "trace"
  // category on a dedicated lane, children tiled inside the parent.
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"router_pending\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"wire\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"trace\""), std::string::npos);
}

TEST(TraceStages, DroppedTraceEventsExportAsCounter) {
  telemetry::TelemetryConfig tc;
  tc.trace_requests = true;
  tc.max_trace_events = 4;
  telemetry::TelemetrySink sink(tc);
  for (int i = 0; i < 10; ++i) {
    sink.Tracer().Instant("evt", "test", i, 0);
  }
  ASSERT_EQ(sink.Tracer().Dropped(), 6u);

  std::ostringstream os;
  sink.WritePrometheus(os);
  EXPECT_NE(os.str().find("arlo_trace_dropped_total 6"), std::string::npos)
      << os.str();
  // The sync is a delta-add: a second export must not double-count.
  std::ostringstream os2;
  sink.WritePrometheus(os2);
  EXPECT_NE(os2.str().find("arlo_trace_dropped_total 6"), std::string::npos);
}

// ------------------------------------------------------------- TraceCluster

trace::Trace StableTrace(double rate, double duration_s, std::uint64_t seed) {
  trace::TwitterTraceConfig config;
  config.duration_s = duration_s;
  config.mean_rate = rate;
  config.pattern = trace::TwitterTraceConfig::Pattern::kStable;
  config.seed = seed;
  return trace::SynthesizeTwitterTrace(config);
}

/// One real backend node (scheme + testbed + wire server) for router tests.
struct RealNode {
  std::unique_ptr<sim::Scheme> scheme;
  std::unique_ptr<serving::LiveTestbed> testbed;
  std::unique_ptr<net::Server> server;

  RealNode() {
    baselines::ScenarioConfig config;
    config.gpus = 1;
    scheme = baselines::MakeSchemeByName("st", config);
    testbed = std::make_unique<serving::LiveTestbed>(*scheme,
                                                     serving::TestbedConfig{});
    testbed->Start();
    server = std::make_unique<net::Server>(*testbed, net::ServerConfig{});
    server->Start();
  }

  ~RealNode() {
    server->Stop();
    (void)testbed->Finish();
  }

  cluster::NodeEndpoint Endpoint() const { return {"", server->Port(), 0}; }
};

// The headline integration claim: with the router sampling every request,
// every reply's assembled timeline covers both hops — the four router-side
// spans plus all seven node stages, each exactly once, in pipeline order —
// and the spans sum to (within measurement slack, below) the latency the
// client itself observed.
TEST(TraceCluster, TimelineSurvivesRouterHopAndSumsToE2e) {
  std::vector<std::unique_ptr<RealNode>> nodes;
  for (int i = 0; i < 2; ++i) nodes.push_back(std::make_unique<RealNode>());

  telemetry::TelemetryConfig tc;
  tc.concurrency = telemetry::Concurrency::kMultiThreaded;
  telemetry::TelemetrySink sink(tc);

  cluster::RouterConfig rc;
  rc.policy = "least-inflight";
  for (const auto& node : nodes) rc.nodes.push_back(node->Endpoint());
  rc.sink = &sink;
  rc.trace_sample_n = 1;  // trace everything
  cluster::Router router(rc);
  router.Start();

  const trace::Trace t = StableTrace(150.0, 1.0, 17);
  net::LoadGeneratorConfig lg;
  lg.port = router.Port();
  lg.connections = 2;
  const net::LoadGeneratorResult result = RunLoadGenerator(t, lg);

  EXPECT_EQ(result.Lost(), 0u);
  ASSERT_EQ(result.CountByStatus(net::ReplyStatus::kOk), t.Size());

  // Pipeline order of a full cross-hop timeline.
  const std::vector<Stage> expected = {
      Stage::kRouterPending, Stage::kRouterPick, Stage::kRouterRetry,
      Stage::kAccept,        Stage::kAdmission,  Stage::kQueue,
      Stage::kBatch,         Stage::kPrefill,    Stage::kDecode,
      Stage::kReplyWrite,    Stage::kWire};

  std::vector<double> rel_gap;
  for (const auto& r : result.requests) {
    ASSERT_TRUE(r.replied);
    ASSERT_EQ(r.annex.size(), expected.size()) << "request " << r.id;
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      // Exactly once each, in order: duration-only spans tile by
      // construction, so order + uniqueness is the non-overlap proof.
      EXPECT_EQ(r.annex[i].stage, expected[i]) << "request " << r.id;
      EXPECT_GE(r.annex[i].dur_ns, 0);
      sum += r.annex[i].dur_ns;
    }
    EXPECT_GT(sum, 0) << "request " << r.id;
    // The timeline sums to the router-observed e2e; the client additionally
    // sees its own socket hop to the router, so the client latency is the
    // upper bound the sum approaches from below.
    const double latency = static_cast<double>(r.latency);
    if (latency > 0.0) {
      rel_gap.push_back(
          std::abs(latency - static_cast<double>(sum)) / latency);
    }
  }
  // Median relative gap within 5%: the assembled timeline accounts for the
  // client-observed latency up to the client<->router socket itself.
  ASSERT_FALSE(rel_gap.empty());
  std::sort(rel_gap.begin(), rel_gap.end());
  EXPECT_LT(rel_gap[rel_gap.size() / 2], 0.05);

  // The router's sink saw the stage family, router stages included.
  std::ostringstream os;
  sink.WritePrometheus(os);
  EXPECT_NE(os.str().find("arlo_stage_latency_ns_count{stage=\"wire\"}"),
            std::string::npos);
  EXPECT_NE(os.str().find("arlo_stage_latency_ns_count{stage=\"prefill\"}"),
            std::string::npos);

  router.Stop();
}

// The client's own trace flag survives the hop even when the router itself
// samples nothing; with both off, no reply carries an annex.
TEST(TraceCluster, ClientOptInIsHonoredAndOffMeansOff) {
  RealNode node;
  telemetry::TelemetryConfig tc;
  tc.concurrency = telemetry::Concurrency::kMultiThreaded;
  telemetry::TelemetrySink sink(tc);

  cluster::RouterConfig rc;
  rc.policy = "rr";
  rc.nodes = {node.Endpoint()};
  rc.sink = &sink;
  rc.trace_sample_n = 0;  // router samples nothing
  cluster::Router router(rc);
  router.Start();

  const trace::Trace t = StableTrace(100.0, 0.5, 23);
  {
    net::LoadGeneratorConfig lg;
    lg.port = router.Port();
    lg.trace_sample_n = 1;  // client opts every request in
    const net::LoadGeneratorResult result = RunLoadGenerator(t, lg);
    ASSERT_EQ(result.Lost(), 0u);
    for (const auto& r : result.requests) {
      if (r.replied && r.status == net::ReplyStatus::kOk) {
        EXPECT_FALSE(r.annex.empty()) << "request " << r.id;
      }
    }
  }
  {
    net::LoadGeneratorConfig lg;
    lg.port = router.Port();
    lg.trace_sample_n = 0;
    const net::LoadGeneratorResult result = RunLoadGenerator(t, lg);
    ASSERT_EQ(result.Lost(), 0u);
    for (const auto& r : result.requests) {
      EXPECT_TRUE(r.annex.empty()) << "request " << r.id;
    }
  }

  router.Stop();
}

// Direct node tracing without a router: the annex carries exactly the seven
// node stages and lands in the node's own arlo_stage_* histograms.
TEST(TraceCluster, DirectNodeAnnexCarriesSevenStages) {
  baselines::ScenarioConfig config;
  config.gpus = 1;
  auto scheme = baselines::MakeSchemeByName("st", config);
  telemetry::TelemetryConfig tc;
  tc.concurrency = telemetry::Concurrency::kMultiThreaded;
  telemetry::TelemetrySink sink(tc);
  serving::TestbedConfig tb;
  tb.telemetry = &sink;
  serving::LiveTestbed testbed(*scheme, tb);
  testbed.Start();
  net::ServerConfig sc;
  sc.telemetry = &sink;
  net::Server server(testbed, sc);
  server.Start();

  const trace::Trace t = StableTrace(100.0, 0.5, 29);
  net::LoadGeneratorConfig lg;
  lg.port = server.Port();
  lg.trace_sample_n = 1;
  const net::LoadGeneratorResult result = RunLoadGenerator(t, lg);
  ASSERT_EQ(result.Lost(), 0u);

  for (const auto& r : result.requests) {
    ASSERT_TRUE(r.replied);
    if (r.status != net::ReplyStatus::kOk) continue;
    ASSERT_EQ(r.annex.size(),
              static_cast<std::size_t>(telemetry::kNumNodeStages));
    for (int s = 0; s < telemetry::kNumNodeStages; ++s) {
      EXPECT_EQ(r.annex[static_cast<std::size_t>(s)].stage,
                static_cast<Stage>(s));
    }
    EXPECT_EQ(r.annex.back().stage, Stage::kReplyWrite);
  }

  server.Stop();
  (void)testbed.Finish();

  std::ostringstream os;
  sink.WritePrometheus(os);
  const std::string prom = os.str();
  EXPECT_NE(prom.find("arlo_stage_latency_ns_count{stage=\"queue\"}"),
            std::string::npos);
  // A node sink never registers router stages.
  EXPECT_EQ(prom.find("stage=\"router_pick\""), std::string::npos);
}

// --------------------------------------------------------------- TraceProbe

const char* kGoodStatusz =
    "{\"time_s\":2.5,\"submitted\":120,\"completed\":100,\"inflight\":15,"
    "\"buffered\":5,\"live_workers\":3,\"peak_workers\":4,"
    "\"est_queue_delay_ns\":7500000,"
    "\"batches\":{\"formed\":10,\"timeouts\":1},"
    "\"workers\":["
    "{\"id\":0,\"runtime\":1,\"state\":\"ready\",\"max_length\":512,"
    "\"queued\":2,\"executing\":1}],"
    "\"scheme\":{\"allocation\":[1,1]}}";

TEST(TraceProbe, ValidStatuszParses) {
  obs::NodeProbe probe;
  ASSERT_TRUE(serving::ParseStatusz(kGoodStatusz, probe));
  EXPECT_EQ(probe.submitted, 120);
  EXPECT_EQ(probe.ReadyMaxLengths(), (std::vector<int>{512}));
}

TEST(TraceProbe, TruncatedStatuszIsRejectedAtomically) {
  const std::string body(kGoodStatusz);
  // Every strict prefix is a truncated scrape; none may parse, and a failed
  // parse must leave the probe untouched.
  for (const std::size_t cut :
       {std::size_t{1}, std::size_t{20}, std::size_t{80}, body.size() - 1}) {
    obs::NodeProbe probe;
    probe.submitted = -7;  // sentinel
    EXPECT_FALSE(serving::ParseStatusz(body.substr(0, cut), probe)) << cut;
    EXPECT_EQ(probe.submitted, -7) << "partial parse leaked at cut " << cut;
    EXPECT_TRUE(probe.ReadyMaxLengths().empty());
  }
}

TEST(TraceProbe, MalformedPayloadsAreRejected) {
  obs::NodeProbe probe;
  EXPECT_FALSE(serving::ParseStatusz("", probe));
  EXPECT_FALSE(serving::ParseStatusz("null", probe));
  EXPECT_FALSE(serving::ParseStatusz("[1,2,3]", probe));
  EXPECT_FALSE(serving::ParseStatusz("<html>502 Bad Gateway</html>", probe));
  // Trailing garbage after a complete object: not one JSON document.
  EXPECT_FALSE(
      serving::ParseStatusz(std::string(kGoodStatusz) + "{\"x\":1}", probe));
  // Balanced but missing the core fields every node statusz carries.
  EXPECT_FALSE(
      serving::ParseStatusz("{\"time_s\":1.0,\"submitted\":3}", probe));
  // Braces inside strings must not fool the balance check.
  obs::NodeProbe ok;
  std::string tricky(kGoodStatusz);
  tricky.insert(1, "\"note\":\"{[\\\"}\",");
  EXPECT_TRUE(serving::ParseStatusz(tricky, ok));
}

TEST(TraceProbe, WorkerlessStatuszStillParses) {
  // A body with the core fields but no workers array: valid (a node with
  // no workers yet), parsing to an empty profile rather than failing.
  obs::NodeProbe probe;
  ASSERT_TRUE(serving::ParseStatusz(
      "{\"time_s\":0.1,\"submitted\":0,\"completed\":0,\"inflight\":0,"
      "\"buffered\":0,\"live_workers\":0,\"est_queue_delay_ns\":0}",
      probe));
  EXPECT_TRUE(probe.ReadyMaxLengths().empty());
}

}  // namespace
}  // namespace arlo
