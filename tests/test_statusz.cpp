// The node /statusz format has one owner, serving::Statusz: LiveTestbed
// fills it, WriteStatusz formats it, ParseStatusz reads it back for the
// router's prober, /fleetz and the cluster Runtime Scheduler.
#include "serving/statusz.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/scenario.h"
#include "common/rng.h"
#include "serving/live_testbed.h"
#include "telemetry/sink.h"
#include "tenant/class_table.h"

namespace arlo::serving {
namespace {

// A body captured from a running node before the format moved behind
// Statusz, with the hand-written writer it replaced:
//   live_serving --listen=0 --admin-port=0 --speed=4 --gpus=3 --freeze-alloc
//     --tenants=interactive:w3:slo200,batch:w1:slo2000:shed
// under traced load, 50 ms after POST /realloc?alloc=1,0,0,1,0,0,0,1.  It
// carries tenants, length_mix, reallocs.last_s, workers gone, ready and
// provisioning, stages and a scheme block.
constexpr std::string_view kCapturedStatusz =
    R"json({"time_s":5.95609,"submitted":541,"completed":508,"inflight":33)json"
    R"json(,"buffered":0,"live_workers":3,"peak_workers":5)json"
    R"json(,"est_queue_delay_ns":150220233,"batches":{"formed":509)json"
    R"json(,"timeouts":0},"length_mix":{"bounds":[64,128,192,256,320,384)json"
    R"json(,448,512],"counts":[130,274,81,36,13,5,2,0]})json"
    R"json(,"reallocs":{"applied":1,"rejected":0,"last_s":5.67198})json"
    R"json(,"tenants":[{"class":0,"name":"interactive","weight":3)json"
    R"json(,"slo_ms":200,"buffered":0,"completed":352,"queue_delay_ns":0})json"
    R"json(,{"class":1,"name":"batch","weight":1,"slo_ms":2000,"buffered":0)json"
    R"json(,"completed":156,"queue_delay_ns":0}],"workers":[{"id":0)json"
    R"json(,"runtime":7,"state":"gone","max_length":0,"queued":0)json"
    R"json(,"executing":0},{"id":1,"runtime":7,"state":"ready")json"
    R"json(,"max_length":512,"queued":32,"executing":1,"idle_s":0.00016538})json"
    R"json(,{"id":2,"runtime":7,"state":"gone","max_length":0,"queued":0)json"
    R"json(,"executing":0},{"id":3,"runtime":0,"state":"provisioning")json"
    R"json(,"max_length":64,"queued":0,"executing":0},{"id":4,"runtime":3)json"
    R"json(,"state":"provisioning","max_length":256,"queued":0)json"
    R"json(,"executing":0}],"stages":{"accept":{"count":508,"p50_ns":191)json"
    R"json(,"p98_ns":1407},"admission":{"count":508,"p50_ns":191)json"
    R"json(,"p98_ns":575},"queue":{"count":508,"p50_ns":6143)json"
    R"json(,"p98_ns":26623},"batch":{"count":508,"p50_ns":1791)json"
    R"json(,"p98_ns":16777215},"prefill":{"count":508,"p50_ns":1441791)json"
    R"json(,"p98_ns":1703935},"decode":{"count":508,"p50_ns":0,"p98_ns":0})json"
    R"json(,"reply_write":{"count":508,"p50_ns":13311,"p98_ns":196607}})json"
    R"json(,"scheme":{"name":"arlo","allocation":[1,0,0,1,0,0,0,1])json"
    R"json(,"last_realloc_s":5.67193,"since_realloc_s":0.284165)json"
    R"json(,"target_gpus":3,"pending_launches":2,"ready_instances":1)json"
    R"json(,"levels":[{"level":0,"instances":0,"outstanding":0)json"
    R"json(,"capacity":0},{"level":1,"instances":0,"outstanding":0)json"
    R"json(,"capacity":0},{"level":2,"instances":0,"outstanding":0)json"
    R"json(,"capacity":0},{"level":3,"instances":0,"outstanding":0)json"
    R"json(,"capacity":0},{"level":4,"instances":0,"outstanding":0)json"
    R"json(,"capacity":0},{"level":5,"instances":0,"outstanding":0)json"
    R"json(,"capacity":0},{"level":6,"instances":0,"outstanding":0)json"
    R"json(,"capacity":0},{"level":7,"instances":1,"outstanding":33)json"
    R"json(,"capacity":26}],"dispatch":{"total":542,"demoted":542)json"
    R"json(,"fallbacks":406}}})json";

std::string Write(const Statusz& status) {
  std::ostringstream os;
  WriteStatusz(os, status);
  return os.str();
}

TEST(Statusz, CapturedBodyParsesAndRewritesByteForByte) {
  Statusz s;
  ASSERT_TRUE(ParseStatusz(kCapturedStatusz, s));
  EXPECT_EQ(Write(s), kCapturedStatusz);

  EXPECT_DOUBLE_EQ(s.time_s, 5.95609);
  EXPECT_EQ(s.submitted, 541);
  EXPECT_EQ(s.est_queue_delay_ns, 150'220'233);
  EXPECT_EQ(s.mix_bounds,
            (std::vector<int>{64, 128, 192, 256, 320, 384, 448, 512}));
  EXPECT_EQ(s.mix_counts,
            (std::vector<std::int64_t>{130, 274, 81, 36, 13, 5, 2, 0}));
  EXPECT_EQ(s.reallocs_applied, 1);
  ASSERT_TRUE(s.last_realloc_s.has_value());
  EXPECT_DOUBLE_EQ(*s.last_realloc_s, 5.67198);
  ASSERT_EQ(s.tenants.size(), 2u);
  EXPECT_EQ(s.tenants[1].name, "batch");
  EXPECT_EQ(s.tenants[1].completed, 156);
  ASSERT_EQ(s.workers.size(), 5u);
  EXPECT_EQ(s.workers[0].state, "gone");
  EXPECT_FALSE(s.workers[0].idle_s.has_value());
  EXPECT_EQ(s.workers[3].state, "provisioning");
  EXPECT_EQ(s.ReadyMaxLengths(), (std::vector<int>{512}));
  EXPECT_EQ(s.ReadyRuntimes(), (std::vector<int>{7}));
  EXPECT_EQ(s.pending_launches, 2);
  EXPECT_NE(s.stages.find("\"queue\":{\"count\":508"), std::string::npos);
}

TEST(Statusz, LiveTestbedBodyRoundTrips) {
  baselines::ScenarioConfig config;
  config.gpus = 2;
  auto scheme = baselines::MakeSchemeByName("arlo", config);
  const tenant::TenantClassTable tenants =
      tenant::TenantClassTable::Parse("a:w2:slo100,b:w1:slo900:shed");
  telemetry::TelemetrySink sink;
  sink.EnableStageMetrics(/*include_router=*/false);
  TestbedConfig tb;
  tb.time_scale = 0.1;
  tb.tenants = &tenants;
  tb.telemetry = &sink;
  tb.mix_bounds = {64, 512};
  LiveTestbed testbed(*scheme, tb);
  testbed.Start();
  for (int i = 0; i < 20; ++i) {
    Request r;
    r.id = static_cast<RequestId>(i + 1);
    r.arrival = testbed.Now();
    r.length = 32 + 20 * i;
    r.tenant_class = i % 2;
    testbed.Submit(r);
  }
  std::ostringstream os;
  testbed.WriteStatusJson(os);
  (void)testbed.Finish();

  Statusz s;
  ASSERT_TRUE(ParseStatusz(os.str(), s)) << os.str();
  EXPECT_EQ(Write(s), os.str());
  EXPECT_EQ(s.submitted, 20);
  EXPECT_EQ(s.tenants.size(), 2u);
  EXPECT_EQ(s.mix_bounds, (std::vector<int>{64, 512}));
  EXPECT_EQ(s.workers.size(), 2u);
  EXPECT_FALSE(s.stages.empty());
  EXPECT_NE(s.scheme.find("\"allocation\""), std::string::npos);
}

TEST(Statusz, RequiredFieldsAndTypesAreEnforced) {
  const std::string core =
      "\"time_s\":0.1,\"submitted\":0,\"completed\":0,\"inflight\":0,"
      "\"buffered\":0,\"live_workers\":0,\"est_queue_delay_ns\":0";
  Statusz s;
  EXPECT_TRUE(ParseStatusz("{" + core + "}", s));
  for (const char* bad :
       {",\"submitted\":1",                       // duplicate key
        ",\"peak_workers\":1.5",                  // fraction for a count
        ",\"workers\":{}",                         // object for an array
        ",\"workers\":[{\"id\":0}]",               // row missing fields
        ",\"length_mix\":{\"bounds\":[1],\"counts\":[]}",  // ragged mix
        ",\"reallocs\":{\"last_s\":\"x\"}",         // string for a number
        ",\"scheme\":[1]"}) {                      // array for the block
    EXPECT_FALSE(ParseStatusz("{" + core + bad + "}", s)) << bad;
  }
  EXPECT_FALSE(ParseStatusz("{\"time_s\":0.1}", s));
}

// Seeded mutation loop over valid bodies (no libFuzzer, as NetProtocolFuzz):
// the reader never crashes (the ASan stage runs this too), a rejected body
// leaves the struct untouched, and an accepted one re-writes to a body that
// parses back to an equal value.  Doubles print at the stream's six
// significant digits, so "equal" is compared on the written form, which
// carries every field.
TEST(StatuszFuzz, MutatedBodiesNeverCrashAndAcceptedOnesRewriteStably) {
  static const char* const kTokens[] = {
      "{", "}", "[", "]", ",", ":", "\"", "\\", "0", "-", ".", "e", "1e999",
      "null", "true", "\"state\":\"ready\"", "\"x\":1", "\\u0000", " "};
  const std::string body(kCapturedStatusz);
  Rng rng(2027);
  int accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string m = body;
    const int edits = 1 + static_cast<int>(rng.NextU64() % 3);
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.NextU64() % (m.size() + 1);
      switch (rng.NextU64() % 5) {
        case 0:
          if (pos < m.size()) {
            m[pos] ^= static_cast<char>(1 + rng.NextU64() % 255);
          }
          break;
        case 1: m.insert(pos, kTokens[rng.NextU64() % std::size(kTokens)]);
          break;
        case 2: m.erase(pos, 1 + rng.NextU64() % 12); break;
        case 3:
          // A digit rewritten keeps the document valid more often than not.
          if (pos < m.size() && m[pos] >= '0' && m[pos] <= '9') {
            m[pos] = static_cast<char>('0' + rng.NextU64() % 10);
          }
          break;
        case 4: m.resize(pos); break;
      }
    }
    Statusz s;
    s.submitted = -7;  // sentinel
    if (!ParseStatusz(m, s)) {
      ASSERT_EQ(s.submitted, -7) << "a rejected body leaked into the struct";
      continue;
    }
    ++accepted;
    const std::string rewritten = Write(s);
    Statusz again;
    ASSERT_TRUE(ParseStatusz(rewritten, again)) << m;
    EXPECT_EQ(Write(again), rewritten) << m;
    EXPECT_EQ(again.pending_launches, s.pending_launches);
  }
  EXPECT_GT(accepted, 100);
}

}  // namespace
}  // namespace arlo::serving
