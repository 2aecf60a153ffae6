// Admin-plane loopback integration: AdminServer/AdminPlane over real
// sockets on 127.0.0.1 against a live testbed.  These run under TSan
// (ObsAdmin* is in its filter) and ASan in check.sh, so they double as the
// data-race / lifetime proof for the introspection plane: scrapes race the
// testbed's threads mutating the very registries and rings being
// serialized.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cctype>
#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/scenario.h"
#include "net/socket.h"
#include "obs/admin_server.h"
#include "obs/flight_recorder.h"
#include "obs/http.h"
#include "obs/probe.h"
#include "obs/slo_monitor.h"
#include "serving/live_testbed.h"
#include "telemetry/sink.h"
#include "trace/twitter.h"

namespace arlo::obs {
namespace {

/// Every /metrics line must be a comment or `name[{labels}] value`, with the
/// value parseable as a number — the shape Prometheus accepts.
void ExpectValidExposition(const std::string& body) {
  std::istringstream is(body);
  std::string line;
  int samples = 0;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty()) << line;
    if (value != "+Inf") {
      std::size_t consumed = 0;
      (void)std::stod(value, &consumed);
      EXPECT_EQ(consumed, value.size()) << line;
    }
    ++samples;
  }
  EXPECT_GT(samples, 0);
}

TEST(ObsAdmin, RoutesAndErrorsOnBareServer) {
  AdminServer server;
  server.Route("GET", "/ping", [](const HttpRequest&) {
    HttpResponse r;
    r.body = "pong";
    return r;
  });
  server.Start();
  ASSERT_GT(server.Port(), 0);

  HttpResult r = HttpFetch(server.Port(), "GET", "/ping");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "pong");

  r = HttpFetch(server.Port(), "GET", "/nope");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 404);

  r = HttpFetch(server.Port(), "POST", "/ping");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 405);

  const AdminServer::Stats stats = server.GetStats();
  EXPECT_EQ(stats.connections, 3u);
  EXPECT_EQ(stats.requests, 3u);
  server.Stop();
}

TEST(ObsAdmin, ConcurrentClientsAllGetResponses) {
  AdminServer server;
  server.Route("GET", "/n", [](const HttpRequest&) {
    HttpResponse r;
    r.body = std::string(2000, 'x');  // force multi-packet flush paths
    return r;
  });
  server.Start();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10;
  std::vector<std::thread> clients;
  std::vector<int> ok_counts(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&server, &ok_counts, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const HttpResult r = HttpFetch(server.Port(), "GET", "/n");
        if (r.ok && r.status == 200 && r.body.size() == 2000) {
          ++ok_counts[t];
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok_counts[t], kPerThread);
  server.Stop();
}

/// Spins up a live testbed + the full admin plane the way live_serving
/// does, submits traffic, and lets each test poke the endpoints.
class ObsAdminPlaneTest : public ::testing::Test {
 protected:
  void StartPlane() {
    telemetry::TelemetryConfig tc;
    tc.concurrency = telemetry::Concurrency::kMultiThreaded;
    sink_ = std::make_unique<telemetry::TelemetrySink>(tc);
    flight_ = std::make_unique<FlightRecorder>(1024);
    sink_->Tracer().SetMirror(flight_.get());
    SloMonitorConfig smc;
    smc.slo = config_.slo;
    smc.min_events_to_alert = 1;
    smc.sink = sink_.get();
    slo_ = std::make_unique<SloMonitor>(smc);
    sink_->AddObserver(slo_.get());

    scheme_ = baselines::MakeSchemeByName("st", config_);
    serving::TestbedConfig tb;
    tb.telemetry = sink_.get();
    backend_ = std::make_unique<serving::LiveTestbed>(*scheme_, tb);
    backend_->Start();

    AdminPlaneConfig apc;
    apc.sink = sink_.get();
    apc.statusz = [this](std::ostream& os) { backend_->WriteStatusJson(os); };
    apc.healthz = [this] {
      const serving::TestbedHealth h = backend_->Health();
      AdminPlaneConfig::HealthzReport report;
      report.ok = h.ok;
      report.detail_json =
          "{\"live_workers\":" + std::to_string(h.live_workers) + "}";
      return report;
    };
    apc.now = [this] { return backend_->Now(); };
    apc.slo = slo_.get();
    apc.flight = flight_.get();
    plane_ = std::make_unique<AdminPlane>(std::move(apc));
    plane_->Start();
    ASSERT_GT(plane_->Port(), 0);
  }

  void SubmitBurst(int n) {
    for (int i = 0; i < n; ++i) {
      Request r;
      r.id = static_cast<RequestId>(next_id_++);
      r.arrival = backend_->Now();
      r.length = 64;
      backend_->Submit(r);
    }
  }

  void TearDown() override {
    if (plane_) plane_->Stop();
    if (backend_) (void)backend_->Finish();
  }

  baselines::ScenarioConfig config_;  // defaults; gpus adjusted per test
  std::unique_ptr<telemetry::TelemetrySink> sink_;
  std::unique_ptr<FlightRecorder> flight_;
  std::unique_ptr<SloMonitor> slo_;
  std::unique_ptr<sim::Scheme> scheme_;
  std::unique_ptr<serving::LiveTestbed> backend_;
  std::unique_ptr<AdminPlane> plane_;
  std::uint64_t next_id_ = 1;
};

TEST_F(ObsAdminPlaneTest, MetricsIsValidPrometheusExposition) {
  config_.gpus = 2;
  StartPlane();
  SubmitBurst(50);
  backend_->Drain();
  const HttpResult r = HttpFetch(plane_->Port(), "GET", "/metrics");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(r.content_type.find("version=0.0.4"), std::string::npos);
  ExpectValidExposition(r.body);
  EXPECT_NE(r.body.find("arlo_requests_completed_total 50"),
            std::string::npos)
      << r.body.substr(0, 2000);
}

TEST_F(ObsAdminPlaneTest, StatuszReflectsClusterState) {
  config_.gpus = 3;
  StartPlane();
  SubmitBurst(20);
  backend_->Drain();
  const HttpResult r = HttpFetch(plane_->Port(), "GET", "/statusz");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("application/json"), std::string::npos);
  // Counts in the JSON must agree with the backend's own accessors.
  EXPECT_NE(r.body.find("\"live_workers\":3"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"submitted\":20"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"completed\":20"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"inflight\":0"), std::string::npos) << r.body;
  // The scheme section reports its runtime assignment.
  EXPECT_NE(r.body.find("\"scheme\":{"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"allocation\":["), std::string::npos) << r.body;
}

TEST_F(ObsAdminPlaneTest, HealthzIsOkWhileWorkersLive) {
  config_.gpus = 2;
  StartPlane();
  const HttpResult r = HttpFetch(plane_->Port(), "GET", "/healthz");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"ok\":true"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"live_workers\":2"), std::string::npos) << r.body;
}

TEST_F(ObsAdminPlaneTest, SloBurnRisesUnderOverload) {
  config_.gpus = 1;
  StartPlane();
  // Baseline: a trickle the single worker absorbs within SLO.
  SubmitBurst(5);
  backend_->Drain();
  const HttpResult before = HttpFetch(plane_->Port(), "GET", "/slo");
  ASSERT_TRUE(before.ok);
  EXPECT_NE(before.body.find("\"burn_rate\":0,"), std::string::npos)
      << before.body;
  // Overload: violating completions through the sink's observer fan-out —
  // the same path the testbed's threads use.
  for (int i = 0; i < 50; ++i) {
    RequestRecord rec;
    rec.id = 100000 + static_cast<RequestId>(i);
    rec.arrival = backend_->Now();
    rec.dispatch = rec.arrival;
    rec.start = rec.arrival;
    rec.completion = rec.arrival + 4 * config_.slo;  // way over
    sink_->RecordComplete(rec);
  }
  const HttpResult after = HttpFetch(plane_->Port(), "GET", "/slo");
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.body.find("\"burn_rate\":0,"), std::string::npos)
      << after.body;
  EXPECT_NE(after.body.find("\"alerting\":true"), std::string::npos)
      << after.body;
  // The alert also landed in the exported metrics.
  const HttpResult metrics = HttpFetch(plane_->Port(), "GET", "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_NE(metrics.body.find("arlo_slo_alerts_total"), std::string::npos);
}

TEST_F(ObsAdminPlaneTest, DebugDumpReturnsChromeTrace) {
  config_.gpus = 2;
  StartPlane();
  SubmitBurst(30);
  backend_->Drain();
  const HttpResult r = HttpFetch(plane_->Port(), "POST", "/debug/dump");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(r.body.find("\"flight_recorder\""), std::string::npos);
  // The mirror saw the same lifecycle events the tracer recorded.
  EXPECT_NE(r.body.find("\"service\""), std::string::npos)
      << r.body.substr(0, 1000);
  // GET on a POST-only route is a method error, not a dump.
  const HttpResult wrong = HttpFetch(plane_->Port(), "GET", "/debug/dump");
  ASSERT_TRUE(wrong.ok);
  EXPECT_EQ(wrong.status, 405);
}

TEST_F(ObsAdminPlaneTest, ScrapeStormWhileServing) {
  // Scrapes from several threads race live dispatch — the TSan money shot.
  config_.gpus = 2;
  StartPlane();
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([this] {
      for (int i = 0; i < 8; ++i) {
        const HttpResult m = HttpFetch(plane_->Port(), "GET", "/metrics");
        EXPECT_TRUE(m.ok);
        const HttpResult s = HttpFetch(plane_->Port(), "GET", "/statusz");
        EXPECT_TRUE(s.ok);
        const HttpResult d = HttpFetch(plane_->Port(), "POST", "/debug/dump");
        EXPECT_TRUE(d.ok);
      }
    });
  }
  for (int burst = 0; burst < 10; ++burst) {
    SubmitBurst(10);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& s : scrapers) s.join();
  backend_->Drain();
  const HttpResult r = HttpFetch(plane_->Port(), "GET", "/metrics");
  ASSERT_TRUE(r.ok);
  ExpectValidExposition(r.body);
  EXPECT_NE(r.body.find("arlo_requests_completed_total 100"),
            std::string::npos);
}

TEST(ObsAdmin, EndpointsAnswer503WhenProvidersAbsent) {
  AdminPlaneConfig apc;  // everything null
  AdminPlane plane(apc);
  plane.Start();
  for (const char* path : {"/metrics", "/statusz", "/slo"}) {
    const HttpResult r = HttpFetch(plane.Port(), "GET", path);
    ASSERT_TRUE(r.ok) << path;
    EXPECT_EQ(r.status, 503) << path;
  }
  // No health provider means "process is up": /healthz stays 200.
  const HttpResult h = HttpFetch(plane.Port(), "GET", "/healthz");
  ASSERT_TRUE(h.ok);
  EXPECT_EQ(h.status, 200);
  const HttpResult d = HttpFetch(plane.Port(), "POST", "/debug/dump");
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.status, 503);
  const HttpResult index = HttpFetch(plane.Port(), "GET", "/");
  ASSERT_TRUE(index.ok);
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);
  plane.Stop();
}

TEST(ObsAdmin, ReallocVerbParsesAppliesAndRejects) {
  // The cluster Runtime Scheduler's delta wire format: POST /realloc with
  // alloc=n0,n1,... in the query string (or urlencoded body).  200 when the
  // node applies it, 409 when it refuses (rollout in flight), 400 on a
  // malformed vector, 503 without a provider.
  std::vector<int> received;
  bool accept = true;
  AdminPlaneConfig apc;
  apc.realloc = [&](const std::vector<int>& allocation) {
    received = allocation;
    return accept;
  };
  AdminPlane plane(std::move(apc));
  plane.Start();

  HttpResult r = HttpFetch(plane.Port(), "POST", "/realloc?alloc=1,0,3");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"applied\":true"), std::string::npos);
  EXPECT_EQ(received, (std::vector<int>{1, 0, 3}));

  // Body form, with unrelated parameters around the vector.
  received.clear();
  r = HttpFetch(plane.Port(), "POST", "/realloc", "dry=0&alloc=0,2&x=1");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(received, (std::vector<int>{0, 2}));

  // The node refusing the vector is a retryable 409, not a success.
  accept = false;
  r = HttpFetch(plane.Port(), "POST", "/realloc?alloc=9");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 409);
  EXPECT_NE(r.body.find("\"applied\":false"), std::string::npos);

  // Malformed vectors never reach the provider.
  accept = true;
  received.clear();
  for (const char* bad :
       {"/realloc", "/realloc?alloc=", "/realloc?alloc=1,x,2",
        "/realloc?alloc=1,,2", "/realloc?realloc=1,2"}) {
    r = HttpFetch(plane.Port(), "POST", bad);
    ASSERT_TRUE(r.ok) << bad;
    EXPECT_EQ(r.status, 400) << bad;
    EXPECT_TRUE(received.empty()) << bad;
  }
  plane.Stop();

  AdminPlaneConfig bare;  // no realloc provider wired
  AdminPlane none(std::move(bare));
  none.Start();
  r = HttpFetch(none.Port(), "POST", "/realloc?alloc=1,2");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 503);
  none.Stop();
}

// ---------------------------------------------------------------- ObsFetch

using namespace std::chrono_literals;

// An admin plane that accepts and never answers (a stopped process: the
// kernel completes the handshake, nobody reads) costs a probe at most the
// fetch deadline, and reads as unreachable.
TEST(ObsFetch, GivesUpOnASilentListener) {
  net::ScopedFd silent = net::ListenTcp(0);
  const std::uint16_t port = net::LocalPort(silent.Get());
  const auto start = std::chrono::steady_clock::now();
  auto probe = std::async(std::launch::async,
                          [port] { return ProbeAdminEndpoint(port); });
  const bool bounded = probe.wait_for(kHttpFetchDeadline + 2s) ==
                       std::future_status::ready;
  // An unbounded fetch would wait forever; closing the listener resets its
  // connection, so the test fails instead of hanging the suite.
  if (!bounded) silent.Reset();
  EXPECT_TRUE(bounded);
  EXPECT_FALSE(probe.get().reachable);
  EXPECT_GE(std::chrono::steady_clock::now() - start, kHttpFetchDeadline);
}

/// Accepts one connection on `listener`, reads the request head, sends
/// `answer` and closes.
std::thread AnswerOnce(const net::ScopedFd& listener, std::string answer) {
  return std::thread([&listener, answer = std::move(answer)] {
    net::ScopedFd conn(::accept(listener.Get(), nullptr, nullptr));
    std::string request;
    char buf[1024];
    while (request.find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = ::recv(conn.Get(), buf, sizeof(buf), 0);
      if (n <= 0) return;
      request.append(buf, static_cast<std::size_t>(n));
    }
    // The client may stop reading and close early; a failed send ends it.
    for (std::size_t off = 0; off < answer.size();) {
      const ssize_t n = ::send(conn.Get(), answer.data() + off,
                               answer.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  });
}

// A response whose body stops short of its Content-Length (the peer died
// mid-write) is a failed fetch, not a short answer.
TEST(ObsFetch, BodyShorterThanContentLengthFails) {
  net::ScopedFd listener = net::ListenTcp(0);
  std::thread server = AnswerOnce(
      listener,
      "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n"
      "Connection: close\r\n\r\n{\"time_s\":1");
  const HttpResult result =
      HttpFetch(net::LocalPort(listener.Get()), "GET", "/statusz");
  server.join();
  EXPECT_FALSE(result.ok);
}

// A complete, well-formed response one byte over the cap fails the fetch:
// an admin port that streams bytes cannot grow the caller without bound.
TEST(ObsFetch, ResponseLargerThanTheCapFails) {
  const std::string head_template =
      "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: ";
  // The length's digit count does not change for bodies near 4 MiB.
  const std::size_t head_size =
      head_template.size() + std::to_string(kHttpFetchMaxResponseBytes).size() +
      std::string("\r\nConnection: close\r\n\r\n").size();
  const std::size_t body_size = kHttpFetchMaxResponseBytes + 1 - head_size;
  const std::string answer = head_template + std::to_string(body_size) +
                             "\r\nConnection: close\r\n\r\n" +
                             std::string(body_size, 'x');
  ASSERT_EQ(answer.size(), kHttpFetchMaxResponseBytes + 1);

  net::ScopedFd listener = net::ListenTcp(0);
  std::thread server = AnswerOnce(listener, answer);
  const HttpResult result =
      HttpFetch(net::LocalPort(listener.Get()), "GET", "/statusz");
  server.join();
  EXPECT_FALSE(result.ok);
}

}  // namespace
}  // namespace arlo::obs
