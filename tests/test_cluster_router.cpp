// Router-tier integration tests on 127.0.0.1: real LiveTestbed backends for
// the zero-loss multiplexing path, hand-driven raw-socket backends for the
// failure choreography (a kill has to happen with requests provably held in
// flight on the victim, which a real backend cannot stage).  These run
// under TSan in check.sh, so they double as the race proof for the
// router/pool thread structure.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/scenario.h"
#include "cluster/router.h"
#include "cluster/router_admin.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/http.h"
#include "serving/live_testbed.h"
#include "telemetry/sink.h"
#include "trace/twitter.h"

namespace arlo::cluster {
namespace {

using namespace std::chrono_literals;

/// A scriptable wire-protocol backend: echoes kOk replies (kEcho) or holds
/// every submit unanswered (kHold) so a test can kill it with requests
/// provably in flight.  Accepts any number of connections (the pool
/// reconnects on rejoin).
class FakeBackend {
 public:
  enum class Mode { kEcho, kHold };

  explicit FakeBackend(Mode mode) : mode_(mode), listen_(net::ListenTcp(0)) {
    acceptor_ = std::thread([this] { AcceptLoop(); });
  }

  ~FakeBackend() { Kill(); }

  std::uint16_t Port() const { return net::LocalPort(listen_.Get()); }

  int Received() const { return received_.load(std::memory_order_acquire); }

  /// Every submit frame this backend decoded, in arrival order.
  std::vector<net::SubmitRequest> Submits() const {
    std::lock_guard lock(mu_);
    return submits_;
  }

  /// Abrupt death: every socket closes mid-conversation.
  void Kill() {
    if (killed_.exchange(true)) return;
    ::shutdown(listen_.Get(), SHUT_RDWR);
    {
      std::lock_guard lock(mu_);
      for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    if (acceptor_.joinable()) acceptor_.join();
    std::vector<std::thread> handlers;
    {
      std::lock_guard lock(mu_);
      handlers.swap(handlers_);
    }
    for (std::thread& handler : handlers) handler.join();
  }

 private:
  void AcceptLoop() {
    for (;;) {
      const int fd = ::accept(listen_.Get(), nullptr, nullptr);
      if (fd < 0) return;
      std::lock_guard lock(mu_);
      if (killed_.load(std::memory_order_acquire)) {
        ::close(fd);
        return;
      }
      conn_fds_.push_back(fd);
      handlers_.emplace_back([this, fd] { Handle(fd); });
    }
  }

  void Handle(int fd) {
    net::FrameDecoder decoder;
    std::uint8_t buf[1024];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      decoder.Feed(buf, static_cast<std::size_t>(n));
      net::Frame frame;
      while (decoder.Next(frame) == net::FrameDecoder::Result::kFrame) {
        if (frame.type == net::MsgType::kSubmit) {
          std::lock_guard lock(mu_);
          submits_.push_back(frame.submit);
        }
        received_.fetch_add(1, std::memory_order_acq_rel);
        if (mode_ == Mode::kHold) continue;
        net::Reply reply;
        reply.id = frame.submit.id;
        reply.request_id = frame.submit.request_id;
        reply.status = net::ReplyStatus::kOk;
        reply.queue_ns = 1000;
        reply.service_ns = 1000;
        std::vector<std::uint8_t> bytes;
        EncodeReply(reply, bytes);
        std::size_t off = 0;
        while (off < bytes.size()) {
          const ssize_t sent = ::send(fd, bytes.data() + off,
                                      bytes.size() - off, MSG_NOSIGNAL);
          if (sent <= 0) return;
          off += static_cast<std::size_t>(sent);
        }
      }
    }
    ::close(fd);
  }

  Mode mode_;
  net::ScopedFd listen_;
  std::thread acceptor_;
  std::atomic<bool> killed_{false};
  std::atomic<int> received_{0};
  mutable std::mutex mu_;
  std::vector<int> conn_fds_;        // guarded by mu_
  std::vector<std::thread> handlers_;  // guarded by mu_
  std::vector<net::SubmitRequest> submits_;  // guarded by mu_
};

/// A port with nothing listening on it.
std::uint16_t DeadPort() {
  net::ScopedFd fd = net::ListenTcp(0);
  return net::LocalPort(fd.Get());
}

bool WaitFor(const std::function<bool()>& done,
             std::chrono::milliseconds budget = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return done();
}

trace::Trace StableTrace(double rate, double duration_s, std::uint64_t seed) {
  trace::TwitterTraceConfig config;
  config.duration_s = duration_s;
  config.mean_rate = rate;
  config.pattern = trace::TwitterTraceConfig::Pattern::kStable;
  config.seed = seed;
  return trace::SynthesizeTwitterTrace(config);
}

/// One real backend: scheme + testbed + wire server, bundled for tests
/// that want actual serving behavior behind the router.
struct RealNode {
  std::unique_ptr<sim::Scheme> scheme;
  std::unique_ptr<serving::LiveTestbed> testbed;
  std::unique_ptr<net::Server> server;

  explicit RealNode(double time_scale) {
    baselines::ScenarioConfig config;
    config.gpus = 1;
    scheme = baselines::MakeSchemeByName("st", config);
    serving::TestbedConfig tb;
    tb.time_scale = time_scale;
    testbed = std::make_unique<serving::LiveTestbed>(*scheme, tb);
    testbed->Start();
    server = std::make_unique<net::Server>(*testbed, net::ServerConfig{});
    server->Start();
  }

  ~RealNode() {
    server->Stop();
    (void)testbed->Finish();
  }

  NodeEndpoint Endpoint() const { return {"", server->Port(), 0}; }
};

// The headline multiplexing claim: a full trace through the router over
// three real backends comes back with zero loss, every reply kOk with the
// client's ids intact, and every node having served a nonzero share.
TEST(ClusterRouter, ThreeRealBackendsZeroLossAllNodesServe) {
  std::vector<std::unique_ptr<RealNode>> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(std::make_unique<RealNode>(1.0));

  telemetry::TelemetryConfig tc;
  tc.concurrency = telemetry::Concurrency::kMultiThreaded;
  telemetry::TelemetrySink sink(tc);

  RouterConfig rc;
  rc.policy = "least-inflight";
  for (const auto& node : nodes) rc.nodes.push_back(node->Endpoint());
  rc.sink = &sink;
  Router router(rc);
  router.Start();

  // ST on 1 GPU sustains ~175 req/s; 300 req/s over three nodes is ~57%
  // utilization, comfortable even under TSan.
  const trace::Trace t = StableTrace(300.0, 1.0, 31);
  net::LoadGeneratorConfig lg;
  lg.port = router.Port();
  lg.connections = 4;
  const net::LoadGeneratorResult result = RunLoadGenerator(t, lg);

  EXPECT_EQ(result.sent, t.Size());
  EXPECT_EQ(result.Lost(), 0u);
  EXPECT_EQ(result.CountByStatus(net::ReplyStatus::kOk), t.Size());
  for (const auto& r : result.requests) {
    ASSERT_TRUE(r.replied) << "request " << r.id;
    EXPECT_GT(r.service_ns, 0);
  }

  const Router::Stats stats = router.GetStats();
  EXPECT_EQ(stats.accepted, t.Size());
  EXPECT_EQ(stats.routed, t.Size());
  EXPECT_EQ(stats.replies, t.Size());
  EXPECT_EQ(stats.no_node, 0u);

  const std::vector<NodeStatus> status = router.Pool().Status();
  ASSERT_EQ(status.size(), 3u);
  std::int64_t total_routed = 0;
  for (const NodeStatus& n : status) {
    EXPECT_GT(n.routed, 0) << "node " << n.node << " served nothing";
    EXPECT_EQ(n.inflight, 0);
    total_routed += n.routed;
  }
  EXPECT_EQ(total_routed, static_cast<std::int64_t>(t.Size()));
  EXPECT_EQ(sink.Cluster().routed->Value(), t.Size());
  EXPECT_EQ(sink.Cluster().replies->Value(), t.Size());

  router.Stop();
}

// Kill one of three backends with requests provably held in flight on it:
// every one of those requests must be retried onto a survivor and every
// client submit must get a reply — zero loss.
TEST(ClusterRouter, NodeKillWithInflightRequestsLosesNothing) {
  FakeBackend victim(FakeBackend::Mode::kHold);
  FakeBackend survivor_a(FakeBackend::Mode::kEcho);
  FakeBackend survivor_b(FakeBackend::Mode::kEcho);

  telemetry::TelemetrySink sink;
  RouterConfig rc;
  rc.policy = "rr";  // deterministic spread: every third submit -> victim
  rc.nodes = {{"victim", victim.Port(), 0},
              {"a", survivor_a.Port(), 0},
              {"b", survivor_b.Port(), 0}};
  rc.sink = &sink;
  Router router(rc);
  router.Start();

  net::ClientConnection client(router.Port());
  constexpr int kRequests = 30;
  for (int i = 0; i < kRequests; ++i) {
    net::SubmitRequest submit;
    submit.id = static_cast<std::uint64_t>(i);
    submit.request_id = static_cast<std::uint64_t>(1000 + i);
    submit.length = 128;
    client.Send(submit);
  }

  // The victim holds its share unanswered; wait until it provably has
  // in-flight requests, then kill it.
  ASSERT_TRUE(WaitFor([&] { return victim.Received() >= 5; }));
  victim.Kill();

  std::vector<bool> answered(kRequests, false);
  for (int i = 0; i < kRequests; ++i) {
    net::Reply reply;
    ASSERT_TRUE(client.Receive(reply)) << "lost after " << i << " replies";
    EXPECT_EQ(reply.status, net::ReplyStatus::kOk);
    ASSERT_LT(reply.id, static_cast<std::uint64_t>(kRequests));
    EXPECT_FALSE(answered[reply.id]) << "duplicate reply " << reply.id;
    answered[reply.id] = true;
    EXPECT_EQ(reply.request_id, 1000 + reply.id);  // client token intact
  }

  const Router::Stats stats = router.GetStats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.replies, static_cast<std::uint64_t>(kRequests));
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(stats.no_node, 0u);
  EXPECT_GT(sink.Cluster().retries->Value(), 0u);
  EXPECT_EQ(sink.Cluster().evictions->Value(), 1u);

  const std::vector<NodeStatus> status = router.Pool().Status();
  EXPECT_EQ(status[0].state, NodeState::kEvicted);

  router.Stop();
}

// The batched fault path: one client send carries every submit, so the
// router routes them as one read batch (one write per node), and the node
// holding its half dies with all of it in flight.  Each request still gets
// exactly one reply, the router's books balance, and no node is left with
// reservations.
TEST(ClusterRouter, BatchedSubmitsSurviveNodeDeathExactlyOnce) {
  FakeBackend victim(FakeBackend::Mode::kHold);
  FakeBackend survivor(FakeBackend::Mode::kEcho);

  RouterConfig rc;
  rc.policy = "rr";  // deterministic: every other submit lands on the victim
  rc.nodes = {{"victim", victim.Port(), 0}, {"survivor", survivor.Port(), 0}};
  Router router(rc);
  router.Start();

  constexpr int kRequests = 64;
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < kRequests; ++i) {
    net::SubmitRequest submit;
    submit.id = static_cast<std::uint64_t>(i);
    submit.request_id = static_cast<std::uint64_t>(1000 + i);
    submit.length = 128;
    net::EncodeSubmit(submit, bytes);
  }
  net::ClientConnection client(router.Port());
  client.SendEncoded(bytes);

  ASSERT_TRUE(WaitFor([&] { return victim.Received() == kRequests / 2; }));
  victim.Kill();

  std::vector<int> answered(kRequests, 0);
  for (int i = 0; i < kRequests; ++i) {
    net::Reply reply;
    ASSERT_TRUE(client.Receive(reply)) << "lost after " << i << " replies";
    EXPECT_EQ(reply.status, net::ReplyStatus::kOk);
    ASSERT_LT(reply.id, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(reply.request_id, 1000 + reply.id);
    ++answered[reply.id];
  }
  for (int i = 0; i < kRequests; ++i) EXPECT_EQ(answered[i], 1) << "id " << i;

  const Router::Stats stats = router.GetStats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.accepted, stats.replies + stats.no_node);
  EXPECT_GE(stats.retries, static_cast<std::uint64_t>(kRequests / 2));
  EXPECT_EQ(survivor.Received(), kRequests);  // its half + the re-routes
  ASSERT_TRUE(WaitFor([&] {
    for (const NodeStatus& n : router.Pool().Status()) {
      if (n.inflight != 0) return false;
    }
    return true;
  }));
  EXPECT_EQ(router.Pool().Status()[0].state, NodeState::kEvicted);

  router.Stop();
}

// A drain that lands between Reserve and SendFrames: the node still takes
// the reserved frames (the reservations hold its connection open), answers
// them, and only then reports kDrained — nothing lost, nothing evicted.
TEST(ClusterRouter, DrainBetweenReserveAndSendFramesLosesNothing) {
  FakeBackend backend(FakeBackend::Mode::kEcho);

  telemetry::TelemetrySink sink;
  NodePoolConfig config;
  config.sink = &sink;
  NodePool* pool_ptr = nullptr;
  std::atomic<int> replies{0};
  NodePoolCallbacks callbacks;
  callbacks.on_reply = [&](int node, const net::Reply&) {
    // Counted before NoteDone: the last NoteDone is what reports kDrained.
    replies.fetch_add(1, std::memory_order_acq_rel);
    pool_ptr->NoteDone(node);
  };
  NodePool pool(config, std::move(callbacks));
  pool_ptr = &pool;
  const int node = pool.Join({"a", backend.Port(), 0});
  ASSERT_EQ(node, 0);

  constexpr int kFrames = 8;
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(pool.Reserve(node));
    net::SubmitRequest submit;
    submit.id = static_cast<std::uint64_t>(i);
    submit.request_id = static_cast<std::uint64_t>(i + 1);
    submit.length = 64;
    net::EncodeSubmit(submit, bytes);
  }
  ASSERT_TRUE(pool.Drain(node));
  EXPECT_EQ(pool.Status()[0].state, NodeState::kDraining);
  EXPECT_EQ(pool.Status()[0].inflight, kFrames);
  EXPECT_FALSE(pool.Reserve(node));  // no new routes once draining

  ASSERT_TRUE(pool.SendFrames(node, bytes, kFrames));
  ASSERT_TRUE(WaitFor([&] {
    return pool.Status()[0].state == NodeState::kDrained;
  }));
  EXPECT_EQ(replies.load(), kFrames);
  EXPECT_EQ(backend.Received(), kFrames);
  const NodeStatus status = pool.Status()[0];
  EXPECT_EQ(status.inflight, 0);
  EXPECT_EQ(status.routed, kFrames);
  EXPECT_EQ(sink.Cluster().evictions->Value(), 0u);

  pool.Stop();
}

// A batch written to a node that already went down is refused without a
// second down report, and its reservations are released.
TEST(ClusterRouter, SendFramesToDownNodeReleasesReservations) {
  FakeBackend backend(FakeBackend::Mode::kHold);

  std::atomic<int> downs{0};
  NodePoolCallbacks callbacks;
  callbacks.on_down = [&](int) { downs.fetch_add(1); };
  NodePool pool(NodePoolConfig{}, std::move(callbacks));
  const int node = pool.Join({"a", backend.Port(), 0});
  ASSERT_EQ(node, 0);

  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.Reserve(node));
    net::SubmitRequest submit;
    submit.id = static_cast<std::uint64_t>(i);
    net::EncodeSubmit(submit, bytes);
  }
  backend.Kill();
  ASSERT_TRUE(WaitFor([&] {
    return pool.Status()[0].state == NodeState::kEvicted;
  }));
  EXPECT_FALSE(pool.SendFrames(node, bytes, 3));
  EXPECT_FALSE(pool.Send(node, net::SubmitRequest{}));  // not routable
  EXPECT_EQ(pool.Status()[0].inflight, 0);
  EXPECT_EQ(pool.Status()[0].routed, 0);
  EXPECT_EQ(downs.load(), 1);

  pool.Stop();
}

// Graceful drain: the drained node stops receiving new work, reaches
// kDrained once idle, and everything routes to the remaining node.
TEST(ClusterRouter, DrainStopsNewWorkAndCompletes) {
  FakeBackend a(FakeBackend::Mode::kEcho);
  FakeBackend b(FakeBackend::Mode::kEcho);

  RouterConfig rc;
  rc.policy = "rr";
  rc.nodes = {{"a", a.Port(), 0}, {"b", b.Port(), 0}};
  Router router(rc);
  router.Start();

  EXPECT_TRUE(router.DrainNode(0));
  EXPECT_FALSE(router.DrainNode(0));  // already draining/drained
  ASSERT_TRUE(WaitFor([&] {
    return router.Pool().Status()[0].state == NodeState::kDrained;
  }));

  const int before = a.Received();
  net::ClientConnection client(router.Port());
  for (int i = 0; i < 10; ++i) {
    net::SubmitRequest submit;
    submit.id = static_cast<std::uint64_t>(i);
    submit.length = 64;
    client.Send(submit);
  }
  for (int i = 0; i < 10; ++i) {
    net::Reply reply;
    ASSERT_TRUE(client.Receive(reply));
    EXPECT_EQ(reply.status, net::ReplyStatus::kOk);
  }
  EXPECT_EQ(a.Received(), before);  // drained node saw nothing new
  EXPECT_EQ(b.Received(), 10);
  EXPECT_TRUE(router.Healthy());  // one node still routable

  router.Stop();
}

// No routable backend: the router answers immediately with the explicit
// kRejectNoNode shed — a reply, not a dropped connection.
TEST(ClusterRouter, NoRoutableNodeShedsExplicitly) {
  RouterConfig rc;  // no nodes at all
  Router router(rc);
  router.Start();
  EXPECT_FALSE(router.Healthy());

  net::ClientConnection client(router.Port());
  net::SubmitRequest submit;
  submit.id = 7;
  submit.request_id = 77;
  submit.length = 128;
  client.Send(submit);
  net::Reply reply;
  ASSERT_TRUE(client.Receive(reply));
  EXPECT_EQ(reply.status, net::ReplyStatus::kRejectNoNode);
  EXPECT_EQ(reply.id, 7u);
  EXPECT_EQ(reply.request_id, 77u);
  EXPECT_EQ(router.GetStats().no_node, 1u);

  router.Stop();
}

// Probe-driven eviction: a node whose admin endpoint is dead gets evicted
// after N consecutive probe failures, and its held requests come back as
// explicit sheds (no survivors to retry onto) — still zero silent loss.
TEST(ClusterRouter, ProbeFailureEvictsAndShedsExplicitly) {
  FakeBackend backend(FakeBackend::Mode::kHold);

  telemetry::TelemetrySink sink;
  RouterConfig rc;
  rc.policy = "queue-delay";
  rc.nodes = {{"flaky", backend.Port(), DeadPort()}};  // admin never answers
  rc.probe_period = std::chrono::milliseconds(10);
  rc.probe_failures_to_evict = 2;
  rc.sink = &sink;
  Router router(rc);
  router.Start();

  net::ClientConnection client(router.Port());
  for (int i = 0; i < 3; ++i) {
    net::SubmitRequest submit;
    submit.id = static_cast<std::uint64_t>(i);
    submit.length = 64;
    client.Send(submit);
  }
  ASSERT_TRUE(WaitFor([&] { return backend.Received() == 3; }));

  // Eviction fires off the prober; the held requests re-route, find no
  // node, and shed explicitly.
  for (int i = 0; i < 3; ++i) {
    net::Reply reply;
    ASSERT_TRUE(client.Receive(reply)) << "lost after " << i;
    EXPECT_EQ(reply.status, net::ReplyStatus::kRejectNoNode);
  }
  EXPECT_FALSE(router.Healthy());
  EXPECT_EQ(router.Pool().Status()[0].state, NodeState::kEvicted);
  EXPECT_GE(sink.Cluster().probe_failures->Value(), 2u);
  EXPECT_EQ(sink.Cluster().evictions->Value(), 1u);

  router.Stop();
}

// Protocol compatibility through the router: a v4 submit carrying
// decode_len and tenant_class, and a hand-built v3 frame from a legacy
// client, both reach the backend with their fields intact (v3 lands in
// class 0) and both replies come back with client tokens preserved.
TEST(ClusterRouter, ForwardsDecodeLenAndTenantClassAcrossVersions) {
  FakeBackend backend(FakeBackend::Mode::kEcho);

  RouterConfig rc;
  rc.policy = "rr";
  rc.nodes = {{"a", backend.Port(), 0}};
  Router router(rc);
  router.Start();

  // v4 client: generative + tenant-tagged submit.
  net::ClientConnection client(router.Port());
  net::SubmitRequest submit;
  submit.id = 5;
  submit.request_id = 505;
  submit.length = 128;
  submit.decode_len = 48;
  submit.tenant_class = 2;
  client.Send(submit);
  net::Reply reply;
  ASSERT_TRUE(client.Receive(reply));
  EXPECT_EQ(reply.status, net::ReplyStatus::kOk);
  EXPECT_EQ(reply.id, 5u);
  EXPECT_EQ(reply.request_id, 505u);

  // v3 client: hand-built 36-byte-payload generative submit (decode_len
  // but no tenant_class) over a raw socket.
  net::ScopedFd raw = net::ConnectTcp(router.Port());
  std::vector<std::uint8_t> bytes = {
      38, 0, 0, 0, 3, static_cast<std::uint8_t>(net::MsgType::kSubmit)};
  auto put_u64 = [&bytes](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  auto put_u32 = [&bytes](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put_u64(9u);    // id
  put_u64(909u);  // request_id
  put_u32(0u);    // model
  put_u32(256u);  // length
  put_u32(16u);   // decode_len
  put_u64(0u);    // deadline_ns
  ASSERT_EQ(bytes.size(), 4u + 38u);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t sent = ::send(raw.Get(), bytes.data() + off,
                                bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(sent, 0);
    off += static_cast<std::size_t>(sent);
  }
  net::FrameDecoder decoder;
  net::Frame frame;
  bool got = false;
  std::uint8_t buf[256];
  while (!got) {
    const ssize_t n = ::recv(raw.Get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    decoder.Feed(buf, static_cast<std::size_t>(n));
    got = decoder.Next(frame) == net::FrameDecoder::Result::kFrame;
  }
  EXPECT_EQ(frame.type, net::MsgType::kReply);
  EXPECT_EQ(frame.reply.status, net::ReplyStatus::kOk);
  EXPECT_EQ(frame.reply.id, 9u);
  EXPECT_EQ(frame.reply.request_id, 909u);

  ASSERT_TRUE(WaitFor([&] { return backend.Received() == 2; }));
  const std::vector<net::SubmitRequest> seen = backend.Submits();
  ASSERT_EQ(seen.size(), 2u);
  const net::SubmitRequest& v4 = seen[0].id == 5u ? seen[0] : seen[1];
  const net::SubmitRequest& v3 = seen[0].id == 9u ? seen[0] : seen[1];
  EXPECT_EQ(v4.id, 5u);
  EXPECT_EQ(v4.decode_len, 48u);
  EXPECT_EQ(v4.tenant_class, 2u);
  EXPECT_EQ(v3.id, 9u);
  EXPECT_EQ(v3.length, 256u);
  EXPECT_EQ(v3.decode_len, 16u);
  EXPECT_EQ(v3.tenant_class, 0u);  // legacy clients land in class 0

  router.Stop();
}

// The admin plane end to end: statusz/healthz/metrics answer, drain and
// join actually mutate the pool, and a rejoined endpoint resurrects its
// old node id.
TEST(ClusterRouter, AdminPlaneDrivesLifecycle) {
  FakeBackend a(FakeBackend::Mode::kEcho);
  FakeBackend b(FakeBackend::Mode::kEcho);

  telemetry::TelemetrySink sink;
  RouterConfig rc;
  rc.policy = "queue-delay";
  rc.nodes = {{"a", a.Port(), 0}, {"b", b.Port(), 0}};
  rc.sink = &sink;
  Router router(rc);
  router.Start();
  auto admin = MakeRouterAdmin(router, &sink);
  admin->Start();
  const std::uint16_t port = admin->Port();

  obs::HttpResult health = obs::HttpFetch(port, "GET", "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);

  obs::HttpResult status = obs::HttpFetch(port, "GET", "/statusz");
  ASSERT_TRUE(status.ok);
  EXPECT_NE(status.body.find("\"policy\":\"queue-delay\""), std::string::npos);
  EXPECT_NE(status.body.find("\"nodes\":["), std::string::npos);

  obs::HttpResult metrics = obs::HttpFetch(port, "GET", "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_NE(metrics.body.find("arlo_cluster_routed_total"),
            std::string::npos);

  // Drain node 0 over HTTP.
  obs::HttpResult drain =
      obs::HttpFetch(port, "POST", "/cluster/drain?node=0");
  ASSERT_TRUE(drain.ok);
  EXPECT_EQ(drain.status, 200);
  ASSERT_TRUE(WaitFor([&] {
    return router.Pool().Status()[0].state == NodeState::kDrained;
  }));
  EXPECT_EQ(obs::HttpFetch(port, "POST", "/cluster/drain?node=0").status,
            409);
  EXPECT_EQ(obs::HttpFetch(port, "POST", "/cluster/drain").status, 400);

  // Rejoin the drained endpoint over HTTP: same node id comes back.
  obs::HttpResult join = obs::HttpFetch(
      port, "POST", "/cluster/join?port=" + std::to_string(a.Port()));
  ASSERT_TRUE(join.ok);
  EXPECT_EQ(join.status, 200);
  EXPECT_NE(join.body.find("{\"joined\":0}"), std::string::npos);
  EXPECT_EQ(router.Pool().Status()[0].state, NodeState::kHealthy);
  EXPECT_EQ(router.Pool().NumNodes(), 2);
  EXPECT_GE(sink.Cluster().joins->Value(), 3u);  // 2 initial + 1 rejoin
  EXPECT_EQ(sink.Cluster().drains->Value(), 1u);

  // The resurrected node serves again.
  net::ClientConnection client(router.Port());
  for (int i = 0; i < 8; ++i) {
    net::SubmitRequest submit;
    submit.id = static_cast<std::uint64_t>(i);
    submit.length = 64;
    client.Send(submit);
    net::Reply reply;
    ASSERT_TRUE(client.Receive(reply));
    EXPECT_EQ(reply.status, net::ReplyStatus::kOk);
  }

  admin->Stop();
  router.Stop();
}

}  // namespace
}  // namespace arlo::cluster
