// Router-tier integration tests on 127.0.0.1: real LiveTestbed backends for
// the zero-loss multiplexing path, hand-driven raw-socket backends for the
// failure choreography (a kill has to happen with requests provably held in
// flight on the victim, which a real backend cannot stage).  These run
// under TSan in check.sh, so they double as the race proof for the
// router's loop / prober / admin-caller thread structure.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "baselines/scenario.h"
#include "cluster/router.h"
#include "cluster/router_admin.h"
#include "common/json.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/admin_server.h"
#include "obs/http.h"
#include "serving/live_testbed.h"
#include "telemetry/sink.h"
#include "trace/twitter.h"

namespace arlo::cluster {
namespace {

using namespace std::chrono_literals;

/// A scriptable wire-protocol backend: echoes kOk replies (kEcho), holds
/// every submit unanswered until Release() (kHold) so a test can kill or
/// drain it with requests provably in flight, or never reads its sockets at
/// all (kStall) so the router's writes back up.  Accepts any number of
/// connections (the pool reconnects on rejoin).
class FakeBackend {
 public:
  enum class Mode { kEcho, kHold, kStall };

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

  /// kHold: answers every held submit and echoes from now on.
  void Release() {
    std::lock_guard lock(mu_);
    releasing_ = true;
    for (const auto& [fd, submit] : held_) Answer(fd, submit);
    held_.clear();
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
    std::lock_guard lock(mu_);
    for (int fd : conn_fds_) ::close(fd);
    conn_fds_.clear();
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
    if (mode_ == Mode::kStall) return;  // Kill closes the unread socket
    net::FrameDecoder decoder;
    std::uint8_t buf[1024];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return;
      decoder.Feed(buf, static_cast<std::size_t>(n));
      net::Frame frame;
      while (decoder.Next(frame) == net::FrameDecoder::Result::kFrame) {
        std::lock_guard lock(mu_);
        submits_.push_back(frame.submit);
        received_.fetch_add(1, std::memory_order_acq_rel);
        if (mode_ == Mode::kHold && !releasing_) {
          held_.emplace_back(fd, frame.submit);
        } else {
          Answer(fd, frame.submit);
        }
      }
    }
  }

  /// Writes one kOk reply; the caller holds mu_ (Release writes from the
  /// test thread while the handler reads the same socket).
  static void Answer(int fd, const net::SubmitRequest& submit) {
    net::Reply reply;
    reply.id = submit.id;
    reply.request_id = submit.request_id;
    reply.status = net::ReplyStatus::kOk;
    reply.queue_ns = 1000;
    reply.service_ns = 1000;
    std::vector<std::uint8_t> bytes;
    EncodeReply(reply, bytes);
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t sent = ::send(fd, bytes.data() + off, bytes.size() - off,
                                  MSG_NOSIGNAL);
      if (sent <= 0) return;
      off += static_cast<std::size_t>(sent);
    }
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
  std::vector<std::pair<int, net::SubmitRequest>> held_;  // guarded by mu_
  bool releasing_ = false;                                // guarded by mu_
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
  EXPECT_NE(status[0].down_reason, "");  // EOF or a reset, kept on the slot
  EXPECT_EQ(status[1].down_reason, "");

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

// A drain with requests in flight: the node takes no new routes, still
// answers everything routed to it before the drain, and only then reports
// kDrained — nothing lost, nothing re-routed, nothing evicted.
TEST(ClusterRouter, DrainingNodeAnswersWhatWasRoutedBeforeDrained) {
  FakeBackend backend(FakeBackend::Mode::kHold);

  telemetry::TelemetrySink sink;
  RouterConfig rc;
  rc.nodes = {{"a", backend.Port(), 0}};
  rc.sink = &sink;
  Router router(rc);
  router.Start();

  constexpr int kHeld = 8;
  net::ClientConnection client(router.Port());
  for (int i = 0; i < kHeld; ++i) {
    net::SubmitRequest submit;
    submit.id = static_cast<std::uint64_t>(i);
    submit.request_id = static_cast<std::uint64_t>(100 + i);
    submit.length = 64;
    client.Send(submit);
  }
  ASSERT_TRUE(WaitFor([&] { return backend.Received() == kHeld; }));

  ASSERT_TRUE(router.DrainNode(0));
  EXPECT_EQ(router.Pool().Status()[0].state, NodeState::kDraining);
  EXPECT_EQ(router.Pool().Status()[0].inflight, kHeld);
  EXPECT_FALSE(router.Healthy());  // no new routes once draining

  net::SubmitRequest late;
  late.id = kHeld;
  late.length = 64;
  client.Send(late);
  net::Reply reply;
  ASSERT_TRUE(client.Receive(reply));
  EXPECT_EQ(reply.status, net::ReplyStatus::kRejectNoNode);
  EXPECT_EQ(reply.id, static_cast<std::uint64_t>(kHeld));

  backend.Release();
  std::vector<int> answered(kHeld, 0);
  for (int i = 0; i < kHeld; ++i) {
    ASSERT_TRUE(client.Receive(reply)) << "lost after " << i << " replies";
    EXPECT_EQ(reply.status, net::ReplyStatus::kOk);
    ASSERT_LT(reply.id, static_cast<std::uint64_t>(kHeld));
    EXPECT_EQ(reply.request_id, 100 + reply.id);
    ++answered[reply.id];
  }
  for (int i = 0; i < kHeld; ++i) EXPECT_EQ(answered[i], 1) << "id " << i;
  ASSERT_TRUE(WaitFor([&] {
    return router.Pool().Status()[0].state == NodeState::kDrained;
  }));

  const NodeStatus status = router.Pool().Status()[0];
  EXPECT_EQ(status.inflight, 0);
  EXPECT_EQ(status.routed, kHeld);
  EXPECT_EQ(status.down_reason, "");
  EXPECT_EQ(backend.Received(), kHeld);
  const Router::Stats stats = router.GetStats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kHeld + 1));
  EXPECT_EQ(stats.replies, static_cast<std::uint64_t>(kHeld));
  EXPECT_EQ(stats.no_node, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(sink.Cluster().evictions->Value(), 0u);

  router.Stop();
}

// A node that stops reading fills its socket, so the router's frames for
// it back up in that node's out buffer (the want_write resume) on top of
// those the kernel already holds.  When the node dies, every request routed
// to it — written or still queued — is re-routed to the survivor and
// answered exactly once; the dead node is reported down once and left with
// nothing in flight.
TEST(ClusterRouter, FramesBoundForADeadNodeAreReRoutedExactlyOnce) {
  FakeBackend victim(FakeBackend::Mode::kStall);
  FakeBackend survivor(FakeBackend::Mode::kEcho);

  telemetry::TelemetrySink sink;
  RouterConfig rc;
  rc.policy = "rr";  // deterministic: every other submit lands on the victim
  rc.nodes = {{"victim", victim.Port(), 0}, {"survivor", survivor.Port(), 0}};
  rc.sink = &sink;
  Router router(rc);
  router.Start();

  constexpr int kRequests = 8000;  // ~176 KB for the victim: past its window
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
  ASSERT_TRUE(WaitFor([&] {
    return router.GetStats().accepted == static_cast<std::uint64_t>(kRequests);
  }));
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
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(answered[i], 1) << "id " << i;
  }

  const Router::Stats stats = router.GetStats();
  EXPECT_EQ(stats.replies, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.no_node, 0u);
  EXPECT_EQ(stats.retries, static_cast<std::uint64_t>(kRequests / 2));
  EXPECT_EQ(survivor.Received(), kRequests);
  EXPECT_EQ(sink.Cluster().evictions->Value(), 1u);
  const std::vector<NodeStatus> status = router.Pool().Status();
  EXPECT_EQ(status[0].state, NodeState::kEvicted);
  EXPECT_EQ(status[0].inflight, 0);
  EXPECT_NE(status[0].down_reason, "");
  EXPECT_EQ(status[1].inflight, 0);

  router.Stop();
}

// Replies to a client that reads slowly: thousands of them meet a small
// receive window, so the router's writes to that client go partial and
// resume on writability.  Every id still arrives exactly once, and the
// byte stream stays frame-aligned.
TEST(ClusterRouter, RepliesToASlowClientSurvivePartialWrites) {
  FakeBackend backend(FakeBackend::Mode::kEcho);

  RouterConfig rc;
  rc.nodes = {{"a", backend.Port(), 0}};
  Router router(rc);
  router.Start();

  net::ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(fd.Valid());
  // Both set before connect: a small window, and a small MSS so the
  // router's send buffer for this client starts small too.
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(fd.Get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf)),
            0);
  const int mss = 536;
  ASSERT_EQ(::setsockopt(fd.Get(), IPPROTO_TCP, TCP_MAXSEG, &mss, sizeof(mss)),
            0);
  const timeval timeout{10, 0};  // a lost reply fails the test, not hangs it
  ASSERT_EQ(::setsockopt(fd.Get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(router.Port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd.Get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  constexpr int kRequests = 8000;  // ~312 KB of replies
  std::vector<std::uint8_t> out;
  for (int i = 0; i < kRequests; ++i) {
    net::SubmitRequest msg;
    msg.id = static_cast<std::uint64_t>(i);
    msg.length = 64;
    net::EncodeSubmit(msg, out);
  }
  for (std::size_t off = 0; off < out.size();) {
    const ssize_t n = ::send(fd.Get(), out.data() + off, out.size() - off,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  std::this_thread::sleep_for(100ms);

  std::vector<int> seen(kRequests, 0);
  net::FrameDecoder decoder;
  int received = 0;
  std::uint8_t buf[4096];
  while (received < kRequests) {
    const ssize_t n = ::recv(fd.Get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "after " << received << " replies";
    decoder.Feed(buf, static_cast<std::size_t>(n));
    net::Frame frame;
    net::FrameDecoder::Result r;
    while ((r = decoder.Next(frame)) == net::FrameDecoder::Result::kFrame) {
      ASSERT_EQ(frame.type, net::MsgType::kReply);
      ASSERT_LT(frame.reply.id, static_cast<std::uint64_t>(kRequests));
      EXPECT_EQ(frame.reply.status, net::ReplyStatus::kOk);
      ++seen[frame.reply.id];
      ++received;
    }
    ASSERT_EQ(r, net::FrameDecoder::Result::kNeedMore) << decoder.Error();
  }
  EXPECT_EQ(decoder.Pending(), 0u);
  for (int i = 0; i < kRequests; ++i) EXPECT_EQ(seen[i], 1) << "id " << i;
  EXPECT_EQ(router.GetStats().replies, static_cast<std::uint64_t>(kRequests));

  router.Stop();
}

// A client leaves with requests in flight.  Their replies still resolve the
// router's books (the loop's conservation check runs every pass) and are
// dropped; the next client is served as if nothing happened.
TEST(ClusterRouter, ClientDisconnectWithRequestsInFlight) {
  FakeBackend backend(FakeBackend::Mode::kHold);

  RouterConfig rc;
  rc.nodes = {{"a", backend.Port(), 0}};
  Router router(rc);
  router.Start();

  constexpr int kOrphans = 16;
  {
    net::ClientConnection leaver(router.Port());
    for (int i = 0; i < kOrphans; ++i) {
      net::SubmitRequest submit;
      submit.id = static_cast<std::uint64_t>(i);
      submit.length = 64;
      leaver.Send(submit);
    }
    ASSERT_TRUE(WaitFor([&] { return backend.Received() == kOrphans; }));
  }  // closes with every request held by the backend
  backend.Release();
  ASSERT_TRUE(WaitFor([&] {
    return router.GetStats().replies == static_cast<std::uint64_t>(kOrphans);
  }));

  net::ClientConnection client(router.Port());
  for (int i = 0; i < 4; ++i) {
    net::SubmitRequest submit;
    submit.id = static_cast<std::uint64_t>(50 + i);
    submit.request_id = static_cast<std::uint64_t>(500 + i);
    submit.length = 64;
    client.Send(submit);
    net::Reply reply;
    ASSERT_TRUE(client.Receive(reply));
    EXPECT_EQ(reply.status, net::ReplyStatus::kOk);
    EXPECT_EQ(reply.id, static_cast<std::uint64_t>(50 + i));
    EXPECT_EQ(reply.request_id, static_cast<std::uint64_t>(500 + i));
  }

  const Router::Stats stats = router.GetStats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kOrphans + 4));
  EXPECT_EQ(stats.replies, stats.accepted);
  EXPECT_EQ(stats.no_node, 0u);
  EXPECT_EQ(router.Pool().Status()[0].inflight, 0);
  std::ostringstream status;
  json::Writer status_writer(status);
  router.WriteStatusJson(status_writer);
  EXPECT_NE(status.str().find("\"inflight\":0,"), std::string::npos)
      << status.str();

  router.Stop();
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
  EXPECT_EQ(router.Pool().Status()[0].down_reason,
            "2 consecutive failed probes");
  std::ostringstream status;
  json::Writer status_writer(status);
  router.WriteStatusJson(status_writer);
  EXPECT_NE(status.str().find(
                "\"down_reason\":\"2 consecutive failed probes\""),
            std::string::npos)
      << status.str();
  EXPECT_GE(sink.Cluster().probe_failures->Value(), 2u);
  EXPECT_EQ(sink.Cluster().evictions->Value(), 1u);

  router.Stop();
}

/// A node /statusz body with every field the probe parser requires.
constexpr const char* kNodeStatusz =
    "{\"time_s\":1.0,\"submitted\":4,\"completed\":4,\"inflight\":0,"
    "\"buffered\":0,\"live_workers\":1,\"est_queue_delay_ns\":0}";

/// An admin plane answering /healthz with 200 and /statusz with `statusz`.
std::unique_ptr<obs::AdminServer> FakeAdmin(std::string statusz) {
  auto admin = std::make_unique<obs::AdminServer>();
  admin->Route("GET", "/healthz", [](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "application/json", "{\"ok\":true}"};
  });
  admin->Route("GET", "/statusz", [statusz](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "application/json", statusz};
  });
  admin->Start();
  return admin;
}

// One node whose admin plane accepts and never answers (a stopped process)
// must neither stall probing of the others nor escape eviction: every fetch
// gives up at its deadline and counts as a failed probe.
TEST(ClusterRouter, SilentAdminPlaneNeitherStallsProbingNorEscapesEviction) {
  FakeBackend silent_node(FakeBackend::Mode::kEcho);
  FakeBackend good_node(FakeBackend::Mode::kEcho);
  net::ScopedFd silent_admin = net::ListenTcp(0);
  const auto good_admin = FakeAdmin(kNodeStatusz);

  RouterConfig rc;
  rc.policy = "rr";
  rc.nodes = {{"silent", silent_node.Port(), net::LocalPort(silent_admin.Get())},
              {"good", good_node.Port(), good_admin->Port()}};
  rc.probe_period = std::chrono::milliseconds(10);
  rc.probe_failures_to_evict = 2;
  Router router(rc);
  router.Start();

  const bool evicted = WaitFor(
      [&] { return router.Pool().Status()[0].state == NodeState::kEvicted; },
      2 * obs::kHttpFetchDeadline + 3000ms);
  const std::uint64_t probes = good_admin->GetStats().requests;
  const bool still_probed = WaitFor(
      [&] { return good_admin->GetStats().requests >= probes + 4; }, 2000ms);
  // A prober stuck on an unbounded fetch is released by the reset, so the
  // test fails instead of hanging in Stop.
  silent_admin.Reset();
  EXPECT_TRUE(evicted);
  EXPECT_TRUE(still_probed);
  EXPECT_EQ(router.Pool().Status()[0].down_reason,
            "2 consecutive failed probes");
  EXPECT_EQ(router.Pool().Status()[1].state, NodeState::kHealthy);
  router.Stop();
}

// /fleetz splices a node's /statusz only when the probe parser accepts it:
// a truncated body is listed as unreachable and the document stays valid.
TEST(ClusterRouter, FleetzListsATruncatedStatuszAsUnreachable) {
  FakeBackend cut_node(FakeBackend::Mode::kEcho);
  FakeBackend good_node(FakeBackend::Mode::kEcho);
  // A statusz cut off mid-write (its own numbers, so a find tells it apart
  // from the good node's body).
  const std::string cut = "{\"time_s\":2.5,\"submitted\":9,\"comp";
  const auto cut_admin = FakeAdmin(cut);
  const auto good_admin = FakeAdmin(kNodeStatusz);

  RouterConfig rc;
  rc.policy = "rr";
  rc.nodes = {{"cut", cut_node.Port(), cut_admin->Port()},
              {"good", good_node.Port(), good_admin->Port()}};
  rc.probe_period = std::chrono::hours(1);  // /fleetz fetches on its own
  Router router(rc);
  router.Start();
  auto admin = MakeRouterAdmin(router, nullptr);
  admin->Start();

  const obs::HttpResult fleet = obs::HttpFetch(admin->Port(), "GET", "/fleetz");
  ASSERT_TRUE(fleet.ok);
  EXPECT_EQ(fleet.body.find(cut), std::string::npos) << fleet.body;
  EXPECT_NE(fleet.body.find("\"admin_port\":" +
                            std::to_string(cut_admin->Port()) +
                            ",\"state\":\"healthy\",\"reachable\":false}"),
            std::string::npos)
      << fleet.body;
  EXPECT_NE(fleet.body.find(std::string("\"reachable\":true,\"statusz\":") +
                            kNodeStatusz),
            std::string::npos)
      << fleet.body;
  admin->Stop();
  router.Stop();
}

// Protocol versions through the router: a v5 submit carrying decode_len
// and tenant_class reaches the backend with both intact and its reply comes
// back with the client's tokens, while a legacy v4 frame is refused — the
// router drops that connection and forwards nothing.
TEST(ClusterRouter, ForwardsDecodeLenAndTenantClassAcrossVersions) {
  FakeBackend backend(FakeBackend::Mode::kEcho);

  RouterConfig rc;
  rc.policy = "rr";
  rc.nodes = {{"a", backend.Port(), 0}};
  Router router(rc);
  router.Start();

  // v5 client: generative + tenant-tagged submit.
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

  // v4 client: a current-layout submit stamped version 4 over a raw socket.
  std::vector<std::uint8_t> bytes;
  submit.id = 9;
  net::EncodeSubmit(submit, bytes);
  bytes[4] = 4;
  net::ScopedFd raw = net::ConnectTcp(router.Port());
  ASSERT_EQ(::send(raw.Get(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  std::uint8_t buf[64];
  EXPECT_EQ(::recv(raw.Get(), buf, sizeof(buf), 0), 0);  // dropped: EOF

  const std::vector<net::SubmitRequest> seen = backend.Submits();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].id, 5u);
  EXPECT_EQ(seen[0].decode_len, 48u);
  EXPECT_EQ(seen[0].tenant_class, 2u);
  EXPECT_EQ(router.GetStats().accepted, 1u);

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
