// End-to-end loopback tests: LiveTestbed + Server + LoadGenerator over real
// sockets on 127.0.0.1.  These run under TSan and ASan in check.sh, so they
// double as the data-race / lifetime proof for the whole net stack.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/scenario.h"
#include "net/client.h"
#include "net/conn.h"
#include "net/server.h"
#include "telemetry/sink.h"
#include "trace/twitter.h"

namespace arlo::net {
namespace {

using baselines::MakeSchemeByName;
using baselines::ScenarioConfig;

trace::Trace StableTrace(double rate, double duration_s, std::uint64_t seed) {
  trace::TwitterTraceConfig config;
  config.duration_s = duration_s;
  config.mean_rate = rate;
  config.pattern = trace::TwitterTraceConfig::Pattern::kStable;
  config.seed = seed;
  return trace::SynthesizeTwitterTrace(config);
}

SimDuration Percentile(std::vector<SimDuration> sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

// The acceptance-criteria run: a ~1k-request Twitter-Stable trace over four
// connections, unconstrained admission.  Every request must come back kOk —
// zero lost replies — and the server/client/telemetry counters must agree.
TEST(NetLoopback, ThousandRequestTraceZeroLoss) {
  ScenarioConfig config;
  config.gpus = 2;
  auto scheme = MakeSchemeByName("st", config);
  // 250 req/s for 4 s ≈ 1000 requests at ~70% utilization (ST service is
  // ~5.7 ms/request on 2 workers), compressed 2x.
  const trace::Trace t = StableTrace(250.0, 4.0, 21);

  telemetry::TelemetryConfig tc;
  tc.concurrency = telemetry::Concurrency::kMultiThreaded;
  telemetry::TelemetrySink sink(tc);

  serving::TestbedConfig tb;
  tb.time_scale = 0.5;
  tb.telemetry = &sink;
  serving::LiveTestbed testbed(*scheme, tb);
  testbed.Start();

  ServerConfig sc;
  sc.telemetry = &sink;
  Server server(testbed, sc);
  server.Start();

  LoadGeneratorConfig lg;
  lg.port = server.Port();
  lg.connections = 4;
  lg.time_scale = 0.5;
  const LoadGeneratorResult result = RunLoadGenerator(t, lg);

  EXPECT_EQ(result.sent, t.Size());
  EXPECT_EQ(result.received, t.Size());
  EXPECT_EQ(result.Lost(), 0u);
  EXPECT_EQ(result.CountByStatus(ReplyStatus::kOk), t.Size());
  for (const auto& r : result.requests) {
    ASSERT_TRUE(r.replied) << "request " << r.id;
    EXPECT_GT(r.service_ns, 0);
    EXPECT_GE(r.queue_ns, 0);
    // Client-observed latency covers the server-reported time in system.
    EXPECT_GE(r.latency, r.queue_ns + r.service_ns);
  }

  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.connections_accepted, 4u);
  EXPECT_EQ(stats.accepted, t.Size());
  EXPECT_EQ(stats.replies_sent, t.Size());
  EXPECT_EQ(stats.TotalRejected(), 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.bytes_in, t.Size() * kSubmitFrameBytes);
  EXPECT_EQ(stats.bytes_out, t.Size() * kReplyFrameBytes);

  const serving::TestbedResult backend = testbed.Finish();
  EXPECT_EQ(backend.records.size(), t.Size());

  // The sink's /metrics text shows the values Stats() read back.
  std::ostringstream prom;
  sink.WritePrometheus(prom);
  for (const std::string& sample :
       {"arlo_net_connections_total " +
            std::to_string(stats.connections_accepted),
        "arlo_net_accepted_total " + std::to_string(stats.accepted),
        "arlo_net_bytes_in_total " + std::to_string(stats.bytes_in),
        "arlo_net_bytes_out_total " + std::to_string(stats.bytes_out),
        std::string("arlo_net_open_connections 0")}) {
    EXPECT_NE(prom.str().find("\n" + sample + "\n"), std::string::npos)
        << sample;
  }
}

// A connection that sends garbage is dropped without disturbing a healthy
// connection on the same server.
TEST(NetLoopback, GarbageConnectionIsDroppedOthersSurvive) {
  ScenarioConfig config;
  config.gpus = 1;
  auto scheme = MakeSchemeByName("st", config);
  serving::LiveTestbed testbed(*scheme, serving::TestbedConfig{});
  testbed.Start();

  Server server(testbed, ServerConfig{});
  server.Start();

  ClientConnection good(server.Port());

  // Garbage 1: an unknown-type frame — the server drops the connection and
  // the client sees EOF.
  {
    SubmitRequest msg;
    std::vector<std::uint8_t> bytes;
    EncodeSubmit(msg, bytes);
    bytes[4] = 99;  // corrupt the type byte
    ScopedFd raw(ConnectTcp(server.Port()));
    ASSERT_EQ(::send(raw.Get(), bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    std::uint8_t buf[8];
    EXPECT_EQ(::recv(raw.Get(), buf, sizeof(buf), 0), 0);
  }
  // Garbage 2: a well-formed Reply frame sent client->server is still a
  // protocol violation (servers only accept kSubmit).
  {
    Reply wrong;
    wrong.id = 1;
    std::vector<std::uint8_t> bytes;
    EncodeReply(wrong, bytes);
    ScopedFd raw(ConnectTcp(server.Port()));
    ASSERT_EQ(::send(raw.Get(), bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    std::uint8_t buf[8];
    EXPECT_EQ(::recv(raw.Get(), buf, sizeof(buf), 0), 0);
  }

  // The healthy connection still works end to end.
  SubmitRequest msg;
  msg.id = 5;
  msg.length = 128;
  good.Send(msg);
  Reply reply;
  ASSERT_TRUE(good.Receive(reply));
  EXPECT_EQ(reply.id, 5u);
  EXPECT_EQ(reply.status, ReplyStatus::kOk);

  server.Stop();
  EXPECT_GE(server.Stats().protocol_errors, 1u);
  (void)testbed.Finish();
}

// Tight admission limits under synchronous bursts: every submit is
// answered (zero loss) and the rejections carry distinct statuses.
//
// Rejections don't consume tokens, so a single burst can only surface ONE
// reject status (whichever gate fires first).  Two phases force both:
// phase A overruns the inflight cap while tokens remain; phase B runs
// after the bucket is (mostly) drained, so the rate gate — checked first —
// fires before the inflight gate can.
TEST(NetLoopback, RejectStatusesAreDistinctUnderBurst) {
  ScenarioConfig config;
  config.gpus = 1;
  auto scheme = MakeSchemeByName("st", config);
  serving::TestbedConfig tb;
  tb.time_scale = 4.0;  // stretch service to ~23 ms so bursts can't race
                        // completions even under sanitizers
  serving::LiveTestbed testbed(*scheme, tb);
  testbed.Start();

  ServerConfig sc;
  sc.admission.rate_limit = 1.0;  // ~no refill on this test's time scale
  sc.admission.burst = 4.0;
  sc.admission.max_inflight = 2;
  Server server(testbed, sc);
  server.Start();

  ClientConnection conn(server.Port());
  int ok = 0, rejected = 0;
  bool saw_rate = false, saw_inflight = false;
  auto drain = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Reply reply;
      ASSERT_TRUE(conn.Receive(reply)) << "lost reply " << i;
      switch (reply.status) {
        case ReplyStatus::kOk:
          ++ok;
          break;
        case ReplyStatus::kRejectRate:
          saw_rate = true;
          ++rejected;
          break;
        case ReplyStatus::kRejectInflight:
          saw_inflight = true;
          ++rejected;
          break;
        default:
          ++rejected;
          break;
      }
    }
  };
  auto burst = [&](int base, int n) {
    for (int i = 0; i < n; ++i) {
      SubmitRequest msg;
      msg.id = static_cast<std::uint64_t>(base + i);
      msg.length = 128;
      conn.Send(msg);
    }
  };

  // Phase A: 8 back-to-back submits against inflight cap 2 with 4 tokens —
  // 2 admits, 6 inflight rejects.  Draining the replies also waits out the
  // admitted requests (their kOk arrives after completion), so phase B
  // starts with zero inflight and ~2 tokens left.
  burst(0, 8);
  drain(8);
  EXPECT_TRUE(saw_inflight);
  EXPECT_FALSE(saw_rate);
  EXPECT_GE(ok, 2);
  EXPECT_LE(ok, 4);

  // Phase B: the bucket (not the cap) is now the binding constraint.
  const int ok_a = ok;
  burst(8, 6);
  drain(6);
  EXPECT_TRUE(saw_rate);
  EXPECT_LE(ok - ok_a, 4 - ok_a + 1);  // leftover tokens + refill slop

  EXPECT_EQ(ok + rejected, 14);

  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.accepted + stats.TotalRejected(), 14u);
  EXPECT_GT(stats.rejected_rate, 0u);
  EXPECT_GT(stats.rejected_inflight, 0u);
  (void)testbed.Finish();
}

// Completions are written once per drained batch, so one connection's share
// of a batch can exceed what the socket takes in one send.  A client with a
// tiny receive buffer writes thousands of submits and reads nothing until
// they are all sent: the server's sends hit EAGAIN, park the rest behind
// want_write, and resume on writability.  Every reply must still arrive
// exactly once and decode.
TEST(NetLoopback, BatchedRepliesSurvivePartialWrites) {
  ScenarioConfig config;
  config.gpus = 2;
  auto scheme = MakeSchemeByName("st", config);
  serving::TestbedConfig tb;
  tb.time_scale = 1e-3;  // ~6 us of modelled service: completions pile up
  serving::LiveTestbed testbed(*scheme, tb);
  testbed.Start();

  constexpr int kRequests = 8000;  // ~312 KB of replies
  Server server(testbed, ServerConfig{});
  server.Start();

  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(fd.Valid());
  // Both set before connect: a small window, and a small MSS so the
  // server's send buffer starts small too (loopback's 64 KB MSS would size
  // it past everything this test writes).
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
  addr.sin_port = htons(server.Port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd.Get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  std::vector<std::uint8_t> out;
  for (int i = 0; i < kRequests; ++i) {
    SubmitRequest msg;
    msg.id = static_cast<std::uint64_t>(i);
    msg.length = 64;
    EncodeSubmit(msg, out);
  }
  for (std::size_t off = 0; off < out.size();) {
    const ssize_t n = ::send(fd.Get(), out.data() + off, out.size() - off,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::vector<int> seen(kRequests, 0);
  FrameDecoder decoder;
  int received = 0;
  std::uint8_t buf[4096];
  while (received < kRequests) {
    const ssize_t n = ::recv(fd.Get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "after " << received << " replies";
    decoder.Feed(buf, static_cast<std::size_t>(n));
    Frame frame;
    FrameDecoder::Result r;
    while ((r = decoder.Next(frame)) == FrameDecoder::Result::kFrame) {
      ASSERT_EQ(frame.type, MsgType::kReply);
      ASSERT_LT(frame.reply.id, static_cast<std::uint64_t>(kRequests));
      EXPECT_EQ(frame.reply.status, ReplyStatus::kOk);
      ++seen[frame.reply.id];
      ++received;
    }
    ASSERT_EQ(r, FrameDecoder::Result::kNeedMore) << decoder.Error();
  }
  EXPECT_EQ(decoder.Pending(), 0u);
  for (int i = 0; i < kRequests; ++i) EXPECT_EQ(seen[i], 1) << "id " << i;

  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.replies_sent, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.bytes_out, kRequests * kReplyFrameBytes);
  (void)testbed.Finish();
}

// The headline overload claim: at ~4x the sustainable rate, admission
// control keeps the server responsive — every request is answered, the
// overflow is shed with explicit statuses, and the requests that were
// accepted still meet the SLO at p90.
TEST(NetLoopback, FourTimesOverloadStaysResponsive) {
  ScenarioConfig config;
  config.gpus = 2;
  auto scheme = MakeSchemeByName("st", config);
  // ST on 2 workers sustains ~350 req/s (5.7 ms/request); drive 1400 req/s.
  const trace::Trace t = StableTrace(1400.0, 1.0, 23);

  serving::TestbedConfig tb;
  serving::LiveTestbed testbed(*scheme, tb);
  testbed.Start();

  ServerConfig sc;
  // Inflight cap bounds the backlog an accepted request can sit behind:
  // 16 requests deep on 2 workers is ~46 ms of queue, well inside the SLO.
  sc.admission.max_inflight = 16;
  Server server(testbed, sc);
  server.Start();

  LoadGeneratorConfig lg;
  lg.port = server.Port();
  lg.connections = 4;
  lg.deadline = config.slo;  // enables deadline shedding server-side
  const LoadGeneratorResult result = RunLoadGenerator(t, lg);

  // Responsive: nothing lost, every request answered one way or the other.
  EXPECT_EQ(result.Lost(), 0u);
  const std::uint64_t ok = result.CountByStatus(ReplyStatus::kOk);
  EXPECT_GT(ok, 0u);
  EXPECT_GT(result.sent, ok);  // overload was actually shed

  // Accepted requests meet the SLO at p90.
  const std::vector<SimDuration> ok_latencies =
      result.LatenciesByStatus(ReplyStatus::kOk);
  EXPECT_LE(Percentile(ok_latencies, 0.90), config.slo);

  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.accepted, ok);
  EXPECT_EQ(stats.accepted + stats.TotalRejected(), result.sent);
  EXPECT_GT(stats.TotalRejected(), 0u);
  (void)testbed.Finish();
}

// Stop stops reading: a peer that never pauses cannot hold the graceful
// drain open, and every request decoded before it is answered.  Requests
// take ~6 ms here, so a loop that kept admitting while draining would never
// see its pending table empty.
TEST(NetLoopback, StopReturnsWhileAPeerKeepsSending) {
  ScenarioConfig config;
  config.gpus = 2;
  auto scheme = MakeSchemeByName("st", config);
  serving::LiveTestbed testbed(*scheme, serving::TestbedConfig{});
  testbed.Start();
  ServerConfig sc;
  sc.admission.max_inflight = 4;  // the flood is rejected, not backlogged
  Server server(testbed, sc);
  server.Start();

  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(fd.Valid());
  const timeval timeout{0, 50000};  // lets both client threads see `done`
  ASSERT_EQ(::setsockopt(fd.Get(), SOL_SOCKET, SO_SNDTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  ASSERT_EQ(::setsockopt(fd.Get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.Port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd.Get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Bounded, so a Stop that never returns fails the test instead of hanging
  // it.
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
  std::atomic<bool> done{false};
  const auto running = [&] {
    return !done.load() && std::chrono::steady_clock::now() < give_up;
  };
  const auto retry = [] {
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  };
  std::thread sender([&] {
    std::vector<std::uint8_t> frames;
    for (int i = 0; i < 64; ++i) {
      SubmitRequest msg;
      msg.id = static_cast<std::uint64_t>(i);
      msg.length = 64;
      EncodeSubmit(msg, frames);
    }
    std::size_t off = 0;  // partial sends keep the frame stream aligned
    while (running()) {
      const ssize_t n = ::send(fd.Get(), frames.data() + off,
                               frames.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off = (off + static_cast<std::size_t>(n)) % frames.size();
      } else if (!retry()) {
        return;  // the server closed the connection
      }
    }
  });
  std::thread reader([&] {  // replies are read and dropped
    std::uint8_t buf[65536];
    while (running()) {
      const ssize_t n = ::recv(fd.Get(), buf, sizeof(buf), 0);
      if (n == 0 || (n < 0 && !retry())) return;
    }
  });
  while (server.Stats().accepted < 8 && running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto stop_begin = std::chrono::steady_clock::now();
  server.Stop();
  const auto stop_took = std::chrono::steady_clock::now() - stop_begin;
  done.store(true);
  sender.join();
  reader.join();

  EXPECT_LT(stop_took, std::chrono::seconds(5));
  const ServerStats stats = server.Stats();
  EXPECT_GE(stats.accepted, 8u);
  EXPECT_GT(stats.TotalRejected(), 0u);
  EXPECT_EQ(stats.accepted + stats.TotalRejected(),
            stats.replies_sent + stats.replies_dropped);
  (void)testbed.Finish();
}

bool PipeReadable(const WakePipe& wake, int timeout_ms) {
  pollfd pfd{wake.ReadFd(), POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) == 1;
}

// WakePipe coalesces wakes behind an atomic flag, so a wake lost between the
// flag and the pipe would leave an event loop asleep with work outstanding.
// Four producers race one consumer that follows the loops' order: poll,
// Drain, then take the items.
TEST(NetWakePipe, ConcurrentWakesAreNeverLost) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  constexpr int kTotal = kProducers * kPerProducer;
  WakePipe wake;
  std::mutex mu;
  std::vector<int> items;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        {
          std::lock_guard lock(mu);
          items.push_back(p * kPerProducer + i);
        }
        wake.Wake();
      }
    });
  }
  std::vector<int> seen(kTotal, 0);
  std::vector<int> taken;
  int received = 0;
  bool timed_out = false;
  while (received < kTotal) {
    if (!PipeReadable(wake, /*timeout_ms=*/1000)) {
      timed_out = true;  // a wake was lost: items wait with no byte
      break;
    }
    wake.Drain();
    {
      std::lock_guard lock(mu);
      taken.swap(items);
    }
    for (int item : taken) ++seen[static_cast<std::size_t>(item)];
    received += static_cast<int>(taken.size());
    taken.clear();
  }
  for (std::thread& t : producers) t.join();
  ASSERT_FALSE(timed_out) << kTotal - received << " items outstanding";
  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), kTotal);
}

TEST(NetWakePipe, WakeAfterDrainRearms) {
  WakePipe wake;
  EXPECT_FALSE(PipeReadable(wake, 0));
  wake.Wake();
  wake.Wake();  // coalesced: the first wake is still pending
  int queued = 0;
  ASSERT_EQ(::ioctl(wake.ReadFd(), FIONREAD, &queued), 0);
  EXPECT_EQ(queued, 1);
  EXPECT_TRUE(PipeReadable(wake, 0));
  wake.Drain();
  EXPECT_FALSE(PipeReadable(wake, 0));
  wake.Wake();
  EXPECT_TRUE(PipeReadable(wake, 0));
  wake.Drain();
  EXPECT_FALSE(PipeReadable(wake, 0));
}

}  // namespace
}  // namespace arlo::net
