// ClientConnection connect/reconnect semantics.  The historical bug: a
// failed Connect() left the old fd and half-decoded reply bytes in place, so
// the object was neither usable nor reconnectable.  These tests pin the
// fixed contract: failure leaves a clean disconnected object, reconnect is
// idempotent, and no decoder state leaks across connections.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace arlo::net {
namespace {

/// A hand-driven single-connection server: accepts one client and lets the
/// test feed it exact byte sequences (including partial frames).
class ManualServer {
 public:
  ManualServer() : listen_(ListenTcp(0)) {}

  std::uint16_t Port() const { return LocalPort(listen_.Get()); }

  void AcceptOne() {
    conn_ = ScopedFd(::accept(listen_.Get(), nullptr, nullptr));
    ASSERT_TRUE(conn_.Valid());
  }

  void SendBytes(const std::vector<std::uint8_t>& bytes, std::size_t n) {
    ASSERT_EQ(::send(conn_.Get(), bytes.data(), n, 0),
              static_cast<ssize_t>(n));
  }

  void SendReply(const Reply& reply) {
    std::vector<std::uint8_t> bytes;
    EncodeReply(reply, bytes);
    SendBytes(bytes, bytes.size());
  }

  bool ReadSubmit(SubmitRequest& out) {
    FrameDecoder decoder;
    Frame frame;
    std::uint8_t buf[256];
    for (;;) {
      if (decoder.Next(frame) == FrameDecoder::Result::kFrame) {
        out = frame.submit;
        return true;
      }
      const ssize_t n = ::recv(conn_.Get(), buf, sizeof(buf), 0);
      if (n <= 0) return false;
      decoder.Feed(buf, static_cast<std::size_t>(n));
    }
  }

  void CloseConn() { conn_.Reset(); }

 private:
  ScopedFd listen_;
  ScopedFd conn_;
};

/// A port with nothing listening on it (bind, read it back, close).
std::uint16_t DeadPort() {
  ScopedFd fd = ListenTcp(0);
  return LocalPort(fd.Get());
}

TEST(NetClient, FailedConnectLeavesCleanDisconnectedState) {
  const std::uint16_t dead = DeadPort();
  ClientConnection conn;
  EXPECT_FALSE(conn.Connected());
  EXPECT_THROW(conn.Connect(dead), std::system_error);
  EXPECT_FALSE(conn.Connected());
  // TryConnect on the same object reports failure without throwing.
  EXPECT_FALSE(conn.TryConnect(dead));
  EXPECT_FALSE(conn.Connected());
}

TEST(NetClient, ConnectAfterFailureSucceedsAndRoundTrips) {
  ClientConnection conn;
  EXPECT_THROW(conn.Connect(DeadPort()), std::system_error);

  ManualServer server;
  ASSERT_TRUE(conn.TryConnect(server.Port()));
  EXPECT_TRUE(conn.Connected());
  server.AcceptOne();

  SubmitRequest submit;
  submit.id = 7;
  submit.request_id = 70;
  submit.length = 128;
  conn.Send(submit);
  SubmitRequest seen;
  ASSERT_TRUE(server.ReadSubmit(seen));
  EXPECT_EQ(seen, submit);

  Reply reply;
  reply.id = 7;
  reply.request_id = 70;
  server.SendReply(reply);
  Reply got;
  ASSERT_TRUE(conn.Receive(got));
  EXPECT_EQ(got, reply);
}

TEST(NetClient, ReconnectDiscardsHalfDecodedFrameFromOldConnection) {
  ManualServer first;
  ClientConnection conn(first.Port());
  first.AcceptOne();

  // The first server sends half a reply frame; the client buffers it.
  Reply partial;
  partial.id = 1;
  std::vector<std::uint8_t> bytes;
  EncodeReply(partial, bytes);
  first.SendBytes(bytes, bytes.size() / 2);
  // Give the bytes time to land in the kernel buffer, then poison the
  // decoder by pulling them in: Receive blocks, so read via a thread that
  // is released when the server closes (EOF mid-frame throws).
  std::thread receiver([&] {
    Reply out;
    EXPECT_THROW(conn.Receive(out), std::runtime_error);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  first.CloseConn();
  receiver.join();

  // Reconnect to a fresh server: the stale half-frame must be gone, and a
  // whole reply decodes cleanly.
  ManualServer second;
  conn.Connect(second.Port());
  second.AcceptOne();
  Reply whole;
  whole.id = 2;
  whole.request_id = 20;
  whole.status = ReplyStatus::kOk;
  second.SendReply(whole);
  Reply got;
  ASSERT_TRUE(conn.Receive(got));
  EXPECT_EQ(got, whole);
}

TEST(NetClient, ReconnectWhileConnectedReplacesTheSocket) {
  ManualServer first;
  ClientConnection conn(first.Port());
  first.AcceptOne();

  ManualServer second;
  conn.Connect(second.Port());  // idempotent: drops the first connection
  second.AcceptOne();

  SubmitRequest submit;
  submit.id = 3;
  conn.Send(submit);
  SubmitRequest seen;
  ASSERT_TRUE(second.ReadSubmit(seen));
  EXPECT_EQ(seen.id, 3u);

  // The first server sees EOF — its connection was really dropped.
  SubmitRequest none;
  EXPECT_FALSE(first.ReadSubmit(none));
}

Reply ReplyWithId(std::uint64_t id) {
  Reply reply;
  reply.id = id;
  reply.request_id = 100 + id;
  reply.status = ReplyStatus::kOk;
  return reply;
}

// TryReceiveBuffered hands out, in order, the frames one read already pulled
// in, and with nothing buffered returns false without reading the socket (a
// read here would block forever: the server sends nothing until after it).
TEST(NetClient, TryReceiveBufferedReturnsBufferedRepliesInOrder) {
  ManualServer server;
  ClientConnection conn(server.Port());
  server.AcceptOne();

  Reply none;
  EXPECT_FALSE(conn.TryReceiveBuffered(none));

  std::vector<std::uint8_t> bytes;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    EncodeReply(ReplyWithId(id), bytes);
  }
  server.SendBytes(bytes, bytes.size());  // one read takes all three
  Reply got;
  ASSERT_TRUE(conn.Receive(got));
  EXPECT_EQ(got, ReplyWithId(1));
  ASSERT_TRUE(conn.TryReceiveBuffered(got));
  EXPECT_EQ(got, ReplyWithId(2));
  ASSERT_TRUE(conn.TryReceiveBuffered(got));
  EXPECT_EQ(got, ReplyWithId(3));
  EXPECT_FALSE(conn.TryReceiveBuffered(got));

  // The connection is intact: the next reply still arrives.
  server.SendReply(ReplyWithId(4));
  ASSERT_TRUE(conn.Receive(got));
  EXPECT_EQ(got, ReplyWithId(4));
}

TEST(NetClient, TryReceiveBufferedThrowsOnCorruptBufferedFrame) {
  ManualServer server;
  ClientConnection conn(server.Port());
  server.AcceptOne();

  std::vector<std::uint8_t> bytes;
  EncodeReply(ReplyWithId(1), bytes);
  const std::size_t second = bytes.size();
  EncodeReply(ReplyWithId(2), bytes);
  bytes[second + 4] = 99;  // the second frame's version byte
  server.SendBytes(bytes, bytes.size());

  Reply got;
  ASSERT_TRUE(conn.Receive(got));
  EXPECT_EQ(got, ReplyWithId(1));
  EXPECT_THROW(conn.TryReceiveBuffered(got), std::runtime_error);
}

TEST(NetClient, ShutdownUnblocksReceiveWithCleanEof) {
  ManualServer server;
  ClientConnection conn(server.Port());
  server.AcceptOne();

  std::thread receiver([&] {
    Reply out;
    EXPECT_FALSE(conn.Receive(out));  // clean EOF, no throw
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  conn.Shutdown();
  receiver.join();
}

}  // namespace
}  // namespace arlo::net
