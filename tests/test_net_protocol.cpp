#include "net/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace arlo::net {
namespace {

Frame DecodeOne(const std::vector<std::uint8_t>& bytes) {
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(decoder.Pending(), 0u);
  return frame;
}

TEST(NetProtocol, SubmitRoundTrip) {
  SubmitRequest msg;
  msg.id = 0x0123456789abcdefULL;
  msg.request_id = 0xfedcba9876543210ULL;
  msg.model = 7;
  msg.length = 511;
  msg.decode_len = 77;
  msg.deadline_ns = Millis(150.0);
  msg.tenant_class = 3;

  std::vector<std::uint8_t> bytes;
  EncodeSubmit(msg, bytes);
  ASSERT_EQ(bytes.size(), kSubmitFrameBytes);

  const Frame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.type, MsgType::kSubmit);
  EXPECT_EQ(frame.submit, msg);
}

TEST(NetProtocol, ReplyRoundTrip) {
  Reply msg;
  msg.id = 42;
  msg.request_id = 0x1000000000000001ULL;
  msg.status = ReplyStatus::kShedDeadline;
  msg.queue_ns = 123456789;
  msg.service_ns = -1;  // sign survives the wire

  std::vector<std::uint8_t> bytes;
  EncodeReply(msg, bytes);
  ASSERT_EQ(bytes.size(), kReplyFrameBytes);

  const Frame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.type, MsgType::kReply);
  EXPECT_EQ(frame.reply, msg);
}

TEST(NetProtocol, LayoutIsLittleEndianAndStable) {
  // Pin the exact byte layout: any change here is a wire format break.
  SubmitRequest msg;
  msg.id = 0x1122334455667788ULL;
  msg.request_id = 0x99aabbccddeeff00ULL;
  msg.model = 0xa1b2c3d4;
  msg.length = 0x00000102;
  msg.decode_len = 0x4a3b2c1d;
  msg.deadline_ns = 0x0807060504030201LL;
  msg.tenant_class = 0x5a;
  msg.flags = kSubmitFlagTrace;

  std::vector<std::uint8_t> bytes;
  EncodeSubmit(msg, bytes);
  ASSERT_EQ(bytes.size(), 44u);
  // frame_len = 40 (version + type bytes + 38-byte payload), little-endian.
  EXPECT_EQ(bytes[0], 40u);
  EXPECT_EQ(bytes[1], 0u);
  EXPECT_EQ(bytes[2], 0u);
  EXPECT_EQ(bytes[3], 0u);
  EXPECT_EQ(bytes[4], kProtocolVersion);
  EXPECT_EQ(bytes[5], static_cast<std::uint8_t>(MsgType::kSubmit));
  EXPECT_EQ(bytes[6], 0x88);   // id LSB first
  EXPECT_EQ(bytes[13], 0x11);
  EXPECT_EQ(bytes[14], 0x00);  // request_id LSB
  EXPECT_EQ(bytes[21], 0x99);  // request_id MSB
  EXPECT_EQ(bytes[22], 0xd4);  // model LSB
  EXPECT_EQ(bytes[26], 0x02);  // length LSB
  EXPECT_EQ(bytes[30], 0x1d);  // decode_len LSB
  EXPECT_EQ(bytes[33], 0x4a);  // decode_len MSB
  EXPECT_EQ(bytes[34], 0x01);  // deadline LSB
  EXPECT_EQ(bytes[41], 0x08);
  EXPECT_EQ(bytes[42], 0x5a);  // tenant_class (v4)
  EXPECT_EQ(bytes[43], 0x01);  // flags (v5): kSubmitFlagTrace
}

/// A legacy submit frame: the v2 fields (ids, model, length), then v3's
/// decode_len and v4's tenant_class when `version` has them, then the
/// deadline in its legacy slot order.
std::vector<std::uint8_t> LegacySubmit(std::uint8_t version) {
  std::vector<std::uint8_t> payload;
  auto put = [&payload](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      payload.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put(0x1111u, 8);  // id
  put(0x2222u, 8);  // request_id
  put(9u, 4);       // model
  put(384u, 4);     // length
  if (version >= 3) put(48u, 4);  // decode_len
  put(0x0000000005f5e100ull, 8);  // deadline_ns = 100ms
  if (version >= 4) payload.push_back(7u);  // tenant_class
  std::vector<std::uint8_t> bytes;
  const auto frame_len = static_cast<std::uint32_t>(2 + payload.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(frame_len >> (8 * i)));
  }
  bytes.push_back(version);
  bytes.push_back(static_cast<std::uint8_t>(MsgType::kSubmit));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

/// No shipped peer speaks v2-v4 any more: their frames are a sticky
/// "unsupported protocol version" error, never a misparse.
void ExpectUnsupportedVersion(std::uint8_t version, std::size_t payload) {
  const std::vector<std::uint8_t> bytes = LegacySubmit(version);
  ASSERT_EQ(bytes.size(), 4u + 2u + payload);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.Error(),
            "unsupported protocol version " + std::to_string(version));
  // Sticky: a valid frame after it does not revive the connection.
  std::vector<std::uint8_t> good;
  EncodeSubmit(SubmitRequest{}, good);
  decoder.Feed(good.data(), good.size());
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Result::kError);
}

TEST(NetProtocol, V2SubmitFramesAreRejectedAsUnsupportedVersion) {
  ExpectUnsupportedVersion(2, 32);  // no decode_len
}

TEST(NetProtocol, V3SubmitFramesAreRejectedAsUnsupportedVersion) {
  ExpectUnsupportedVersion(3, 36);  // no tenant_class
}

TEST(NetProtocol, V4SubmitFramesAreRejectedAsUnsupportedVersion) {
  ExpectUnsupportedVersion(4, 37);  // no flags
}

TEST(NetProtocol, CurrentVersionWithV2PayloadSizeIsAnError) {
  // A frame claiming the current version but carrying only the 32-byte v2
  // payload: the decoder must not guess which field is missing.
  std::vector<std::uint8_t> bytes = {34, 0, 0, 0, kProtocolVersion,
                                     static_cast<std::uint8_t>(MsgType::kSubmit)};
  bytes.resize(4 + 34, 0);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Result::kError);
  EXPECT_NE(decoder.Error().find("payload size"), std::string::npos)
      << decoder.Error();
}

TEST(NetProtocol, V1FramesAreAStickyError) {
  // A v1 submit frame: [u32 len=25][u8 type=1][24-byte payload] — no version
  // byte.  The decoder must refuse it (its type byte lands where v2 keeps
  // the version) and stay dead, not misparse it.
  std::vector<std::uint8_t> v1 = {25, 0, 0, 0,
                                  static_cast<std::uint8_t>(MsgType::kSubmit)};
  v1.resize(4 + 25, 0);
  FrameDecoder decoder;
  decoder.Feed(v1.data(), v1.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Result::kError);
  EXPECT_NE(decoder.Error().find("version"), std::string::npos)
      << decoder.Error();

  // A v1 reply frame aliases its type byte (2) onto the version byte, which
  // reads as the long-retired v2: also a sticky error.
  std::vector<std::uint8_t> v1_reply = {26, 0, 0, 0, 2};
  v1_reply.resize(4 + 26, 0);
  FrameDecoder decoder2;
  decoder2.Feed(v1_reply.data(), v1_reply.size());
  EXPECT_EQ(decoder2.Next(frame), FrameDecoder::Result::kError);
}

TEST(NetProtocol, ResetClearsBufferAndStickyError) {
  std::vector<std::uint8_t> bad = {34, 0, 0, 0, 99};  // bad version
  bad.resize(4 + 34, 0);
  FrameDecoder decoder;
  decoder.Feed(bad.data(), bad.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(frame), FrameDecoder::Result::kError);

  decoder.Reset();
  EXPECT_EQ(decoder.Pending(), 0u);
  SubmitRequest msg;
  msg.id = 5;
  msg.request_id = 6;
  std::vector<std::uint8_t> good;
  EncodeSubmit(msg, good);
  decoder.Feed(good.data(), good.size());
  ASSERT_EQ(decoder.Next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.submit, msg);
}

TEST(NetProtocol, DecodesByteByByte) {
  SubmitRequest msg;
  msg.id = 9;
  msg.length = 128;
  std::vector<std::uint8_t> bytes;
  EncodeSubmit(msg, bytes);

  FrameDecoder decoder;
  Frame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Feed(&bytes[i], 1);
    EXPECT_EQ(decoder.Next(frame), FrameDecoder::Result::kNeedMore);
  }
  decoder.Feed(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(decoder.Next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.submit, msg);
}

TEST(NetProtocol, DecodesAStreamOfMixedFrames) {
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t i = 0; i < 16; ++i) {
    if (i % 2 == 0) {
      SubmitRequest s;
      s.id = i;
      s.length = static_cast<std::uint32_t>(10 * i);
      EncodeSubmit(s, bytes);
    } else {
      Reply r;
      r.id = i;
      r.status = ReplyStatus::kOk;
      r.queue_ns = static_cast<std::int64_t>(i) * 1000;
      EncodeReply(r, bytes);
    }
  }

  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  for (std::uint64_t i = 0; i < 16; ++i) {
    ASSERT_EQ(decoder.Next(frame), FrameDecoder::Result::kFrame) << i;
    if (i % 2 == 0) {
      EXPECT_EQ(frame.type, MsgType::kSubmit);
      EXPECT_EQ(frame.submit.id, i);
    } else {
      EXPECT_EQ(frame.type, MsgType::kReply);
      EXPECT_EQ(frame.reply.id, i);
    }
  }
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Result::kNeedMore);
}

TEST(NetProtocol, TruncatedFrameNeedsMoreThenCompletes) {
  Reply msg;
  msg.id = 77;
  std::vector<std::uint8_t> bytes;
  EncodeReply(msg, bytes);

  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size() - 5);
  Frame frame;
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Result::kNeedMore);
  EXPECT_GT(decoder.Pending(), 0u);
  decoder.Feed(bytes.data() + bytes.size() - 5, 5);
  ASSERT_EQ(decoder.Next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.reply, msg);
}

TEST(NetProtocol, RejectsUnknownType) {
  std::vector<std::uint8_t> bytes = {34, 0, 0, 0, kProtocolVersion,
                                     99};  // type 99
  bytes.resize(4 + 34, 0);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Result::kError);
  EXPECT_FALSE(decoder.Error().empty());
}

TEST(NetProtocol, RejectsOversizedAndZeroLengthFrames) {
  {
    // frame_len = 0x10000 > kMaxFrameBytes: rejected from the prefix alone,
    // before any payload arrives.
    const std::uint8_t huge[4] = {0, 0, 1, 0};
    FrameDecoder decoder;
    decoder.Feed(huge, 4);
    Frame frame;
    EXPECT_EQ(decoder.Next(frame), FrameDecoder::Result::kError);
  }
  {
    const std::uint8_t zero[4] = {0, 0, 0, 0};
    FrameDecoder decoder;
    decoder.Feed(zero, 4);
    Frame frame;
    EXPECT_EQ(decoder.Next(frame), FrameDecoder::Result::kError);
  }
}

TEST(NetProtocol, RejectsWrongPayloadSizeForType) {
  // A kSubmit frame claiming a 10-byte payload: length/type mismatch.
  std::vector<std::uint8_t> bytes = {12, 0, 0, 0, kProtocolVersion,
                                     static_cast<std::uint8_t>(MsgType::kSubmit)};
  bytes.resize(4 + 12, 0);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Result::kError);
}

TEST(NetProtocol, RejectsOutOfRangeReplyStatus) {
  Reply msg;
  msg.id = 1;
  std::vector<std::uint8_t> bytes;
  EncodeReply(msg, bytes);
  bytes[4 + 2 + 16] = 200;  // status byte past the last defined status
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Result::kError);
}

TEST(NetProtocol, ErrorIsSticky) {
  std::vector<std::uint8_t> bad = {34, 0, 0, 0, kProtocolVersion, 99};
  bad.resize(4 + 34, 0);
  FrameDecoder decoder;
  decoder.Feed(bad.data(), bad.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(frame), FrameDecoder::Result::kError);

  // A perfectly valid frame after the garbage must NOT resync.
  SubmitRequest msg;
  std::vector<std::uint8_t> good;
  EncodeSubmit(msg, good);
  decoder.Feed(good.data(), good.size());
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Result::kError);
}

// Fuzz 1: random byte soup never crashes the decoder and never yields a
// frame whose advertised type/length invariants don't hold.
TEST(NetProtocolFuzz, RandomBytesNeverCrash) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    FrameDecoder decoder;
    bool dead = false;
    for (int round = 0; round < 40 && !dead; ++round) {
      std::uint8_t chunk[64];
      const int n = 1 + static_cast<int>(rng.NextU64() % 64);
      for (int i = 0; i < n; ++i) {
        chunk[i] = static_cast<std::uint8_t>(rng.NextU64());
      }
      decoder.Feed(chunk, static_cast<std::size_t>(n));
      Frame frame;
      for (;;) {
        const FrameDecoder::Result r = decoder.Next(frame);
        if (r == FrameDecoder::Result::kNeedMore) break;
        if (r == FrameDecoder::Result::kError) {
          dead = true;  // connection would be dropped
          break;
        }
        // Any frame pulled out of random bytes must still be well-formed.
        ASSERT_TRUE(frame.type == MsgType::kSubmit ||
                    frame.type == MsgType::kReply);
      }
    }
  }
}

// Fuzz 2: corrupt one byte of a valid stream; the decoder must either keep
// decoding well-formed frames or die with a sticky error — never emit a
// frame and then misparse the remainder as anything but an error.
TEST(NetProtocolFuzz, SingleByteCorruptionEitherDecodesOrDies) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t i = 0; i < 8; ++i) {
    SubmitRequest s;
    s.id = i;
    s.length = 64;
    EncodeSubmit(s, stream);
  }

  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> mutated = stream;
    const std::size_t pos = rng.NextU64() % mutated.size();
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.NextU64() % 255);

    FrameDecoder decoder;
    decoder.Feed(mutated.data(), mutated.size());
    Frame frame;
    int frames = 0;
    for (;;) {
      const FrameDecoder::Result r = decoder.Next(frame);
      if (r == FrameDecoder::Result::kFrame) {
        ++frames;
        continue;
      }
      if (r == FrameDecoder::Result::kError) break;
      // kNeedMore: a length-field mutation can leave a frame half-claimed.
      break;
    }
    EXPECT_LE(frames, 8);
  }
}

TEST(NetProtocol, StatusNamesAreDistinct) {
  EXPECT_STRNE(ReplyStatusName(ReplyStatus::kOk),
               ReplyStatusName(ReplyStatus::kRejectQueueFull));
  EXPECT_STRNE(ReplyStatusName(ReplyStatus::kRejectRate),
               ReplyStatusName(ReplyStatus::kRejectInflight));
  EXPECT_STRNE(ReplyStatusName(ReplyStatus::kShedDeadline),
               ReplyStatusName(ReplyStatus::kError));
  EXPECT_STRNE(ReplyStatusName(ReplyStatus::kRejectNoNode),
               ReplyStatusName(ReplyStatus::kError));
  EXPECT_STRNE(ReplyStatusName(ReplyStatus::kShedClass),
               ReplyStatusName(ReplyStatus::kShedDeadline));
  EXPECT_STREQ(ReplyStatusName(ReplyStatus::kShedClass), "shed-class");
}

TEST(NetProtocol, ShedClassReplyRoundTrips) {
  Reply msg;
  msg.id = 12;
  msg.request_id = 13;
  msg.status = ReplyStatus::kShedClass;
  std::vector<std::uint8_t> bytes;
  EncodeReply(msg, bytes);
  const Frame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.reply.status, ReplyStatus::kShedClass);
  EXPECT_EQ(frame.reply, msg);

  // kShedClass is the last defined status: one past it must be rejected.
  bytes[4 + 2 + 16] =
      static_cast<std::uint8_t>(ReplyStatus::kShedClass) + 1;
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame bad;
  EXPECT_EQ(decoder.Next(bad), FrameDecoder::Result::kError);
}

}  // namespace
}  // namespace arlo::net
