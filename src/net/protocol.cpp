#include "net/protocol.h"

#include <cstring>

namespace arlo::net {
namespace {

constexpr std::size_t kSubmitPayload = 38;
constexpr std::size_t kReplyPayload = 33;  ///< base; +1+9n with an annex
constexpr std::size_t kAnnexSpanBytes = 9;  ///< u8 stage + u64 dur_ns

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t GetU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
  return v;
}

}  // namespace

const char* ReplyStatusName(ReplyStatus status) {
  switch (status) {
    case ReplyStatus::kOk: return "ok";
    case ReplyStatus::kRejectQueueFull: return "reject-queue-full";
    case ReplyStatus::kRejectInflight: return "reject-inflight";
    case ReplyStatus::kRejectRate: return "reject-rate";
    case ReplyStatus::kShedDeadline: return "shed-deadline";
    case ReplyStatus::kError: return "error";
    case ReplyStatus::kRejectNoNode: return "reject-no-node";
    case ReplyStatus::kShedClass: return "shed-class";
  }
  return "unknown";
}

void EncodeSubmit(const SubmitRequest& msg, std::vector<std::uint8_t>& out) {
  PutU32(out, static_cast<std::uint32_t>(2 + kSubmitPayload));
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(MsgType::kSubmit));
  PutU64(out, msg.id);
  PutU64(out, msg.request_id);
  PutU32(out, msg.model);
  PutU32(out, msg.length);
  PutU32(out, msg.decode_len);
  PutU64(out, static_cast<std::uint64_t>(msg.deadline_ns));
  out.push_back(msg.tenant_class);
  out.push_back(msg.flags);
}

void EncodeReply(const Reply& msg, std::vector<std::uint8_t>& out) {
  // The annex costs zero wire bytes when empty: an untraced reply keeps the
  // 33-byte base payload.  Oversized annexes (a misbehaving proxy
  // chain) truncate to the cap rather than emitting an undecodable frame.
  const std::size_t spans = std::min(msg.annex.size(), kMaxAnnexSpans);
  const std::size_t payload =
      kReplyPayload + (spans > 0 ? 1 + spans * kAnnexSpanBytes : 0);
  PutU32(out, static_cast<std::uint32_t>(2 + payload));
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(MsgType::kReply));
  PutU64(out, msg.id);
  PutU64(out, msg.request_id);
  out.push_back(static_cast<std::uint8_t>(msg.status));
  PutU64(out, static_cast<std::uint64_t>(msg.queue_ns));
  PutU64(out, static_cast<std::uint64_t>(msg.service_ns));
  if (spans > 0) {
    out.push_back(static_cast<std::uint8_t>(spans));
    for (std::size_t i = 0; i < spans; ++i) {
      out.push_back(static_cast<std::uint8_t>(msg.annex[i].stage));
      PutU64(out, static_cast<std::uint64_t>(msg.annex[i].dur_ns));
    }
  }
}

void FrameDecoder::Feed(const std::uint8_t* data, std::size_t n) {
  // Compact the consumed prefix before growing — steady-state connections
  // keep the buffer at one partial frame, not the whole byte history.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

void FrameDecoder::Reset() {
  buffer_.clear();
  consumed_ = 0;
  error_.clear();
}

FrameDecoder::Result FrameDecoder::Next(Frame& out) {
  if (!error_.empty()) return Result::kError;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < 4) return Result::kNeedMore;
  const std::uint8_t* p = buffer_.data() + consumed_;
  const std::uint32_t frame_len = GetU32(p);
  if (frame_len < 2 || frame_len > kMaxFrameBytes) {
    error_ = "bad frame length " + std::to_string(frame_len);
    return Result::kError;
  }
  if (avail < 4 + frame_len) return Result::kNeedMore;
  const std::uint8_t version = p[4];
  if (version < kMinProtocolVersion || version > kProtocolVersion) {
    // A v1 frame puts its msg_type byte here (1 or 2) and v2-v4 peers send
    // their own version; none matches, so old-format peers die at their
    // first frame instead of being misparsed.
    error_ = "unsupported protocol version " + std::to_string(version);
    return Result::kError;
  }
  const std::uint8_t type = p[5];
  const std::uint8_t* payload = p + 6;
  const std::size_t payload_len = frame_len - 2;
  switch (static_cast<MsgType>(type)) {
    case MsgType::kSubmit: {
      if (payload_len != kSubmitPayload) {
        error_ = "submit payload size " + std::to_string(payload_len);
        return Result::kError;
      }
      out.type = MsgType::kSubmit;
      out.submit.id = GetU64(payload);
      out.submit.request_id = GetU64(payload + 8);
      out.submit.model = GetU32(payload + 16);
      out.submit.length = GetU32(payload + 20);
      out.submit.decode_len = GetU32(payload + 24);
      out.submit.deadline_ns = static_cast<std::int64_t>(GetU64(payload + 28));
      out.submit.tenant_class = payload[36];
      out.submit.flags = payload[37];
      break;
    }
    case MsgType::kReply: {
      // The base payload, optionally followed by the timing annex.
      const bool annexed = payload_len > kReplyPayload;
      if (!annexed && payload_len != kReplyPayload) {
        error_ = "reply payload size " + std::to_string(payload_len);
        return Result::kError;
      }
      out.type = MsgType::kReply;
      out.reply.id = GetU64(payload);
      out.reply.request_id = GetU64(payload + 8);
      out.reply.status = static_cast<ReplyStatus>(payload[16]);
      if (payload[16] > static_cast<std::uint8_t>(ReplyStatus::kShedClass)) {
        error_ = "unknown reply status " + std::to_string(payload[16]);
        return Result::kError;
      }
      out.reply.queue_ns = static_cast<std::int64_t>(GetU64(payload + 17));
      out.reply.service_ns = static_cast<std::int64_t>(GetU64(payload + 25));
      out.reply.annex.clear();
      if (annexed) {
        const std::uint8_t count = payload[kReplyPayload];
        if (count == 0 || count > kMaxAnnexSpans ||
            payload_len != kReplyPayload + 1 + count * kAnnexSpanBytes) {
          error_ = "bad reply annex (count " + std::to_string(count) +
                   ", payload " + std::to_string(payload_len) + ")";
          return Result::kError;
        }
        out.reply.annex.reserve(count);
        const std::uint8_t* span = payload + kReplyPayload + 1;
        for (std::uint8_t i = 0; i < count; ++i, span += kAnnexSpanBytes) {
          if (span[0] >= telemetry::kNumStages) {
            error_ = "unknown annex stage " + std::to_string(span[0]);
            return Result::kError;
          }
          telemetry::StageSpan s;
          s.stage = static_cast<telemetry::Stage>(span[0]);
          s.dur_ns = static_cast<std::int64_t>(GetU64(span + 1));
          out.reply.annex.push_back(s);
        }
      }
      break;
    }
    default:
      error_ = "unknown message type " + std::to_string(type);
      return Result::kError;
  }
  consumed_ += 4 + frame_len;
  return Result::kFrame;
}

}  // namespace arlo::net
