// The Arlo wire protocol: a minimal length-prefixed binary framing for
// submitting inference requests to the TCP frontend and receiving replies.
//
// Frame layout (all integers little-endian, no padding — fields are
// serialized byte-by-byte, never memcpy'd from structs, so the format is
// identical across compilers and architectures):
//
//   [u32 frame_len][u8 version][u8 msg_type][payload ...]
//
// frame_len counts the version byte, the type byte, and the payload.
// Payloads are fixed-size per message type; a frame whose version is not
// kProtocolVersion, whose length disagrees with its type, exceeds
// kMaxFrameBytes, or carries an unknown type is a protocol error and the
// connection is dropped (the decoder is strict: garbage never resyncs).
//
// Version history (only v5 is spoken; every older version is a protocol
// error, so mixed-version peers die at their first frame instead of
// limping along):
//   v1  [u32 frame_len][u8 msg_type][payload] — no version byte, no
//       request_id.  Its type byte lands where the version byte now lives.
//   v2  adds the version byte and a u64 request_id to both messages so a
//       router tier can correlate out-of-order replies across multiplexed
//       backend connections without rewriting client-chosen ids.
//   v3  adds u32 decode_len to SubmitRequest for generative workloads.
//   v4  adds u8 tenant_class to SubmitRequest for multi-tenant SLO classes
//       (docs/TENANTS.md) and ReplyStatus::kShedClass.
//   v5  adds u8 flags to SubmitRequest (bit 0 = kSubmitFlagTrace, the
//       head-based sampling decision) and an optional reply-side timing
//       annex: per-stage wall-ns durations attributing the request's
//       latency across the serving pipeline (docs/OBSERVABILITY.md).  An
//       untraced reply stays at the 33-byte base payload — the annex costs
//       zero bytes when tracing is off.
//
// SubmitRequest (client -> server, 38-byte payload):
//   u64 id           client-chosen, echoed in the reply (unique per conn)
//   u64 request_id   correlation token, echoed verbatim in the reply; 0 for
//                    direct clients, router-assigned for proxied requests
//   u32 model        model hint (single-model testbeds ignore it)
//   u32 length       input token count — the scheduling-relevant field
//   u32 decode_len   output tokens to generate; 0 = one-shot
//   i64 deadline_ns  relative latency budget; 0 = no deadline
//   u8  tenant_class tenant SLO class id; 0 = default class
//   u8  flags        bit 0: trace this request
//
// Reply (server -> client, 33-byte payload, + timing annex when traced):
//   u64 id          echo of the submit id
//   u64 request_id  echo of the submit request_id
//   u8  status      ReplyStatus below
//   i64 queue_ns    simulated queueing delay (kOk only, else 0)
//   i64 service_ns  simulated service time   (kOk only, else 0)
//   -- annex, present iff the payload extends past 33 bytes --
//   u8  annex_count number of stage spans (1..kMaxAnnexSpans)
//   annex_count x { u8 stage (telemetry::Stage), u64 dur_ns }
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/stages.h"

namespace arlo::net {

/// Wire format version stamped into every frame header.
inline constexpr std::uint8_t kProtocolVersion = 5;
/// Oldest version the decoder accepts: the current one.
inline constexpr std::uint8_t kMinProtocolVersion = 5;

/// SubmitRequest::flags bit 0: the sender sampled this request for tracing;
/// the node should stamp a timing annex into the reply.
inline constexpr std::uint8_t kSubmitFlagTrace = 0x01;

enum class MsgType : std::uint8_t {
  kSubmit = 1,
  kReply = 2,
};

/// Reply statuses.  Every rejection path is distinct so clients (and the
/// overload tests) can tell backpressure sources apart.
enum class ReplyStatus : std::uint8_t {
  kOk = 0,
  kRejectQueueFull = 1,  ///< reserved: the retired submission-queue-full
                         ///< reject; no longer sent, still decodes
  kRejectInflight = 2,   ///< admission: inflight cap reached
  kRejectRate = 3,       ///< admission: token bucket empty
  kShedDeadline = 4,     ///< admission: estimated delay exceeds the deadline
  kError = 5,            ///< server-side failure (should not happen)
  kRejectNoNode = 6,     ///< router: no routable backend node (explicit shed)
  kShedClass = 7,        ///< admission: tenant class budget exhausted, class
                         ///< policy says drop (best-effort overload shed)
};

const char* ReplyStatusName(ReplyStatus status);

struct SubmitRequest {
  std::uint64_t id = 0;
  std::uint64_t request_id = 0;
  std::uint32_t model = 0;
  std::uint32_t length = 0;
  std::uint32_t decode_len = 0;  ///< output tokens; 0 = one-shot
  std::int64_t deadline_ns = 0;
  std::uint8_t tenant_class = 0;  ///< tenant SLO class; 0 = default
  std::uint8_t flags = 0;         ///< kSubmitFlagTrace et al.

  bool operator==(const SubmitRequest&) const = default;
};

/// Most stage spans one reply annex can carry.  Seven node stages plus four
/// router stages fit with room to grow; the cap keeps the largest reply
/// frame well under kMaxFrameBytes.
inline constexpr std::size_t kMaxAnnexSpans = 16;

struct Reply {
  std::uint64_t id = 0;
  std::uint64_t request_id = 0;
  ReplyStatus status = ReplyStatus::kOk;
  std::int64_t queue_ns = 0;
  std::int64_t service_ns = 0;
  /// Timing annex: per-stage wall-ns latency attribution, present only for
  /// traced requests (empty = no annex bytes on the wire).  The router
  /// prepends its own spans before relaying, so a client sees the complete
  /// cross-hop timeline in pipeline order.
  std::vector<telemetry::StageSpan> annex;

  bool operator==(const Reply&) const = default;
};

/// Hard cap on frame_len; anything larger is garbage by definition (real
/// frames are 40 and 35 bytes, and a fully annexed reply tops out at
/// 35 + 1 + 9 * kMaxAnnexSpans = 180).
inline constexpr std::size_t kMaxFrameBytes = 256;

/// Serialized frame sizes including the 4-byte length prefix.  A traced
/// reply adds 1 + 9 * annex_count bytes to kReplyFrameBytes.
inline constexpr std::size_t kSubmitFrameBytes = 4 + 2 + 38;
inline constexpr std::size_t kReplyFrameBytes = 4 + 2 + 33;

/// Append one framed message to `out`.
void EncodeSubmit(const SubmitRequest& msg, std::vector<std::uint8_t>& out);
void EncodeReply(const Reply& msg, std::vector<std::uint8_t>& out);

/// A decoded frame: `type` selects which member is meaningful.
struct Frame {
  MsgType type = MsgType::kSubmit;
  SubmitRequest submit;
  Reply reply;
};

/// Incremental decoder: feed arbitrary byte slices as they arrive off a
/// socket, pull complete frames out.  A protocol error is sticky — once
/// Next() returns kError the connection must be closed.
class FrameDecoder {
 public:
  enum class Result {
    kFrame,     ///< `out` holds a complete frame
    kNeedMore,  ///< no complete frame buffered yet
    kError,     ///< malformed input; see Error()
  };

  void Feed(const std::uint8_t* data, std::size_t n);
  Result Next(Frame& out);

  /// Drops all buffered bytes and clears a sticky error — for reuse of the
  /// decoder across reconnects of the owning connection.  Never call it to
  /// "resync" a live connection: a protocol error still means close.
  void Reset();

  const std::string& Error() const { return error_; }
  /// Bytes buffered but not yet consumed as frames.
  std::size_t Pending() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already decoded
  std::string error_;
};

}  // namespace arlo::net
