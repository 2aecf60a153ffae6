// Client side of the wire protocol: a blocking per-connection client and
// the multi-connection open-loop LoadGenerator that replays src/trace
// traces over real sockets.
//
// The LoadGenerator is open-loop (arrival-driven): each request is sent at
// its trace-scheduled wall-clock time regardless of whether earlier replies
// have arrived, which is the load model the paper's experiments (and any
// honest overload measurement) require — a closed loop would self-throttle
// exactly when the server is struggling.  Requests round-robin across
// `connections` sockets; each connection runs a sender thread (paced
// writes) and a receiver thread (blocking reads), so send pacing is never
// delayed by reply processing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "trace/trace.h"

namespace arlo::net {

/// A blocking client connection.  Send and Receive may be called
/// concurrently from one sender and one receiver thread (a TCP socket is
/// full-duplex); neither is safe to share between multiple threads, and
/// Connect/Close must not race either of them (quiesce first).
class ClientConnection {
 public:
  /// Disconnected; call Connect (or TryConnect) before Send/Receive.
  ClientConnection() = default;

  /// Connects to 127.0.0.1:`port` (blocking) with TCP_NODELAY.
  explicit ClientConnection(std::uint16_t port);

  /// (Re)connects to 127.0.0.1:`port`.  Idempotent: any previous socket and
  /// any half-decoded reply bytes are discarded *before* the new connect, so
  /// a failed connect throws and leaves the object cleanly disconnected —
  /// never half-initialized with a stale fd or a poisoned decoder — and a
  /// later Connect can succeed.
  void Connect(std::uint16_t port);

  /// Connect that reports failure instead of throwing.  On false the
  /// connection is disconnected and reusable.
  bool TryConnect(std::uint16_t port);

  bool Connected() const { return fd_.Valid(); }

  /// Closes the socket (if open) and resets decode state.
  void Close();

  /// shutdown(2) both directions without closing the fd: unblocks a thread
  /// parked in Receive (it sees EOF) from another thread.  No-op when
  /// disconnected.
  void Shutdown();

  /// Writes one framed SubmitRequest (handles partial writes).
  void Send(const SubmitRequest& request);

  /// Writes already-encoded frames in one call (handles partial writes).
  /// Throws on socket failures.
  void SendEncoded(const std::vector<std::uint8_t>& bytes);

  /// Blocks for the next Reply frame.  Returns false on clean EOF.
  /// Throws on protocol errors or socket failures.
  bool Receive(Reply& out);

  /// The next Reply frame already buffered from an earlier read, without
  /// touching the socket.  Returns false when no whole frame is buffered.
  /// Throws on protocol errors.  Lets a receiver drain everything one read
  /// returned before it blocks again.
  bool TryReceiveBuffered(Reply& out);

 private:
  ScopedFd fd_;
  FrameDecoder decoder_;
};

struct LoadGeneratorConfig {
  std::uint16_t port = 0;
  int connections = 1;
  /// Must match the server backend's TestbedConfig::time_scale so the
  /// trace's simulated arrival times map to the same wall-clock schedule.
  double time_scale = 1.0;
  /// Relative deadline stamped into every SubmitRequest (simulated ns);
  /// 0 disables deadline-based shedding for this run.
  SimDuration deadline = 0;
  /// Busy-spin tail of each inter-arrival wait (send-time precision).
  SimDuration spin_threshold = Micros(200.0);
  /// Head-based trace sampling for direct (router-less) clients: 0 = off,
  /// 1 = every request, N = hash of the wire id selects ~1/N.  Sampled
  /// requests carry kSubmitFlagTrace and their reply annexes land in
  /// PerRequest::annex.
  std::uint32_t trace_sample_n = 0;
};

struct LoadGeneratorResult {
  struct PerRequest {
    RequestId id = 0;       ///< trace request id (also the wire id)
    int length = 0;
    SimTime arrival = 0;    ///< scheduled arrival (simulated ns)
    int tenant_class = 0;   ///< tenant class stamped from the trace
    bool replied = false;
    ReplyStatus status = ReplyStatus::kError;
    /// Client-observed send-to-reply latency, rescaled to simulated ns so
    /// it is directly comparable to in-process RequestRecord latencies.
    SimDuration latency = 0;
    std::int64_t queue_ns = 0;    ///< server-reported (kOk only)
    std::int64_t service_ns = 0;  ///< server-reported (kOk only)
    /// Per-stage timing annex from the reply; empty unless this request was
    /// trace-sampled (docs/OBSERVABILITY.md).
    std::vector<telemetry::StageSpan> annex;
  };

  std::vector<PerRequest> requests;  ///< one per trace request, trace order
  std::uint64_t sent = 0;
  std::uint64_t received = 0;

  std::uint64_t Lost() const { return sent - received; }
  std::uint64_t CountByStatus(ReplyStatus status) const;
  /// Latencies (simulated ns) of requests with the given status, sorted.
  std::vector<SimDuration> LatenciesByStatus(ReplyStatus status) const;
};

/// Replays `trace` against a running server.  Blocks until every sent
/// request has been answered or every connection has hit EOF.
LoadGeneratorResult RunLoadGenerator(const trace::Trace& trace,
                                     const LoadGeneratorConfig& config);

}  // namespace arlo::net
