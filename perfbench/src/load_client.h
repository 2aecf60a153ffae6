// The benchmark's load generator, built on net::ClientConnection.
//
// Open loop: one sender thread (the caller) sends each request at its
// scheduled due time, round-robin over the connections, and one receiver
// thread per connection collects replies.  Latency is timed from the *due*
// time, so a stalled sender or server charges the wait to every request
// queued behind the stall; the sender's lateness is recorded per request.
// The sender sleeps between due times and never spins, so it does not take
// a core away from the system under test.
//
// Closed loop: one thread per connection keeps a fixed window of requests
// outstanding, sending the next as each reply arrives, until the phase ends;
// then it stops sending and collects the outstanding replies.
//
// With 2 connections both use at most 3 threads of their own.
#pragma once

#include <cstdint>
#include <vector>

#include "net/protocol.h"

namespace perfbench {

struct ScheduledRequest {
  std::int64_t due_ns = 0;  ///< offset from the phase start
  std::uint32_t length = 0;
};

struct RequestResult {
  std::int64_t due_ns = 0;   ///< absolute steady-clock ns
  std::int64_t sent_ns = 0;  ///< 0 = never sent
  std::int64_t recv_ns = 0;  ///< 0 = no reply
  arlo::net::ReplyStatus status = arlo::net::ReplyStatus::kError;
  std::int64_t service_ns = 0;  ///< modelled, from the reply (kOk only)
  std::vector<arlo::telemetry::StageSpan> annex;
};

struct ClientConfig {
  std::uint16_t port = 0;
  int connections = 2;
  bool traced = false;  ///< set kSubmitFlagTrace on every request
};

struct OpenLoopResult {
  std::int64_t start_ns = 0;  ///< steady-clock ns of due offset 0
  std::vector<RequestResult> requests;  ///< schedule order
  std::uint64_t protocol_violations = 0;  ///< unknown or duplicate reply ids
};

OpenLoopResult RunOpenLoop(const ClientConfig& config,
                           const std::vector<ScheduledRequest>& schedule);

struct ClosedLoopResult {
  std::int64_t start_ns = 0;
  std::int64_t phase_ns = 0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t refused = 0;
  std::uint64_t failed = 0;  ///< error replies plus broken connections' debt
  std::uint64_t unanswered = 0;
  std::uint64_t protocol_violations = 0;
  std::vector<std::int64_t> ok_completion_ns;  ///< offsets from start_ns
  /// Send-to-reply latency of each OK reply, completion order per connection.
  std::vector<std::int64_t> ok_latency_ns;
};

/// Cycles through `lengths` for request sizes.
ClosedLoopResult RunClosedLoop(const ClientConfig& config,
                               const std::vector<std::uint32_t>& lengths,
                               int window_per_connection,
                               std::int64_t phase_ns);

std::int64_t SteadyNowNs();

bool IsRefusal(arlo::net::ReplyStatus status);

}  // namespace perfbench
