// The non-blocking TCP serving frontend.
//
// One event-loop thread multiplexes the listening socket and every client
// connection through a Poller (epoll, or poll via force_poll), decodes
// length-prefixed SubmitRequest frames, runs each through the
// AdmissionController, and forwards admitted requests to the LiveTestbed
// dispatcher over a bounded MPSC submission queue drained by a dedicated
// pump thread — so a scheme holding the dispatch mutex (ILP solve, fault
// recovery) never stalls socket I/O, and a full queue surfaces as an
// explicit kRejectQueueFull reply instead of unbounded buffering.
//
// Completions flow back the reverse way: the testbed worker's completion
// callback pushes (request id, record) onto the server's completion list
// and wakes the event loop through a self-pipe; the event loop matches each
// drained record to its connection, encodes its Reply frame, and then writes
// once per connection the batch touched.  Rejections are
// replied to inline from the event loop.  A connection that disappears
// before its reply is ready just has the reply dropped — the request
// itself always completes (the testbed never loses work).
//
// Threading / lock order: the event loop owns all connection state
// unshared.  Cross-thread traffic is (a) the bounded submission queue,
// (b) the completions mutex (leaf — worker threads push while holding the
// testbed dispatch mutex, so it must not be held while calling into the
// backend), and (c) the stats mutex (leaf).
#pragma once

#include <cstdint>
#include <memory>

#include "net/admission.h"
#include "serving/live_testbed.h"

namespace arlo::telemetry {
class TelemetrySink;
}

namespace arlo::net {

struct ServerConfig {
  /// 0 = kernel-assigned ephemeral port; read back via Port().
  std::uint16_t port = 0;
  AdmissionConfig admission;
  /// Capacity of the frontend -> dispatcher submission queue.
  std::size_t submit_queue_capacity = 1024;
  /// Use the poll(2) backend instead of epoll (fallback-path testing).
  bool force_poll = false;
  /// Optional telemetry (not owned; must outlive the server).
  telemetry::TelemetrySink* telemetry = nullptr;
};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t accepted = 0;            ///< requests admitted + submitted
  std::uint64_t rejected_rate = 0;
  std::uint64_t rejected_inflight = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_class = 0;          ///< per-class overload sheds
  std::uint64_t replies_sent = 0;
  std::uint64_t protocol_errors = 0;     ///< connections dropped on garbage
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;

  std::uint64_t TotalRejected() const {
    return rejected_rate + rejected_inflight + rejected_queue_full +
           shed_deadline + shed_class;
  }
};

class Server {
 public:
  /// The backend must be Start()ed before the server and must outlive it;
  /// call Stop() before backend.Finish().
  Server(serving::LiveTestbed& backend, const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the event-loop and pump threads.
  void Start();

  /// The bound port (valid after Start()).
  std::uint16_t Port() const;

  /// Graceful shutdown: stops accepting, finishes delivering replies for
  /// every in-flight request, closes connections, joins threads.
  /// Idempotent; also run by the destructor.
  void Stop();

  ServerStats Stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace arlo::net
