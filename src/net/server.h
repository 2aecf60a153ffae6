// The non-blocking TCP serving frontend.
//
// One event-loop thread multiplexes the listening socket and every client
// connection through an epoll Poller, decodes
// length-prefixed SubmitRequest frames, and runs each through the
// AdmissionController.  The loop submits the admitted requests to the
// LiveTestbed itself: it collects a pass's admissions and, after the pass's
// events, hands them over with one LiveTestbed::SubmitAll — one dispatch
// lock acquisition per pass, whatever the batch size; an idle instance may
// start its next batch inside that call.  Rejections are replied to inline
// from the event loop.
//
// Completions flow back the reverse way: the completion callback, run on
// the testbed's executor thread, pushes (request id, record) onto the server's completion list
// and wakes the event loop through a self-pipe (WakePipe coalesces a burst
// of wakes into one byte); the event loop matches each drained record to
// its connection, encodes its Reply frame, and then writes once per
// connection the batch touched.  A connection that disappears before its
// reply is ready has the reply dropped (counted in replies_dropped) — the
// request itself always completes (the testbed never loses work).  After
// every pass the loop checks conservation:
//   accepted + rejected == replies_sent + replies_dropped + pending.
//
// Threads: the event loop, plus the testbed's executor thread that runs the
// completion callbacks.  Lock order: dispatch mutex -> completions mutex.
// The event loop takes the dispatch mutex (inside SubmitAll) without holding
// any server lock; the executor thread takes the completions mutex (leaf)
// while holding the dispatch mutex.
//
// Counts: the server's arlo_net_* metrics are registered on its sink's
// registry (on one it owns without a sink) and are the only copy of the
// counts they name; Stats() reads them back, plus three loop-written
// atomics for the fields with no metric (replies sent and dropped,
// protocol errors).
//
// Backpressure: the admission controller's inflight cap rejects explicitly,
// and beyond it TCP flow control pushes back on senders while the loop is
// busy.  The trade-off of submitting from the loop: a long dispatch-mutex
// hold (an ILP tick, a /statusz render) pauses socket reads for its
// duration — such a hold freezes every completion too, so no reply is
// moving during it anyway.
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
  /// Optional telemetry (not owned; must outlive the server).
  telemetry::TelemetrySink* telemetry = nullptr;
};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t accepted = 0;            ///< requests admitted + submitted
  std::uint64_t rejected_rate = 0;
  std::uint64_t rejected_inflight = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_class = 0;          ///< per-class overload sheds
  std::uint64_t replies_sent = 0;
  /// Completed requests whose connection closed before the reply: the
  /// work counted, the reply had nowhere to go.
  std::uint64_t replies_dropped = 0;
  std::uint64_t protocol_errors = 0;     ///< connections dropped on garbage
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;

  std::uint64_t TotalRejected() const {
    return rejected_rate + rejected_inflight + shed_deadline + shed_class;
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

  /// Binds, listens, and spawns the event-loop thread.
  void Start();

  /// The bound port (valid after Start()).
  std::uint16_t Port() const;

  /// Graceful shutdown: closes the listener and stops reading connections,
  /// finishes delivering replies for every admitted request, closes
  /// connections, joins the loop.  Requests still unread in a socket get no
  /// reply (the connection closes under them).  Idempotent; also run by the
  /// destructor.
  void Stop();

  ServerStats Stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace arlo::net
