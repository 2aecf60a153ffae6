// The connection half shared by both event-loop tiers (net::Server on a
// node, cluster::Router in front of the nodes): one non-blocking socket with
// its own frame decoder and out buffer, the read and flush steps a
// Poller-driven loop runs on it, and the self-pipe that wakes the loop from
// other threads.
//
// The loop that owns a Conn is its only user, so nothing here locks.
// Writes never block: FlushConn sends what the socket takes, keeps the rest
// in `out`, and asks the Poller for writability until the rest is gone (the
// want_write resume).
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/poller.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace arlo::net {

struct Conn {
  ScopedFd fd;
  std::uint64_t id = 0;  ///< owner-assigned; tells a reused fd apart
  FrameDecoder decoder;
  std::vector<std::uint8_t> out;  ///< encoded frames not yet written
  std::size_t out_off = 0;        ///< prefix of `out` already written
  bool want_write = false;        ///< registered for writability
};

/// Accepts one pending connection on a non-blocking listen socket and makes
/// it non-blocking with TCP_NODELAY.  Invalid when none is pending or the
/// accept failed (the listener stays up either way).
ScopedFd AcceptConn(int listen_fd);

/// One recv into `conn.decoder`.  Returns the bytes read (> 0), 0 when the
/// peer closed, or -1 with errno set (EAGAIN: nothing to read yet).
/// Level-triggered readiness makes one call per event enough.
ssize_t RecvInto(Conn& conn);

/// Writes as much of `conn.out` as the socket takes.  Returns the bytes
/// written (0 when the socket is full or `out` was empty), or -1 with errno
/// set when the connection failed and must be closed.  A partial write
/// registers `conn` for writability on `poller`; the flush that empties
/// `out` unregisters it.
ssize_t FlushConn(Poller& poller, Conn& conn);

/// A non-blocking self-pipe: Wake() from any thread makes ReadFd() readable
/// until the loop calls Drain().
class WakePipe {
 public:
  WakePipe();  ///< throws std::system_error when the pipe cannot open

  int ReadFd() const { return read_.Get(); }
  void Wake();
  void Drain();

 private:
  ScopedFd read_;
  ScopedFd write_;
};

}  // namespace arlo::net
