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

#include <atomic>
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
  bool want_read = true;          ///< registered for readability
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
///
/// Wakes coalesce: an atomic pending flag lets only the Wake() that sets it
/// write a byte, so a burst of wakes between two loop passes costs one
/// write(2) and one readable event.  The loop must Drain() before it looks
/// at the state the wakes announce (mailbox, completion list): a Wake() that
/// lands after Drain() cleared the flag writes a fresh byte, and one that
/// lands before sees its state change picked up by that look.
class WakePipe {
 public:
  WakePipe();  ///< throws std::system_error when the pipe cannot open

  int ReadFd() const { return read_.Get(); }
  void Wake();
  /// Reads the pipe empty, then clears the pending flag — in that order:
  /// clearing first would let a byte written after the clear be read here,
  /// leaving the flag set with nothing in the pipe, and every later Wake()
  /// would be swallowed.
  void Drain();

 private:
  ScopedFd read_;
  ScopedFd write_;
  std::atomic<bool> pending_{false};
};

}  // namespace arlo::net
