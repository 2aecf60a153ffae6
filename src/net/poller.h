// Readiness multiplexer for the non-blocking servers: a thin owner of one
// epoll instance.  The repository targets Linux only (the sockets already
// rely on SOCK_NONBLOCK and MSG_NOSIGNAL), so there is no other backend.
//
// Level-triggered semantics: a fd reports readable/writable for as long as
// the condition holds, so the event loop never needs to drain-until-EAGAIN
// to stay correct (it still does, for throughput).
#pragma once

#include <vector>

#include "net/socket.h"

namespace arlo::net {

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool hangup = false;  ///< peer closed / error — tear the connection down
};

class Poller {
 public:
  Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void Add(int fd, bool want_read, bool want_write);
  void Modify(int fd, bool want_read, bool want_write);
  void Remove(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever) and appends ready fds to
  /// `out` (cleared first).  Returns the number of events.
  int Wait(int timeout_ms, std::vector<PollEvent>& out);

 private:
  ScopedFd epoll_fd_;
};

}  // namespace arlo::net
