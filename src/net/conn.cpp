#include "net/conn.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>

namespace arlo::net {

ScopedFd AcceptConn(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      SetNonBlocking(fd);
      SetNoDelay(fd);
      return ScopedFd(fd);
    }
    if (errno != EINTR) return ScopedFd();
  }
}

ssize_t RecvInto(Conn& conn) {
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd.Get(), buf, sizeof(buf), 0);
    if (n > 0) conn.decoder.Feed(buf, static_cast<std::size_t>(n));
    if (n >= 0 || errno != EINTR) return n;
  }
}

ssize_t FlushConn(Poller& poller, Conn& conn) {
  const int fd = conn.fd.Get();
  ssize_t written = 0;
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      written += n;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!conn.want_write) {
        conn.want_write = true;
        poller.Modify(fd, /*want_read=*/true, /*want_write=*/true);
      }
      return written;
    }
    if (errno == EINTR) continue;
    return -1;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.want_write) {
    conn.want_write = false;
    poller.Modify(fd, /*want_read=*/true, /*want_write=*/false);
  }
  return written;
}

WakePipe::WakePipe() {
  int fds[2];
  if (::pipe(fds) < 0) {
    throw std::system_error(errno, std::generic_category(), "pipe");
  }
  read_ = ScopedFd(fds[0]);
  write_ = ScopedFd(fds[1]);
  SetNonBlocking(read_.Get());
  SetNonBlocking(write_.Get());
}

void WakePipe::Wake() {
  const char byte = 'w';
  // EAGAIN (pipe full) is fine: a wake-up is already pending.
  (void)::write(write_.Get(), &byte, 1);
}

void WakePipe::Drain() {
  char buf[256];
  while (::read(read_.Get(), buf, sizeof(buf)) > 0) {
  }
}

}  // namespace arlo::net
