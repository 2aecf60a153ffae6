#include "net/poller.h"

#include <sys/epoll.h>

#include <cerrno>
#include <cstdint>
#include <system_error>

namespace arlo::net {
namespace {

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

std::uint32_t EpollMask(bool want_read, bool want_write) {
  std::uint32_t mask = 0;
  if (want_read) mask |= EPOLLIN;
  if (want_write) mask |= EPOLLOUT;
  return mask;
}

}  // namespace

Poller::Poller() : epoll_fd_(::epoll_create1(0)) {
  if (!epoll_fd_.Valid()) ThrowErrno("epoll_create1");
}

void Poller::Add(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = EpollMask(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.Get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    ThrowErrno("epoll_ctl(ADD)");
  }
}

void Poller::Modify(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = EpollMask(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.Get(), EPOLL_CTL_MOD, fd, &ev) < 0) {
    ThrowErrno("epoll_ctl(MOD)");
  }
}

void Poller::Remove(int fd) {
  // Ignore failures: the fd may already be closed (kernel auto-removes).
  ::epoll_ctl(epoll_fd_.Get(), EPOLL_CTL_DEL, fd, nullptr);
}

int Poller::Wait(int timeout_ms, std::vector<PollEvent>& out) {
  out.clear();
  epoll_event events[64];
  int n;
  do {
    n = ::epoll_wait(epoll_fd_.Get(), events, 64, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) ThrowErrno("epoll_wait");
  for (int i = 0; i < n; ++i) {
    PollEvent ev;
    ev.fd = events[i].data.fd;
    ev.readable = (events[i].events & EPOLLIN) != 0;
    ev.writable = (events[i].events & EPOLLOUT) != 0;
    ev.hangup = (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
    out.push_back(ev);
  }
  return n;
}

}  // namespace arlo::net
