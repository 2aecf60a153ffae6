#include "obs/http.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>

#include "net/socket.h"

namespace arlo::obs {
namespace {

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string Trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

using FetchClock = std::chrono::steady_clock;

/// Waits until `fd` is ready for `events` (or reports an error, which the
/// next socket call surfaces).  False when `deadline` passes first.
bool WaitReady(int fd, short events, FetchClock::time_point deadline) {
  for (;;) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - FetchClock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, events, 0};
    const int n = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (n > 0) return true;
    if (n == 0 || errno != EINTR) return false;
  }
}

/// Non-blocking connect to 127.0.0.1:`port`, finished by `deadline`.
net::ScopedFd ConnectBy(std::uint16_t port, FetchClock::time_point deadline) {
  net::ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd.Valid()) return fd;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd.Get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    return fd;
  }
  if (errno != EINPROGRESS || !WaitReady(fd.Get(), POLLOUT, deadline)) {
    return net::ScopedFd();
  }
  int error = 0;
  socklen_t len = sizeof(error);
  if (::getsockopt(fd.Get(), SOL_SOCKET, SO_ERROR, &error, &len) < 0 ||
      error != 0) {
    return net::ScopedFd();
  }
  return fd;
}

}  // namespace

const char* HttpReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string SerializeResponse(const HttpResponse& response) {
  std::string out;
  out.reserve(response.body.size() + 128);
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += " ";
  out += HttpReason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

void HttpRequestParser::Feed(const char* data, std::size_t n) {
  if (state_ == State::kComplete || state_ == State::kError) return;
  buffer_.append(data, n);
  if (state_ == State::kHeaders) {
    const std::size_t header_end = buffer_.find("\r\n\r\n");
    if (header_end == std::string::npos) {
      if (buffer_.size() > kMaxHeaderBytes) state_ = State::kError;
      return;
    }
    // The cap holds however the block arrived, one read or many.
    if (header_end > kMaxHeaderBytes) {
      state_ = State::kError;
      return;
    }
    ParseHeaderBlock(header_end);
    if (state_ == State::kError) return;
    buffer_.erase(0, header_end + 4);
    state_ = State::kBody;
  }
  if (state_ == State::kBody) {
    if (content_length_ > kMaxBodyBytes) {
      state_ = State::kError;
      return;
    }
    if (buffer_.size() >= content_length_) {
      request_.body = buffer_.substr(0, content_length_);
      buffer_.clear();
      state_ = State::kComplete;
    }
  }
}

void HttpRequestParser::ParseHeaderBlock(std::size_t header_end) {
  const std::size_t line_end = buffer_.find("\r\n");
  const std::string request_line = buffer_.substr(0, line_end);
  // "METHOD SP request-target SP HTTP/x.y"
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      request_line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    state_ = State::kError;
    return;
  }
  request_.method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t q = target.find('?');
  if (q != std::string::npos) {
    request_.query = target.substr(q + 1);
    target.erase(q);
  }
  request_.path = target;
  if (request_.method.empty() || request_.path.empty() ||
      request_.path[0] != '/') {
    state_ = State::kError;
    return;
  }

  std::size_t pos = line_end + 2;
  while (pos < header_end) {
    std::size_t eol = buffer_.find("\r\n", pos);
    if (eol == std::string::npos || eol > header_end) eol = header_end;
    const std::string line = buffer_.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      state_ = State::kError;
      return;
    }
    request_.headers[ToLower(Trim(line.substr(0, colon)))] =
        Trim(line.substr(colon + 1));
  }
  const auto it = request_.headers.find("content-length");
  if (it != request_.headers.end()) {
    char* end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0' || v < 0) {
      state_ = State::kError;
      return;
    }
    content_length_ = static_cast<std::size_t>(v);
  }
}

HttpResult HttpFetch(std::uint16_t port, const std::string& method,
                     const std::string& path, const std::string& body) {
  HttpResult result;
  const FetchClock::time_point deadline = FetchClock::now() + kHttpFetchDeadline;
  const net::ScopedFd fd = ConnectBy(port, deadline);
  if (!fd.Valid()) return result;
  std::string request = method + " " + path + " HTTP/1.1\r\n";
  request += "Host: 127.0.0.1\r\nConnection: close\r\n";
  if (!body.empty() || method == "POST") {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  std::size_t off = 0;
  while (off < request.size()) {
    if (!WaitReady(fd.Get(), POLLOUT, deadline)) return result;
    const ssize_t n = ::send(fd.Get(), request.data() + off,
                             request.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno != EAGAIN && errno != EINTR) return result;
    off += static_cast<std::size_t>(std::max<ssize_t>(n, 0));
  }
  std::string response;
  char buf[4096];
  for (;;) {
    if (!WaitReady(fd.Get(), POLLIN, deadline)) return result;
    const ssize_t n = ::recv(fd.Get(), buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0 && errno != EAGAIN && errno != EINTR) return result;
    response.append(buf, static_cast<std::size_t>(std::max<ssize_t>(n, 0)));
    if (response.size() > kHttpFetchMaxResponseBytes) return result;
  }
  return ParseHttpResponse(response);
}

HttpResult ParseHttpResponse(const std::string& response) {
  HttpResult result;
  const std::size_t header_end = response.find("\r\n\r\n");
  if (response.size() > kHttpFetchMaxResponseBytes ||
      header_end == std::string::npos ||
      response.compare(0, 5, "HTTP/") != 0) {
    return result;
  }
  // "HTTP/x.y SP 3DIGIT ..."
  const std::size_t sp = response.find(' ');
  if (sp == std::string::npos || sp + 4 > header_end) return result;
  const char* code = response.data() + sp + 1;
  const auto [code_end, ec] = std::from_chars(code, code + 3, result.status);
  if (ec != std::errc() || code_end != code + 3 || result.status < 100) {
    return HttpResult();
  }
  // content-type, for the exposition-format assertions in tests.
  const std::string headers = ToLower(response.substr(0, header_end));
  const std::size_t ct = headers.find("content-type:");
  if (ct != std::string::npos) {
    const std::size_t eol = std::min(headers.find("\r\n", ct), header_end);
    result.content_type = Trim(response.substr(ct + 13, eol - (ct + 13)));
  }
  result.body = response.substr(header_end + 4);
  // A body cut short of its declared length is a truncated answer.
  const std::size_t cl = headers.find("content-length:");
  if (cl != std::string::npos &&
      result.body.size() <
          std::strtoull(headers.c_str() + cl + 15, nullptr, 10)) {
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace arlo::obs
