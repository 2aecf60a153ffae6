#include "net/client.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace arlo::net {
namespace {

using WallClock = std::chrono::steady_clock;

void PreciseWaitUntil(WallClock::time_point deadline,
                      std::chrono::nanoseconds spin) {
  const auto sleep_until = deadline - spin;
  if (WallClock::now() < sleep_until) std::this_thread::sleep_until(sleep_until);
  while (WallClock::now() < deadline) {
    // spin
  }
}

}  // namespace

ClientConnection::ClientConnection(std::uint16_t port) { Connect(port); }

void ClientConnection::Connect(std::uint16_t port) {
  // Tear down the old state first: the previous fix-up order (connect, then
  // replace members on success only) left a failed connect holding the old
  // dead fd and whatever partial frame its decoder had buffered.
  Close();
  ScopedFd fd = ConnectTcp(port);  // throws; fd_ stays invalid on failure
  SetNoDelay(fd.Get());
  fd_ = std::move(fd);
}

bool ClientConnection::TryConnect(std::uint16_t port) {
  try {
    Connect(port);
    return true;
  } catch (const std::system_error&) {
    return false;
  }
}

void ClientConnection::Close() {
  fd_.Reset();
  decoder_.Reset();
}

void ClientConnection::Shutdown() {
  if (fd_.Valid()) ::shutdown(fd_.Get(), SHUT_RDWR);
}

void ClientConnection::Send(const SubmitRequest& request) {
  std::vector<std::uint8_t> buf;
  buf.reserve(kSubmitFrameBytes);
  EncodeSubmit(request, buf);
  SendEncoded(buf);
}

void ClientConnection::SendEncoded(const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_.Get(), bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    throw std::system_error(errno, std::generic_category(), "send");
  }
}

bool ClientConnection::TryReceiveBuffered(Reply& out) {
  Frame frame;
  const FrameDecoder::Result r = decoder_.Next(frame);
  if (r == FrameDecoder::Result::kNeedMore) return false;
  if (r == FrameDecoder::Result::kError) {
    throw std::runtime_error("protocol error: " + decoder_.Error());
  }
  if (frame.type != MsgType::kReply) {
    throw std::runtime_error("client received a non-reply frame");
  }
  out = std::move(frame.reply);
  return true;
}

bool ClientConnection::Receive(Reply& out) {
  for (;;) {
    if (TryReceiveBuffered(out)) return true;
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd_.Get(), buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.Feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      if (decoder_.Pending() > 0) {
        throw std::runtime_error("EOF mid-frame");
      }
      return false;
    }
    if (errno == EINTR) continue;
    throw std::system_error(errno, std::generic_category(), "recv");
  }
}

std::uint64_t LoadGeneratorResult::CountByStatus(ReplyStatus status) const {
  std::uint64_t n = 0;
  for (const PerRequest& r : requests) {
    if (r.replied && r.status == status) ++n;
  }
  return n;
}

std::vector<SimDuration> LoadGeneratorResult::LatenciesByStatus(
    ReplyStatus status) const {
  std::vector<SimDuration> out;
  for (const PerRequest& r : requests) {
    if (r.replied && r.status == status) out.push_back(r.latency);
  }
  std::sort(out.begin(), out.end());
  return out;
}

LoadGeneratorResult RunLoadGenerator(const trace::Trace& trace,
                                     const LoadGeneratorConfig& config) {
  ARLO_CHECK(config.connections >= 1);
  ARLO_CHECK(config.time_scale > 0.0);
  const int num_conns = config.connections;
  const std::vector<Request>& requests = trace.Requests();

  LoadGeneratorResult result;
  result.requests.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    result.requests[i].id = requests[i].id;
    result.requests[i].length = requests[i].length;
    result.requests[i].arrival = requests[i].arrival;
    result.requests[i].tenant_class = requests[i].tenant_class;
  }

  // Requests round-robin over connections; wire ids are trace ids, which
  // are unique across the whole trace so per-connection maps never clash.
  struct ConnState {
    std::unique_ptr<ClientConnection> conn;
    std::vector<std::size_t> assigned;  ///< indices into the trace
    std::mutex mu;
    /// wire id -> (send wall time, result index); erased on reply.
    std::unordered_map<std::uint64_t,
                       std::pair<WallClock::time_point, std::size_t>>
        outstanding;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
  };
  std::vector<std::unique_ptr<ConnState>> conns;
  conns.reserve(static_cast<std::size_t>(num_conns));
  for (int c = 0; c < num_conns; ++c) {
    auto state = std::make_unique<ConnState>();
    state->conn = std::make_unique<ClientConnection>(config.port);
    conns.push_back(std::move(state));
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    conns[i % static_cast<std::size_t>(num_conns)]->assigned.push_back(i);
  }

  // One shared time base: request i is due at start + arrival * scale.
  const auto start = WallClock::now() + std::chrono::milliseconds(5);
  const auto spin = std::chrono::nanoseconds(config.spin_threshold);

  std::mutex result_mu;  // guards result.requests writes from receivers

  auto sender = [&](ConnState& state) {
    for (const std::size_t idx : state.assigned) {
      const Request& r = requests[idx];
      const auto due =
          start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                      static_cast<double>(r.arrival) * config.time_scale));
      PreciseWaitUntil(due, spin);
      SubmitRequest msg;
      msg.id = r.id;
      msg.length = static_cast<std::uint32_t>(r.length);
      msg.decode_len = static_cast<std::uint32_t>(std::max(0, r.decode_len));
      msg.deadline_ns = config.deadline;
      msg.tenant_class = static_cast<std::uint8_t>(
          std::clamp(r.tenant_class, 0, 255));
      if (telemetry::TraceSampled(msg.id, config.trace_sample_n)) {
        msg.flags |= kSubmitFlagTrace;
      }
      {
        std::lock_guard lock(state.mu);
        state.outstanding.emplace(msg.id,
                                  std::make_pair(WallClock::now(), idx));
        ++state.sent;
      }
      state.conn->Send(msg);
    }
  };

  auto receiver = [&](ConnState& state) {
    const std::uint64_t expected =
        static_cast<std::uint64_t>(state.assigned.size());
    Reply reply;
    while (state.received < expected && state.conn->Receive(reply)) {
      WallClock::time_point sent_at;
      std::size_t idx;
      {
        std::lock_guard lock(state.mu);
        auto it = state.outstanding.find(reply.id);
        if (it == state.outstanding.end()) continue;  // duplicate/unknown id
        sent_at = it->second.first;
        idx = it->second.second;
        state.outstanding.erase(it);
        ++state.received;
      }
      const auto wall_latency =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              WallClock::now() - sent_at)
              .count();
      std::lock_guard lock(result_mu);
      LoadGeneratorResult::PerRequest& out = result.requests[idx];
      out.replied = true;
      out.status = reply.status;
      out.latency = static_cast<SimDuration>(
          static_cast<double>(wall_latency) / config.time_scale);
      out.queue_ns = reply.queue_ns;
      out.service_ns = reply.service_ns;
      out.annex = reply.annex;
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_conns) * 2);
  for (auto& state : conns) {
    threads.emplace_back([&sender, &state] { sender(*state); });
    threads.emplace_back([&receiver, &state] { receiver(*state); });
  }
  for (std::thread& t : threads) t.join();

  for (const auto& state : conns) {
    result.sent += state->sent;
    result.received += state->received;
  }
  return result;
}

}  // namespace arlo::net
