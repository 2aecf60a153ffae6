#include "load_client.h"

#include <sys/prctl.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>

#include "net/client.h"

namespace perfbench {
namespace {

using arlo::net::ClientConnection;
using arlo::net::Reply;
using arlo::net::ReplyStatus;
using arlo::net::SubmitRequest;

/// How long to wait for outstanding replies after the last send.
constexpr std::int64_t kDrainTimeoutNs = 20'000'000'000;

void SleepUntil(std::int64_t due_ns) {
  const std::int64_t now = SteadyNowNs();
  if (now < due_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

std::vector<std::unique_ptr<ClientConnection>> Connect(
    const ClientConfig& config) {
  std::vector<std::unique_ptr<ClientConnection>> conns;
  for (int c = 0; c < config.connections; ++c) {
    conns.push_back(std::make_unique<ClientConnection>(config.port));
  }
  return conns;
}

/// Waits until `done()` or the deadline, then shuts every connection down so
/// receivers parked in Receive return.
template <typename Done>
void AwaitThenShutdown(std::vector<std::unique_ptr<ClientConnection>>& conns,
                       std::int64_t deadline_ns, Done done) {
  while (!done() && SteadyNowNs() < deadline_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& conn : conns) conn->Shutdown();
}

}  // namespace

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool IsRefusal(ReplyStatus status) {
  return status != ReplyStatus::kOk && status != ReplyStatus::kError;
}

OpenLoopResult RunOpenLoop(const ClientConfig& config,
                           const std::vector<ScheduledRequest>& schedule) {
  const int n = config.connections;
  auto conns = Connect(config);
  OpenLoopResult out;
  out.requests.resize(schedule.size());
  out.start_ns = SteadyNowNs() + 2'000'000;
  std::vector<std::uint64_t> expected(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    out.requests[i].due_ns = out.start_ns + schedule[i].due_ns;
    ++expected[i % static_cast<std::size_t>(n)];
  }

  // Receivers write only the reply fields of their own connection's
  // requests; the sender writes only sent_ns.  Nothing is read across
  // threads until they are joined.
  std::atomic<std::uint64_t> received{0};
  std::vector<std::uint64_t> violations(static_cast<std::size_t>(n), 0);
  std::vector<std::thread> receivers;
  for (int c = 0; c < n; ++c) {
    receivers.emplace_back([&, c] {
      const auto cu = static_cast<std::size_t>(c);
      std::uint64_t got = 0;
      Reply reply;
      try {
        while (got < expected[cu] && conns[cu]->Receive(reply)) {
          const std::int64_t now = SteadyNowNs();
          const std::uint64_t index = reply.id - 1;
          if (reply.id == 0 || index >= out.requests.size() ||
              index % static_cast<std::uint64_t>(n) != cu ||
              out.requests[index].recv_ns != 0) {
            ++violations[cu];
            continue;
          }
          RequestResult& r = out.requests[index];
          r.recv_ns = now;
          r.status = reply.status;
          r.service_ns = reply.service_ns;
          r.annex = std::move(reply.annex);
          ++got;
          received.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::exception&) {
        // A broken connection: its unanswered requests count as failed.
      }
    });
  }

  // Timer slack would otherwise round every sleep up by ~50 us.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    SleepUntil(out.requests[i].due_ns);
    SubmitRequest submit;
    submit.id = i + 1;
    submit.length = schedule[i].length;
    submit.flags = config.traced ? arlo::net::kSubmitFlagTrace : 0;
    out.requests[i].sent_ns = SteadyNowNs();
    try {
      conns[i % static_cast<std::size_t>(n)]->Send(submit);
      ++sent;
    } catch (const std::exception&) {
      out.requests[i].sent_ns = 0;
    }
  }
  AwaitThenShutdown(conns, SteadyNowNs() + kDrainTimeoutNs, [&] {
    return received.load(std::memory_order_relaxed) >= sent;
  });
  for (std::thread& t : receivers) t.join();
  for (std::uint64_t v : violations) out.protocol_violations += v;
  return out;
}

ClosedLoopResult RunClosedLoop(const ClientConfig& config,
                               const std::vector<std::uint32_t>& lengths,
                               int window_per_connection,
                               std::int64_t phase_ns) {
  const int n = config.connections;
  auto conns = Connect(config);
  ClosedLoopResult out;
  out.start_ns = SteadyNowNs() + 1'000'000;
  out.phase_ns = phase_ns;
  const std::int64_t end_ns = out.start_ns + phase_ns;

  std::vector<ClosedLoopResult> per(static_cast<std::size_t>(n));
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ClosedLoopResult& mine = per[static_cast<std::size_t>(c)];
      ClientConnection& conn = *conns[static_cast<std::size_t>(c)];
      // Request k of this connection has id c + 1 + k * n.
      std::vector<std::int64_t> sent_at;  // 0 once answered
      std::uint64_t issued = 0;
      std::uint64_t outstanding = 0;
      const auto send_one = [&] {
        SubmitRequest submit;
        submit.id = static_cast<std::uint64_t>(c) + 1 +
                    issued * static_cast<std::uint64_t>(n);
        submit.length = lengths[(static_cast<std::size_t>(c) +
                                 issued * static_cast<std::size_t>(n)) %
                                lengths.size()];
        submit.flags = config.traced ? arlo::net::kSubmitFlagTrace : 0;
        const std::int64_t now = SteadyNowNs();
        conn.Send(submit);
        sent_at.push_back(now);  // this thread reads the reply, so no race
        ++issued;
        ++mine.sent;
        ++outstanding;
      };
      SleepUntil(out.start_ns);
      try {
        for (int w = 0; w < window_per_connection; ++w) send_one();
        Reply reply;
        while (outstanding > 0 && conn.Receive(reply)) {
          const std::int64_t now = SteadyNowNs();
          const std::uint64_t k =
              (reply.id - 1 - static_cast<std::uint64_t>(c)) /
              static_cast<std::uint64_t>(n);
          if (reply.id == 0 ||
              (reply.id - 1) % static_cast<std::uint64_t>(n) !=
                  static_cast<std::uint64_t>(c) ||
              k >= issued || sent_at[k] == 0) {
            ++mine.protocol_violations;
            continue;
          }
          const std::int64_t latency = now - sent_at[k];
          sent_at[k] = 0;
          --outstanding;
          if (reply.status == ReplyStatus::kOk) {
            ++mine.ok;
            mine.ok_completion_ns.push_back(now - out.start_ns);
            mine.ok_latency_ns.push_back(latency);
          } else if (IsRefusal(reply.status)) {
            ++mine.refused;
          } else {
            ++mine.failed;
          }
          if (now < end_ns) send_one();
        }
      } catch (const std::exception&) {
        mine.failed += outstanding;
        outstanding = 0;
      }
      mine.unanswered += outstanding;
      finished.fetch_add(1);
    });
  }
  AwaitThenShutdown(conns, end_ns + kDrainTimeoutNs,
                    [&] { return finished.load() == n; });
  for (std::thread& t : threads) t.join();
  for (ClosedLoopResult& p : per) {
    out.sent += p.sent;
    out.ok += p.ok;
    out.refused += p.refused;
    out.failed += p.failed;
    out.unanswered += p.unanswered;
    out.protocol_violations += p.protocol_violations;
    out.ok_completion_ns.insert(out.ok_completion_ns.end(),
                                p.ok_completion_ns.begin(),
                                p.ok_completion_ns.end());
    out.ok_latency_ns.insert(out.ok_latency_ns.end(), p.ok_latency_ns.begin(),
                             p.ok_latency_ns.end());
  }
  return out;
}

}  // namespace perfbench
