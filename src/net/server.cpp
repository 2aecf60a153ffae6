#include "net/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/check.h"
#include "net/conn.h"
#include "net/poller.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "telemetry/sink.h"

namespace arlo::net {
namespace {

using WallClock = std::chrono::steady_clock;

}  // namespace

struct Server::Impl {
  Impl(serving::LiveTestbed& backend, const ServerConfig& config)
      : backend_(backend),
        config_(config),
        admission_(config.admission),
        submit_queue_(config.submit_queue_capacity),
        poller_(config.force_poll ? Poller::Backend::kPoll
                                  : Poller::DefaultBackend()) {}

  serving::LiveTestbed& backend_;
  ServerConfig config_;
  AdmissionController admission_;
  BoundedQueue<Request> submit_queue_;
  Poller poller_;

  ScopedFd listen_fd_;
  std::uint16_t port_ = 0;
  WakePipe wake_;

  std::thread loop_thread_;
  std::thread pump_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;

  // --- event-loop-owned state (no locks) --------------------------------
  std::map<int, std::unique_ptr<Conn>> conns_;

  struct Pending {
    std::uint64_t conn_id = 0;
    int conn_fd = -1;
    std::uint64_t wire_id = 0;
    std::uint64_t wire_request_id = 0;  ///< echoed verbatim (router token)
    WallClock::time_point recv_wall;
    // Trace-sampled requests (kSubmitFlagTrace) stamp a per-stage timing
    // annex into their reply; the two frontend stages measured before the
    // request enters the backend are carried here.
    bool traced = false;
    std::int64_t accept_ns = 0;     ///< frame decoded -> request built
    std::int64_t admission_ns = 0;  ///< admission controller decision
  };
  std::unordered_map<RequestId, Pending> pending_;
  RequestId next_request_id_ = 1;
  std::uint64_t next_conn_id_ = 1;

  // --- cross-thread state ------------------------------------------------
  struct Completion {
    RequestId id = 0;
    RequestRecord record;
    /// When the worker's completion callback handed the record off — the
    /// start of the reply-write stage for traced requests.
    WallClock::time_point done_wall;
  };
  std::mutex completions_mu_;  // leaf: pushers hold the dispatch mutex
  std::vector<Completion> completions_;

  mutable std::mutex stats_mu_;  // leaf
  ServerStats stats_;

  void Start();
  void Stop();
  void EventLoop();
  void PumpLoop();
  void AcceptNew();
  void OnReadable(Conn& conn);
  bool FlushConn(Conn& conn);  ///< false: connection died and was closed
  void CloseConn(int fd);
  void HandleSubmit(Conn& conn, const SubmitRequest& submit);
  void SendReject(Conn& conn, const SubmitRequest& submit, ReplyStatus status);
  void DrainCompletions();

  template <typename Fn>
  void WithStats(Fn&& fn) {
    std::lock_guard lock(stats_mu_);
    fn(stats_);
  }
};

void Server::Impl::Start() {
  ARLO_CHECK_MSG(!started_, "Server started twice");
  started_ = true;
  if (config_.telemetry) {
    // Node stages only — the router registers the router-side family on its
    // own sink.  Registration is idempotent and costs nothing until a traced
    // request actually records.
    config_.telemetry->EnableStageMetrics(/*include_router=*/false);
  }
  listen_fd_ = ListenTcp(config_.port);
  SetNonBlocking(listen_fd_.Get());
  port_ = LocalPort(listen_fd_.Get());

  poller_.Add(listen_fd_.Get(), /*want_read=*/true, /*want_write=*/false);
  poller_.Add(wake_.ReadFd(), /*want_read=*/true, /*want_write=*/false);

  pump_thread_ = std::thread([this] { PumpLoop(); });
  loop_thread_ = std::thread([this] { EventLoop(); });
}

void Server::Impl::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_relaxed);
  submit_queue_.Close();
  pump_thread_.join();
  wake_.Wake();
  loop_thread_.join();
}

void Server::Impl::PumpLoop() {
  Request request;
  while (submit_queue_.Pop(request)) {
    const RequestId id = request.id;
    const int cls = request.tenant_class;
    backend_.Submit(request, [this, id, cls](const RequestRecord& record) {
      // Worker thread, dispatch mutex held: just hand off and wake.
      admission_.OnRequestDone(cls);
      {
        std::lock_guard lock(completions_mu_);
        completions_.push_back({id, record, WallClock::now()});
      }
      wake_.Wake();
    });
  }
}

void Server::Impl::EventLoop() {
  std::vector<PollEvent> events;
  // Keep delivering replies until shutdown AND every admitted request has
  // been answered (or its connection is gone) — graceful drain.
  while (!stopping_.load(std::memory_order_relaxed) || !pending_.empty()) {
    poller_.Wait(/*timeout_ms=*/50, events);
    for (const PollEvent& ev : events) {
      if (ev.fd == wake_.ReadFd()) {
        wake_.Drain();
        continue;
      }
      if (ev.fd == listen_fd_.Get()) {
        if (ev.readable) AcceptNew();
        continue;
      }
      auto it = conns_.find(ev.fd);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      Conn& conn = *it->second;
      if (ev.readable) OnReadable(conn);
      // OnReadable may have torn the connection down; re-check.
      auto again = conns_.find(ev.fd);
      if (again == conns_.end()) continue;
      if (ev.writable) {
        if (!FlushConn(*again->second)) continue;
      } else if (ev.hangup && !ev.readable) {
        CloseConn(ev.fd);
      }
    }
    DrainCompletions();
  }
  // Shutdown: drop whatever connections remain.
  std::vector<int> open;
  open.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) open.push_back(fd);
  for (int fd : open) CloseConn(fd);
}

void Server::Impl::AcceptNew() {
  for (;;) {
    ScopedFd accepted = AcceptConn(listen_fd_.Get());
    if (!accepted.Valid()) return;
    const int fd = accepted.Get();
    auto conn = std::make_unique<Conn>();
    conn->fd = std::move(accepted);
    conn->id = next_conn_id_++;
    conns_.emplace(fd, std::move(conn));
    poller_.Add(fd, /*want_read=*/true, /*want_write=*/false);
    WithStats([](ServerStats& s) { ++s.connections_accepted; });
    if (config_.telemetry) {
      config_.telemetry->RecordNetConnOpened(
          backend_.Now(), static_cast<std::int64_t>(conns_.size()));
    }
  }
}

void Server::Impl::OnReadable(Conn& conn) {
  const int fd = conn.fd.Get();
  for (;;) {
    const ssize_t n = RecvInto(conn);
    if (n > 0) {
      WithStats([&](ServerStats& s) {
        s.bytes_in += static_cast<std::uint64_t>(n);
      });
      if (config_.telemetry) {
        config_.telemetry->RecordNetBytes(static_cast<std::uint64_t>(n), 0);
      }
      Frame frame;
      for (;;) {
        const FrameDecoder::Result r = conn.decoder.Next(frame);
        if (r == FrameDecoder::Result::kNeedMore) break;
        if (r == FrameDecoder::Result::kError ||
            frame.type != MsgType::kSubmit) {
          WithStats([](ServerStats& s) { ++s.protocol_errors; });
          CloseConn(fd);
          return;
        }
        HandleSubmit(conn, frame.submit);
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(fd);  // peer closed, or the read failed
    return;
  }
  if (!FlushConn(conn)) return;
}

void Server::Impl::HandleSubmit(Conn& conn, const SubmitRequest& submit) {
  // Head-based sampling: the sender (client or router) made the decision;
  // untraced requests never read the wall clock here.
  const bool traced = (submit.flags & kSubmitFlagTrace) != 0;
  const WallClock::time_point trace_entry =
      traced ? WallClock::now() : WallClock::time_point{};
  const SimTime now = backend_.Now();
  Request request;
  request.id = next_request_id_++;
  request.arrival = now;
  request.length = static_cast<int>(submit.length);
  request.decode_len = static_cast<int>(submit.decode_len);
  // Unknown class ids (a client naming a class this server does not define)
  // clamp to the default class 0.
  const tenant::TenantClassTable* tenants = config_.admission.tenants;
  request.tenant_class =
      tenants != nullptr
          ? tenants->Clamp(static_cast<int>(submit.tenant_class))
          : 0;

  const WallClock::time_point trace_built =
      traced ? WallClock::now() : WallClock::time_point{};
  const AdmissionDecision decision =
      admission_.Admit(now, backend_.EstimatedQueueDelay(), submit.deadline_ns,
                       request.tenant_class);
  switch (decision) {
    case AdmissionDecision::kAdmit: {
      Pending pending;
      pending.conn_id = conn.id;
      pending.conn_fd = conn.fd.Get();
      pending.wire_id = submit.id;
      pending.wire_request_id = submit.request_id;
      pending.recv_wall = WallClock::now();
      if (traced) {
        pending.traced = true;
        pending.accept_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                trace_built - trace_entry)
                .count();
        pending.admission_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                pending.recv_wall - trace_built)
                .count();
      }
      pending_.emplace(request.id, pending);
      if (!submit_queue_.TryPush(request)) {
        // Dispatcher backpressure: undo the admit and reject explicitly.
        pending_.erase(request.id);
        admission_.OnRequestDone(request.tenant_class);
        WithStats([](ServerStats& s) { ++s.rejected_queue_full; });
        if (config_.telemetry) {
          config_.telemetry->RecordNetRejected(request, now,
                                               "queue-full");
          config_.telemetry->RecordTenantRejected(request.tenant_class);
        }
        SendReject(conn, submit, ReplyStatus::kRejectQueueFull);
        return;
      }
      WithStats([](ServerStats& s) { ++s.accepted; });
      if (config_.telemetry) {
        config_.telemetry->RecordNetAccepted(request, now);
        config_.telemetry->RecordTenantAccepted(request.tenant_class);
      }
      return;
    }
    case AdmissionDecision::kRejectRate:
      WithStats([](ServerStats& s) { ++s.rejected_rate; });
      if (config_.telemetry) {
        config_.telemetry->RecordNetRejected(request, now, "rate");
        config_.telemetry->RecordTenantRejected(request.tenant_class);
      }
      SendReject(conn, submit, ReplyStatus::kRejectRate);
      return;
    case AdmissionDecision::kRejectInflight:
      WithStats([](ServerStats& s) { ++s.rejected_inflight; });
      if (config_.telemetry) {
        config_.telemetry->RecordNetRejected(request, now, "inflight");
        config_.telemetry->RecordTenantRejected(request.tenant_class);
      }
      SendReject(conn, submit, ReplyStatus::kRejectInflight);
      return;
    case AdmissionDecision::kShedDeadline:
      // The deadline shed integrates the fault-layer shed path: same
      // counter and trace instant the simulator's deadline shedding emits.
      WithStats([](ServerStats& s) { ++s.shed_deadline; });
      if (config_.telemetry) {
        config_.telemetry->RecordNetRejected(request, now, "deadline");
        config_.telemetry->RecordShed(request, now);
      }
      SendReject(conn, submit, ReplyStatus::kShedDeadline);
      return;
    case AdmissionDecision::kShedClass:
      // Tenant budget exhausted under overload and the class policy says
      // drop: the explicit best-effort shed, reported through the same
      // shed path as deadline sheds.
      WithStats([](ServerStats& s) { ++s.shed_class; });
      if (config_.telemetry) {
        config_.telemetry->RecordNetRejected(request, now, "class-overload");
        config_.telemetry->RecordShed(request, now);
      }
      SendReject(conn, submit, ReplyStatus::kShedClass);
      return;
  }
}

void Server::Impl::SendReject(Conn& conn, const SubmitRequest& submit,
                              ReplyStatus status) {
  Reply reply;
  reply.id = submit.id;
  reply.request_id = submit.request_id;
  reply.status = status;
  EncodeReply(reply, conn.out);
  WithStats([](ServerStats& s) { ++s.replies_sent; });
}

bool Server::Impl::FlushConn(Conn& conn) {
  const ssize_t n = net::FlushConn(poller_, conn);
  if (n < 0) {
    CloseConn(conn.fd.Get());
    return false;
  }
  if (n > 0) {
    WithStats([&](ServerStats& s) {
      s.bytes_out += static_cast<std::uint64_t>(n);
    });
    if (config_.telemetry) {
      config_.telemetry->RecordNetBytes(0, static_cast<std::uint64_t>(n));
    }
  }
  return true;
}

void Server::Impl::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  poller_.Remove(fd);
  conns_.erase(it);  // ScopedFd closes the socket
  if (config_.telemetry) {
    config_.telemetry->RecordNetConnClosed(
        backend_.Now(), static_cast<std::int64_t>(conns_.size()));
  }
}

void Server::Impl::DrainCompletions() {
  std::vector<Completion> done;
  {
    std::lock_guard lock(completions_mu_);
    done.swap(completions_);
  }
  if (done.empty()) return;
  const auto wall_now = WallClock::now();
  const double time_scale = backend_.Config().time_scale;
  // Backend-side spans are simulated durations; the annex carries wall ns,
  // so they scale by the same factor the testbed slept them at.
  const auto scale_sim = [time_scale](SimDuration d) {
    if (d < 0) d = 0;
    return static_cast<std::int64_t>(static_cast<double>(d) * time_scale);
  };
  // Encode the whole batch first, then write each connection's share with
  // one send.
  std::vector<Conn*> touched;
  for (const Completion& completion : done) {
    const RequestRecord& record = completion.record;
    auto it = pending_.find(completion.id);
    if (it == pending_.end()) continue;  // cannot happen; defensive
    const Pending pending = it->second;
    pending_.erase(it);
    auto cit = conns_.find(pending.conn_fd);
    if (cit == conns_.end() || cit->second->id != pending.conn_id) {
      continue;  // connection gone: drop the reply, the work still counted
    }
    Conn& conn = *cit->second;
    if (std::find(touched.begin(), touched.end(), &conn) == touched.end()) {
      touched.push_back(&conn);
    }
    Reply reply;
    reply.id = pending.wire_id;
    reply.request_id = pending.wire_request_id;
    reply.status = ReplyStatus::kOk;
    reply.queue_ns = record.QueueingDelay();
    reply.service_ns = record.ServiceTime();
    if (pending.traced) {
      // The seven node stages in pipeline order.  Prefill ends at the first
      // token for generative requests and at completion for one-shot ones
      // (whose single "token" is the whole answer); decode is the remainder.
      const SimTime first =
          record.IsGenerative() ? record.first_token : record.completion;
      reply.annex.reserve(telemetry::kNumNodeStages);
      reply.annex.push_back(
          {telemetry::Stage::kAccept, pending.accept_ns});
      reply.annex.push_back(
          {telemetry::Stage::kAdmission, pending.admission_ns});
      reply.annex.push_back({telemetry::Stage::kQueue,
                             scale_sim(record.dispatch - record.arrival)});
      reply.annex.push_back({telemetry::Stage::kBatch,
                             scale_sim(record.start - record.dispatch)});
      reply.annex.push_back(
          {telemetry::Stage::kPrefill, scale_sim(first - record.start)});
      reply.annex.push_back(
          {telemetry::Stage::kDecode,
           record.IsGenerative() ? scale_sim(record.completion - first) : 0});
      reply.annex.push_back(
          {telemetry::Stage::kReplyWrite,
           std::chrono::duration_cast<std::chrono::nanoseconds>(
               wall_now - completion.done_wall)
               .count()});
      if (config_.telemetry) {
        for (const telemetry::StageSpan& span : reply.annex) {
          config_.telemetry->RecordStageSpan(span);
        }
      }
    }
    EncodeReply(reply, conn.out);
    WithStats([](ServerStats& s) { ++s.replies_sent; });
    if (config_.telemetry) {
      // Frontend overhead: wall time spent in the server beyond the
      // (scaled) modeled latency the backend charged the request.
      const auto wall_in_server =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              wall_now - pending.recv_wall)
              .count();
      const std::int64_t modeled_wall = static_cast<std::int64_t>(
          static_cast<double>(record.Latency()) * time_scale);
      config_.telemetry->RecordNetFrontendOverhead(
          std::max<std::int64_t>(0, wall_in_server - modeled_wall));
    }
  }
  for (Conn* conn : touched) FlushConn(*conn);
}

Server::Server(serving::LiveTestbed& backend, const ServerConfig& config)
    : impl_(std::make_unique<Impl>(backend, config)) {}

Server::~Server() {
  if (impl_) impl_->Stop();
}

void Server::Start() { impl_->Start(); }

std::uint16_t Server::Port() const { return impl_->port_; }

void Server::Stop() { impl_->Stop(); }

ServerStats Server::Stats() const {
  std::lock_guard lock(impl_->stats_mu_);
  return impl_->stats_;
}

}  // namespace arlo::net
