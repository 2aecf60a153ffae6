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

#include "common/check.h"
#include "net/conn.h"
#include "net/poller.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "telemetry/sink.h"

namespace arlo::net {
namespace {

using WallClock = std::chrono::steady_clock;

/// The frontend's metric family (arlo_net_*; docs/NETWORKING.md): the only
/// copy of these counts.  /metrics exports them and Server::Stats reads
/// them back.
struct NetMetrics {
  explicit NetMetrics(telemetry::MetricsRegistry& registry)
      : connections_total(registry.GetCounter(
            "arlo_net_connections_total",
            "TCP connections accepted by the frontend")),
        accepted(registry.GetCounter(
            "arlo_net_accepted_total",
            "SubmitRequests admitted and handed to the dispatcher")),
        rejected_rate(registry.GetCounter(
            "arlo_net_rejected_rate_total",
            "SubmitRequests rejected by the token-bucket rate limit")),
        rejected_inflight(registry.GetCounter(
            "arlo_net_rejected_inflight_total",
            "SubmitRequests rejected at the inflight cap")),
        shed_deadline(registry.GetCounter(
            "arlo_net_shed_deadline_total",
            "SubmitRequests early-shed: estimated delay exceeded the "
            "deadline")),
        shed_class(registry.GetCounter(
            "arlo_net_shed_class_total",
            "SubmitRequests shed by a tenant class's overload policy")),
        bytes_in(registry.GetCounter("arlo_net_bytes_in_total",
                                     "Bytes read from client sockets")),
        bytes_out(registry.GetCounter("arlo_net_bytes_out_total",
                                      "Bytes written to client sockets")),
        open_connections(registry.GetGauge("arlo_net_open_connections",
                                           "Currently connected clients")),
        frontend_overhead_ns(registry.GetHistogram(
            "arlo_net_frontend_overhead_ns",
            "Wall ns in the frontend beyond the scaled modeled backend "
            "latency")) {}

  telemetry::Counter* connections_total;
  telemetry::Counter* accepted;
  telemetry::Counter* rejected_rate;
  telemetry::Counter* rejected_inflight;
  telemetry::Counter* shed_deadline;
  telemetry::Counter* shed_class;  ///< class-overload sheds (docs/TENANTS.md)
  telemetry::Counter* bytes_in;
  telemetry::Counter* bytes_out;
  telemetry::Gauge* open_connections;
  /// Wall-clock ns a request spent in the frontend beyond its (scaled)
  /// modeled backend latency: socket I/O, framing, the dispatch lock.
  telemetry::LatencyHistogram* frontend_overhead_ns;
};

}  // namespace

struct Server::Impl {
  Impl(serving::LiveTestbed& backend, const ServerConfig& config)
      : backend_(backend),
        config_(config),
        admission_(config.admission),
        metrics_(config.telemetry ? config.telemetry->Registry()
                                  : own_registry_) {}

  serving::LiveTestbed& backend_;
  ServerConfig config_;
  AdmissionController admission_;
  Poller poller_;

  ScopedFd listen_fd_;
  std::uint16_t port_ = 0;
  WakePipe wake_;

  std::thread loop_thread_;
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
  /// Requests this loop pass admitted, handed to the backend in one
  /// SubmitAll after the pass's events.
  std::vector<serving::LiveTestbed::Submission> submissions_;
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

  // --- counts: metrics_ is their only copy -------------------------------
  telemetry::MetricsRegistry own_registry_;  ///< used without a sink
  NetMetrics metrics_;
  // The ServerStats fields with no metric twin; the loop is the one writer.
  std::atomic<std::uint64_t> replies_sent_{0};
  std::atomic<std::uint64_t> replies_dropped_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};

  void Start();
  void Stop();
  void EventLoop();
  void StopReading();
  serving::LiveTestbed::CompletionFn OnDone(RequestId id, int tenant_class);
  void AcceptNew();
  void OnReadable(Conn& conn);
  bool FlushConn(Conn& conn);  ///< false: connection died and was closed
  void CloseConn(int fd);
  void HandleSubmit(Conn& conn, const SubmitRequest& submit);
  /// Counts a rejected submit on `counter`, traces it, and replies
  /// `status`.  `code` is the net-reject instant's reason.
  void Reject(Conn& conn, const SubmitRequest& submit, const Request& request,
              telemetry::Counter* counter, std::int64_t code,
              ReplyStatus status);
  void DrainCompletions();
  ServerStats Stats() const;
};

void Server::Impl::Start() {
  ARLO_CHECK_MSG(!started_, "Server started twice");
  started_ = true;
  if (config_.telemetry) {
    // Node stages only — the router registers the router-side family on its
    // own sink.  Registration is idempotent and costs nothing until a traced
    // request actually records.  Frontend sheds count in the serving core's
    // arlo_sheds_total.
    config_.telemetry->EnableStageMetrics(/*include_router=*/false);
    config_.telemetry->EnableServingMetrics();
  }
  listen_fd_ = ListenTcp(config_.port);
  SetNonBlocking(listen_fd_.Get());
  port_ = LocalPort(listen_fd_.Get());

  poller_.Add(listen_fd_.Get(), /*want_read=*/true, /*want_write=*/false);
  poller_.Add(wake_.ReadFd(), /*want_read=*/true, /*want_write=*/false);

  loop_thread_ = std::thread([this] { EventLoop(); });
}

void Server::Impl::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_relaxed);
  wake_.Wake();
  loop_thread_.join();
}

serving::LiveTestbed::CompletionFn Server::Impl::OnDone(RequestId id,
                                                        int tenant_class) {
  return [this, id, tenant_class](const RequestRecord& record) {
    // Executor thread, dispatch mutex held: just hand off and wake.
    admission_.OnRequestDone(tenant_class);
    {
      std::lock_guard lock(completions_mu_);
      completions_.push_back({id, record, WallClock::now()});
    }
    wake_.Wake();
  };
}

void Server::Impl::EventLoop() {
  std::vector<PollEvent> events;
  bool reading = true;
  // Keep delivering replies until shutdown AND every admitted request has
  // been answered (or its connection is gone) — graceful drain.
  while (!stopping_.load(std::memory_order_relaxed) || !pending_.empty()) {
    if (reading && stopping_.load(std::memory_order_relaxed)) {
      StopReading();
      reading = false;
    }
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
    // The pass's one dispatch-lock acquisition: every request it admitted.
    if (!submissions_.empty()) backend_.SubmitAll(submissions_);
    DrainCompletions();
    // Conservation: every request the frontend decoded is answered (sent or
    // dropped with its connection) or still pending.  A failure ends the
    // process, as in the router: the books no longer balance.
    const ServerStats s = Stats();
    ARLO_CHECK(s.accepted + s.TotalRejected() ==
               s.replies_sent + s.replies_dropped + pending_.size());
  }
  // Shutdown: drop whatever connections remain.
  std::vector<int> open;
  open.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) open.push_back(fd);
  for (int fd : open) CloseConn(fd);
}

void Server::Impl::StopReading() {
  // Shutdown stops taking work: the listener closes and no connection is
  // read again, so the admitted requests drain to zero even while peers
  // keep sending.  Replies still go out; the write interest is untouched.
  poller_.Remove(listen_fd_.Get());
  listen_fd_.Reset();
  for (const auto& [fd, conn] : conns_) {
    conn->want_read = false;
    poller_.Modify(fd, /*want_read=*/false, conn->want_write);
  }
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
    metrics_.connections_total->Add();
    const auto open = static_cast<std::int64_t>(conns_.size());
    metrics_.open_connections->Set(open);
    if (config_.telemetry) {
      config_.telemetry->Tracer().Instant(
          "conn-open", "net", backend_.Now(),
          telemetry::TraceRecorder::kControlLane, {{"open", open}});
    }
  }
}

void Server::Impl::OnReadable(Conn& conn) {
  // Reads until EAGAIN (on cluster-zero-gpu, one recv per event measured a
  // worse e2e p95 and peak), but at most kMaxRecvsPerEvent times: a peer
  // that never pauses must not hold the pass open, and with it the
  // SubmitAll that frees its admission slots.  Level-triggered readiness
  // reports what is left on the next pass.
  constexpr int kMaxRecvsPerEvent = 4;
  const int fd = conn.fd.Get();
  for (int recvs = 0; recvs < kMaxRecvsPerEvent; ++recvs) {
    const ssize_t n = RecvInto(conn);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {
      CloseConn(fd);  // peer closed, or the read failed
      return;
    }
    metrics_.bytes_in->Add(static_cast<std::uint64_t>(n));
    Frame frame;
    for (;;) {
      const FrameDecoder::Result r = conn.decoder.Next(frame);
      if (r == FrameDecoder::Result::kNeedMore) break;
      if (r == FrameDecoder::Result::kError ||
          frame.type != MsgType::kSubmit) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        CloseConn(fd);
        return;
      }
      HandleSubmit(conn, frame.submit);
    }
  }
  FlushConn(conn);
}

void Server::Impl::HandleSubmit(Conn& conn, const SubmitRequest& submit) {
  // Head-based sampling: the sender (client or router) made the decision;
  // untraced requests never read the wall clock here.
  const bool traced = (submit.flags & kSubmitFlagTrace) != 0;
  const WallClock::time_point trace_entry =
      traced ? WallClock::now() : WallClock::time_point{};
  const SimTime now = backend_.Now();
  telemetry::TelemetrySink* sink = config_.telemetry;
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
      submissions_.push_back(
          {request, OnDone(request.id, request.tenant_class)});
      metrics_.accepted->Add();
      if (sink) sink->RecordTenantAccepted(request.tenant_class);
      return;
    }
    // The net-reject reason codes: 1=rate, 2=inflight, 4=deadline,
    // 5=class-overload (3 was the retired submission-queue-full reject).
    case AdmissionDecision::kRejectRate:
      Reject(conn, submit, request, metrics_.rejected_rate, 1,
             ReplyStatus::kRejectRate);
      if (sink) sink->RecordTenantRejected(request.tenant_class);
      return;
    case AdmissionDecision::kRejectInflight:
      Reject(conn, submit, request, metrics_.rejected_inflight, 2,
             ReplyStatus::kRejectInflight);
      if (sink) sink->RecordTenantRejected(request.tenant_class);
      return;
    case AdmissionDecision::kShedDeadline:
      // The deadline shed integrates the fault-layer shed path: same
      // counter and trace instant the simulator's deadline shedding emits.
      Reject(conn, submit, request, metrics_.shed_deadline, 4,
             ReplyStatus::kShedDeadline);
      if (sink) sink->RecordShed(request, now);
      return;
    case AdmissionDecision::kShedClass:
      // Tenant budget exhausted under overload and the class policy says
      // drop: the explicit best-effort shed, reported through the same
      // shed path as deadline sheds.
      Reject(conn, submit, request, metrics_.shed_class, 5,
             ReplyStatus::kShedClass);
      if (sink) sink->RecordShed(request, now);
      return;
  }
}

void Server::Impl::Reject(Conn& conn, const SubmitRequest& submit,
                          const Request& request, telemetry::Counter* counter,
                          std::int64_t code, ReplyStatus status) {
  counter->Add();
  telemetry::TelemetrySink* sink = config_.telemetry;
  if (sink && sink->Config().trace_requests) {
    sink->Tracer().Instant("net-reject", "net", request.arrival,
                           telemetry::TraceRecorder::kControlLane,
                           {{"id", static_cast<std::int64_t>(request.id)},
                            {"length", request.length},
                            {"reason", code}});
  }
  Reply reply;
  reply.id = submit.id;
  reply.request_id = submit.request_id;
  reply.status = status;
  EncodeReply(reply, conn.out);
  replies_sent_.fetch_add(1, std::memory_order_relaxed);
}

bool Server::Impl::FlushConn(Conn& conn) {
  const ssize_t n = net::FlushConn(poller_, conn);
  if (n < 0) {
    CloseConn(conn.fd.Get());
    return false;
  }
  if (n > 0) metrics_.bytes_out->Add(static_cast<std::uint64_t>(n));
  return true;
}

void Server::Impl::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  poller_.Remove(fd);
  conns_.erase(it);  // ScopedFd closes the socket
  const auto open = static_cast<std::int64_t>(conns_.size());
  metrics_.open_connections->Set(open);
  if (config_.telemetry) {
    config_.telemetry->Tracer().Instant("conn-close", "net", backend_.Now(),
                                        telemetry::TraceRecorder::kControlLane,
                                        {{"open", open}});
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
      // Connection gone: drop the reply, the work still counted.
      replies_dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
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
    replies_sent_.fetch_add(1, std::memory_order_relaxed);
    // Frontend overhead: wall time spent in the server beyond the (scaled)
    // modeled latency the backend charged the request.
    const auto wall_in_server =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            wall_now - pending.recv_wall)
            .count();
    const std::int64_t modeled_wall = static_cast<std::int64_t>(
        static_cast<double>(record.Latency()) * time_scale);
    metrics_.frontend_overhead_ns->Record(
        std::max<std::int64_t>(0, wall_in_server - modeled_wall));
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

ServerStats Server::Impl::Stats() const {
  ServerStats s;
  s.connections_accepted = metrics_.connections_total->Value();
  s.accepted = metrics_.accepted->Value();
  s.rejected_rate = metrics_.rejected_rate->Value();
  s.rejected_inflight = metrics_.rejected_inflight->Value();
  s.shed_deadline = metrics_.shed_deadline->Value();
  s.shed_class = metrics_.shed_class->Value();
  s.replies_sent = replies_sent_.load(std::memory_order_relaxed);
  s.replies_dropped = replies_dropped_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.bytes_in = metrics_.bytes_in->Value();
  s.bytes_out = metrics_.bytes_out->Value();
  return s;
}

ServerStats Server::Stats() const { return impl_->Stats(); }

}  // namespace arlo::net
