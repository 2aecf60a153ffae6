#include "cluster/router.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <ostream>
#include <stdexcept>

#include "telemetry/sink.h"

namespace arlo::cluster {
namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-effort full write; a failure means the client left, which the
/// reader thread will notice — the reply is simply dropped.
void SendAll(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

Router::Router(RouterConfig config) : config_(std::move(config)) {}

Router::~Router() { Stop(); }

void Router::Start() {
  policy_ = MakeRoutingPolicy(config_.policy);
  if (!policy_) {
    throw std::invalid_argument("unknown routing policy: " + config_.policy);
  }
  if (config_.sink) {
    // The router assembles full cross-hop timelines, so it registers the
    // router-side stage family alongside the node stages.
    config_.sink->EnableStageMetrics(/*include_router=*/true);
  }
  retry_rng_ = Rng(config_.seed);
  listen_ = net::ListenTcp(config_.port);

  NodePoolConfig pool_config;
  pool_config.probe_period = config_.probe_period;
  pool_config.probe_failures_to_evict = config_.probe_failures_to_evict;
  pool_config.sink = config_.sink;
  NodePoolCallbacks callbacks;
  callbacks.on_reply = [this](int node, const net::Reply& reply) {
    OnNodeReply(node, reply);
  };
  callbacks.on_flush = [this](int) { FlushStagedReplies(); };
  callbacks.on_down = [this](int node) { OnNodeDown(node); };
  pool_ = std::make_unique<NodePool>(pool_config, std::move(callbacks));
  for (const NodeEndpoint& endpoint : config_.nodes) pool_->Join(endpoint);
  pool_->Start();

  retry_thread_ = std::thread([this] { RetryLoop(); });
  acceptor_ = std::thread([this] { AcceptLoop(); });
  running_.store(true, std::memory_order_release);
}

void Router::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true)) return;
  if (listen_.Valid()) ::shutdown(listen_.Get(), SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard lock(conns_mu_);
    for (auto& [id, conn] : conns_) {
      if (conn->fd.Valid()) ::shutdown(conn->fd.Get(), SHUT_RDWR);
    }
  }
  // Readers erase themselves into the zombie list as their sockets die;
  // joining through the list (which Stop's erase loop below feeds) reaps
  // every reader exactly once.
  for (;;) {
    std::shared_ptr<ClientConn> conn;
    {
      std::lock_guard lock(conns_mu_);
      if (!zombies_.empty()) {
        conn = std::move(zombies_.back());
        zombies_.pop_back();
      } else if (!conns_.empty()) {
        conn = conns_.begin()->second;
        conns_.erase(conns_.begin());
      }
    }
    if (!conn) break;
    if (conn->reader.joinable()) conn->reader.join();
  }
  pool_->Stop();
  {
    std::lock_guard lock(retry_mu_);
    retry_cv_.notify_all();
  }
  if (retry_thread_.joinable()) retry_thread_.join();
  {
    std::lock_guard lock(pending_mu_);
    pending_.clear();  // shutdown drops unresolved requests
  }
  listen_.Reset();
  running_.store(false, std::memory_order_release);
}

std::uint16_t Router::Port() const { return net::LocalPort(listen_.Get()); }

int Router::JoinNode(const NodeEndpoint& endpoint) {
  return pool_->Join(endpoint);
}

bool Router::DrainNode(int node) { return pool_->Drain(node); }

bool Router::Healthy() const { return pool_ && pool_->NumRoutable() > 0; }

const char* Router::PolicyName() const {
  return policy_ ? policy_->Name() : config_.policy.c_str();
}

Router::Stats Router::GetStats() const {
  Stats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.routed = routed_.load(std::memory_order_relaxed);
  stats.replies = replies_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.no_node = no_node_.load(std::memory_order_relaxed);
  return stats;
}

void Router::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_.Get(), nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR) continue;
      return;  // listen socket shut down
    }
    net::SetNoDelay(fd);
    auto conn = std::make_shared<ClientConn>();
    conn->fd = net::ScopedFd(fd);
    {
      std::lock_guard lock(conns_mu_);
      conn->id = next_conn_id_++;
      conns_[conn->id] = conn;
      // Reap readers whose clients already left (they are finished or
      // about to be; join is near-instant).
      for (auto& zombie : zombies_) {
        if (zombie->reader.joinable()) zombie->reader.join();
      }
      zombies_.clear();
    }
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void Router::ReaderLoop(std::shared_ptr<ClientConn> conn) {
  net::FrameDecoder decoder;
  Outbox outbox;
  std::uint8_t buf[4096];
  bool alive = true;
  while (alive) {
    const ssize_t n = ::recv(conn->fd.Get(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder.Feed(buf, static_cast<std::size_t>(n));
    net::Frame frame;
    for (;;) {
      const auto result = decoder.Next(frame);
      if (result == net::FrameDecoder::Result::kNeedMore) break;
      if (result == net::FrameDecoder::Result::kError ||
          frame.type != net::MsgType::kSubmit) {
        alive = false;  // protocol error: drop the connection
        break;
      }
      HandleSubmit(conn, frame.submit, outbox);
    }
    // Everything this recv carried goes out before the next blocking recv.
    Flush(outbox);
  }
  std::lock_guard lock(conns_mu_);
  conns_.erase(conn->id);
  zombies_.push_back(conn);  // Stop/AcceptLoop joins the thread
}

void Router::HandleSubmit(const std::shared_ptr<ClientConn>& conn,
                          const net::SubmitRequest& submit, Outbox& outbox) {
  accepted_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  PendingRoute pending;
  pending.conn_id = conn->id;
  pending.client_id = submit.id;
  pending.client_request_id = submit.request_id;
  pending.forward = submit;
  pending.forward.request_id = request_id;
  pending.node = -1;
  pending.first_sent_ns = NowNs();
  // The router is the sampling head for cluster traffic, but a client that
  // already opted in keeps its trace across the hop.
  pending.traced = (submit.flags & net::kSubmitFlagTrace) != 0 ||
                   telemetry::TraceSampled(request_id, config_.trace_sample_n);
  if (pending.traced) pending.forward.flags |= net::kSubmitFlagTrace;
  {
    std::lock_guard lock(pending_mu_);
    pending_.emplace(request_id, pending);
  }
  Route(request_id, pending.forward, pending.traced, outbox);
}

int Router::PickNode(std::uint32_t length) {
  const std::vector<NodeView> views = pool_->Snapshot();
  std::lock_guard lock(policy_mu_);
  return policy_->Pick(length, views);
}

void Router::Outbox::Add(int node, std::uint64_t request_id,
                         const net::SubmitRequest& forward) {
  auto it = std::find_if(batches.begin(), batches.end(),
                         [node](const Batch& b) { return b.node == node; });
  if (it == batches.end()) {
    batches.emplace_back();
    it = batches.end() - 1;
    it->node = node;
  }
  net::EncodeSubmit(forward, it->bytes);
  it->request_ids.push_back(request_id);
}

void Router::Route(std::uint64_t request_id, const net::SubmitRequest& forward,
                   bool traced, Outbox& outbox) {
  for (;;) {
    const std::int64_t pick_start = traced ? NowNs() : 0;
    const int node = PickNode(forward.length);
    const std::int64_t pick_elapsed = traced ? NowNs() - pick_start : 0;
    if (node < 0) {
      ShedParked(request_id);
      return;
    }
    {
      std::lock_guard lock(pending_mu_);
      auto it = pending_.find(request_id);
      // Gone: a reply resolved it.  node != -1: another path owns it.
      if (it == pending_.end() || it->second.node != -1) return;
      it->second.node = node;
      ++it->second.attempts;
      if (traced) {
        it->second.pick_ns += pick_elapsed;
        it->second.last_sent_ns = NowNs();
      }
    }
    // Reserved at pick, so the next pick in this batch already sees it.
    if (pool_->Reserve(node)) {
      outbox.Add(node, request_id, forward);
      return;
    }
    // The node stopped being routable after the pick, so the re-pick
    // cannot land on it again.
    if (!DetachFailedSend(request_id, node)) return;
  }
}

void Router::RouteParked(std::uint64_t request_id, Outbox& outbox) {
  net::SubmitRequest forward;
  bool traced = false;
  {
    std::lock_guard lock(pending_mu_);
    auto it = pending_.find(request_id);
    if (it == pending_.end() || it->second.node != -1) return;
    forward = it->second.forward;
    traced = it->second.traced;
    if (traced && it->second.parked_at_ns != 0) {
      // Close out the retry-queue park that just ended.
      it->second.park_ns += NowNs() - it->second.parked_at_ns;
      it->second.parked_at_ns = 0;
    }
  }
  Route(request_id, forward, traced, outbox);
}

void Router::Flush(Outbox& outbox) {
  std::vector<std::uint64_t> reroute;
  for (;;) {
    for (Outbox::Batch& batch : outbox.batches) {
      if (batch.request_ids.empty()) continue;
      const int count = static_cast<int>(batch.request_ids.size());
      if (pool_->SendFrames(batch.node, batch.bytes, count)) {
        routed_.fetch_add(static_cast<std::uint64_t>(count),
                          std::memory_order_relaxed);
        if (config_.sink) {
          config_.sink->RecordClusterRouted(batch.node,
                                            static_cast<std::uint64_t>(count));
        }
      } else {
        // A failed write reported the node down synchronously, so
        // OnNodeDown may already have parked some of these.
        for (const std::uint64_t request_id : batch.request_ids) {
          if (DetachFailedSend(request_id, batch.node)) {
            reroute.push_back(request_id);
          }
        }
      }
      batch.bytes.clear();
      batch.request_ids.clear();
    }
    if (reroute.empty()) return;
    for (const std::uint64_t request_id : reroute) {
      RouteParked(request_id, outbox);
    }
    reroute.clear();
  }
}

bool Router::DetachFailedSend(std::uint64_t request_id, int node) {
  bool exhausted = false;
  {
    std::lock_guard lock(pending_mu_);
    auto it = pending_.find(request_id);
    if (it == pending_.end() || it->second.node != node) return false;
    it->second.node = -1;
    exhausted = it->second.attempts >= config_.retry.max_attempts;
  }
  if (!exhausted) return true;
  ShedParked(request_id);
  return false;
}

void Router::ShedParked(std::uint64_t request_id) {
  PendingRoute pending;
  {
    std::lock_guard lock(pending_mu_);
    auto it = pending_.find(request_id);
    if (it == pending_.end() || it->second.node != -1) return;
    pending = std::move(it->second);
    pending_.erase(it);
  }
  ShedNoNode(pending);
}

void Router::OnNodeReply(int node, const net::Reply& reply) {
  pool_->NoteDone(node, reply.service_ns);
  PendingRoute pending;
  {
    std::lock_guard lock(pending_mu_);
    auto it = pending_.find(reply.request_id);
    if (it == pending_.end()) return;  // resolved elsewhere (late reply)
    pending = std::move(it->second);
    pending_.erase(it);
  }
  replies_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t recv_ns = NowNs();
  const std::int64_t e2e_ns = recv_ns - pending.first_sent_ns;
  if (config_.sink) config_.sink->RecordClusterReply(node, e2e_ns);
  net::Reply out = reply;
  out.id = pending.client_id;
  out.request_id = pending.client_request_id;
  if (pending.traced) {
    // Assemble the cross-hop timeline in pipeline order: the router's
    // pre-forward spans, the node's annex, then the wire residual.  Pending
    // and wire are residuals against measured boundaries, so within-hop
    // spans tile exactly and the whole timeline sums to the router-observed
    // end-to-end latency (clamps only fire on pathological clock drift).
    std::int64_t node_ns = 0;
    for (const telemetry::StageSpan& span : reply.annex) {
      node_ns += span.dur_ns;
    }
    const std::int64_t pick_ns = pending.pick_ns;
    const std::int64_t retry_ns = pending.park_ns;
    const std::int64_t pre_send_ns = std::max<std::int64_t>(
        0, (pending.last_sent_ns - pending.first_sent_ns) - pick_ns -
               retry_ns);
    const std::int64_t wire_ns = std::max<std::int64_t>(
        0, (recv_ns - pending.last_sent_ns) - node_ns);
    std::vector<telemetry::StageSpan> timeline;
    timeline.reserve(reply.annex.size() + 4);
    timeline.push_back({telemetry::Stage::kRouterPending, pre_send_ns});
    timeline.push_back({telemetry::Stage::kRouterPick, pick_ns});
    timeline.push_back({telemetry::Stage::kRouterRetry, retry_ns});
    timeline.insert(timeline.end(), reply.annex.begin(), reply.annex.end());
    timeline.push_back({telemetry::Stage::kWire, wire_ns});
    if (config_.sink) {
      config_.sink->RecordStageTimeline(reply.request_id, timeline, e2e_ns,
                                        pending.first_sent_ns);
    }
    out.annex = std::move(timeline);
  }
  StageReply(pending.conn_id, out);
}

void Router::OnNodeDown(int node) {
  // Detach every pending entry in flight on the dead node under the same
  // mutex the reply path erases under: whichever runs first owns each
  // request, so a reply that raced in just before the death still wins and
  // no request is handled twice.
  std::vector<std::pair<std::uint64_t, int>> orphaned;  // request_id, attempts
  {
    std::lock_guard lock(pending_mu_);
    for (auto& [request_id, pending] : pending_) {
      if (pending.node != node) continue;
      pending.node = -1;
      if (pending.traced) pending.parked_at_ns = NowNs();
      orphaned.emplace_back(request_id, pending.attempts);
    }
  }
  for (const auto& [request_id, attempts] : orphaned) {
    retries_.fetch_add(1, std::memory_order_relaxed);
    if (config_.sink) config_.sink->RecordClusterRetry();
    ParkForRetry(request_id, attempts);
  }
}

void Router::ParkForRetry(std::uint64_t request_id, int attempts) {
  if (attempts >= config_.retry.max_attempts) {
    ShedParked(request_id);
    return;
  }
  std::lock_guard lock(retry_mu_);
  RetryEntry entry;
  entry.request_id = request_id;
  entry.due_ns =
      NowNs() + config_.retry.BackoffFor(std::max(0, attempts - 1),
                                         retry_rng_);
  retry_queue_.push_back(entry);
  std::push_heap(retry_queue_.begin(), retry_queue_.end(),
                 [](const RetryEntry& a, const RetryEntry& b) {
                   return a.due_ns > b.due_ns;
                 });
  retry_cv_.notify_all();
}

void Router::RetryLoop() {
  const auto later_due = [](const RetryEntry& a, const RetryEntry& b) {
    return a.due_ns > b.due_ns;
  };
  Outbox outbox;
  for (;;) {
    std::uint64_t request_id = 0;
    {
      std::unique_lock lock(retry_mu_);
      for (;;) {
        if (stopping_.load(std::memory_order_acquire)) return;
        if (retry_queue_.empty()) {
          retry_cv_.wait(lock);
          continue;
        }
        const std::int64_t due = retry_queue_.front().due_ns;
        const std::int64_t now = NowNs();
        if (due <= now) break;
        retry_cv_.wait_for(lock, std::chrono::nanoseconds(due - now));
      }
      std::pop_heap(retry_queue_.begin(), retry_queue_.end(), later_due);
      request_id = retry_queue_.back().request_id;
      retry_queue_.pop_back();
    }
    RouteParked(request_id, outbox);
    Flush(outbox);
  }
}

void Router::ShedNoNode(const PendingRoute& pending) {
  no_node_.fetch_add(1, std::memory_order_relaxed);
  if (config_.sink) config_.sink->RecordClusterNoNode();
  net::Reply reply;
  reply.id = pending.client_id;
  reply.request_id = pending.client_request_id;
  reply.status = net::ReplyStatus::kRejectNoNode;
  StageReply(pending.conn_id, reply);
  FlushStagedReplies();
}

std::vector<Router::StagedReplies>& Router::ThreadStagedReplies() {
  // Each thread stages into its own buffers; every thread that writes to
  // clients (readers, node receivers, retry, prober) serves one router.
  thread_local std::vector<StagedReplies> staged;
  return staged;
}

void Router::StageReply(std::uint64_t conn_id, const net::Reply& reply) {
  std::vector<StagedReplies>& staged = ThreadStagedReplies();
  auto it = std::find_if(
      staged.begin(), staged.end(),
      [conn_id](const StagedReplies& s) { return s.conn->id == conn_id; });
  if (it == staged.end()) {
    std::shared_ptr<ClientConn> conn;
    {
      std::lock_guard lock(conns_mu_);
      auto found = conns_.find(conn_id);
      if (found == conns_.end()) return;  // client left; reply dropped
      conn = found->second;
    }
    staged.push_back({std::move(conn), {}});
    it = staged.end() - 1;
  }
  EncodeReply(reply, it->bytes);
}

void Router::FlushStagedReplies() {
  std::vector<StagedReplies>& staged = ThreadStagedReplies();
  for (const StagedReplies& s : staged) {
    std::lock_guard write_lock(s.conn->write_mu);
    SendAll(s.conn->fd.Get(), s.bytes);
  }
  staged.clear();
}

void Router::WriteStatusJson(std::ostream& os) const {
  const Stats stats = GetStats();
  os << "{\"policy\":\"" << PolicyName() << "\""
     << ",\"healthy\":" << (Healthy() ? "true" : "false")
     << ",\"trace_sample_n\":" << config_.trace_sample_n
     << ",\"accepted\":" << stats.accepted << ",\"routed\":" << stats.routed
     << ",\"replies\":" << stats.replies << ",\"retries\":" << stats.retries
     << ",\"no_node\":" << stats.no_node;
  std::size_t inflight = 0;
  {
    std::lock_guard lock(pending_mu_);
    inflight = pending_.size();
  }
  os << ",\"inflight\":" << inflight;
  os << ",\"nodes\":[";
  const std::vector<NodeStatus> nodes = pool_->Status();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeStatus& n = nodes[i];
    if (i > 0) os << ",";
    os << "{\"id\":" << n.node << ",\"name\":\"" << n.endpoint.name << "\""
       << ",\"port\":" << n.endpoint.port
       << ",\"admin_port\":" << n.endpoint.admin_port << ",\"state\":\""
       << NodeStateName(n.state) << "\"" << ",\"routed\":" << n.routed
       << ",\"inflight\":" << n.inflight
       << ",\"est_queue_delay_ns\":" << n.est_queue_delay_ns
       << ",\"live_workers\":" << n.live_workers
       << ",\"probe_failures\":" << n.probe_failures << "}";
  }
  os << "]}";
}

}  // namespace arlo::cluster
