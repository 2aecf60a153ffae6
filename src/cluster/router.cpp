#include "cluster/router.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <ostream>
#include <stdexcept>

#include "common/check.h"
#include "common/json.h"
#include "telemetry/sink.h"

namespace arlo::cluster {
namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Min-heap order for the retry heap: earliest due time on top.
constexpr auto kLaterDue = [](const auto& a, const auto& b) {
  return a.due_ns > b.due_ns;
};

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
  net::SetNonBlocking(listen_.Get());
  poller_.Add(listen_.Get(), /*want_read=*/true, /*want_write=*/false);
  poller_.Add(wake_.ReadFd(), /*want_read=*/true, /*want_write=*/false);

  NodePoolConfig pool_config;
  pool_config.probe_period = config_.probe_period;
  pool_config.probe_failures_to_evict = config_.probe_failures_to_evict;
  pool_config.sink = config_.sink;
  pool_ = std::make_unique<NodePool>(pool_config, poller_);
  for (const NodeEndpoint& endpoint : config_.nodes) JoinNode(endpoint);

  {
    std::lock_guard lock(mailbox_mu_);
    loop_state_ = LoopState::kRunning;
  }
  loop_ = std::thread([this] { Loop(); });
  pool_->StartProber([this](int node, const obs::NodeProbe& probe) {
    Post([this, node, probe] {
      if (pool_->ApplyProbe(node, probe)) {
        NodeDown(node, std::to_string(config_.probe_failures_to_evict) +
                           " consecutive failed probes");
      }
    });
  });
  running_.store(true, std::memory_order_release);
}

void Router::Stop() {
  if (!running_.exchange(false)) return;
  pool_->StopProber();
  {
    std::lock_guard lock(mailbox_mu_);
    loop_state_ = LoopState::kStopped;
  }
  wake_.Wake();
  loop_.join();
  // The loop is gone; its state is this thread's now.  Closing the client
  // sockets is what tells blocked clients the router left.
  clients_.clear();
  pool_->CloseAll();
  pending_.clear();  // shutdown drops unresolved requests
  retry_heap_.clear();
  inflight_.store(0, std::memory_order_relaxed);
  listen_.Reset();
}

std::uint16_t Router::Port() const { return net::LocalPort(listen_.Get()); }

bool Router::Post(std::function<void()> fn) {
  {
    std::lock_guard lock(mailbox_mu_);
    if (loop_state_ != LoopState::kRunning) return false;
    mailbox_.push_back(std::move(fn));
  }
  wake_.Wake();
  return true;
}

int Router::OnLoop(const std::function<int()>& fn, int stopped) {
  // A throw inside `fn` reaches the caller through the future, not the loop.
  std::packaged_task<int()> task(fn);
  std::future<int> result = task.get_future();
  if (Post([&task] { task(); })) return result.get();
  std::lock_guard lock(mailbox_mu_);
  // Idle: Start is joining the configured nodes and no loop exists yet.
  return loop_state_ == LoopState::kIdle ? fn() : stopped;
}

int Router::JoinNode(const NodeEndpoint& endpoint) {
  if (!pool_) return -1;
  // The blocking connect runs on the caller's thread, never on the loop.
  net::ScopedFd fd;
  try {
    fd = net::ConnectTcp(endpoint.port);
    net::SetNonBlocking(fd.Get());
    net::SetNoDelay(fd.Get());
  } catch (const std::exception&) {
    return -1;
  }
  return OnLoop([&] { return pool_->Adopt(endpoint, std::move(fd)); }, -1);
}

bool Router::DrainNode(int node) {
  if (!pool_) return false;
  return OnLoop([&] { return pool_->Drain(node) ? 1 : 0; }, 0) != 0;
}

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

void Router::Loop() {
  std::vector<net::PollEvent> events;
  for (bool open = true; open;) {
    poller_.Wait(PollTimeoutMs(), events);
    for (const net::PollEvent& event : events) {
      if (event.fd == wake_.ReadFd()) {
        wake_.Drain();
        open = RunMailbox();
      } else if (event.fd == listen_.Get()) {
        AcceptClients();
      } else if (auto client = clients_.find(event.fd);
                 client != clients_.end()) {
        OnClientEvent(*client->second, event);
      } else if (const int node = pool_->NodeForFd(event.fd); node >= 0) {
        OnNodeEvent(node, event);
      }
    }
    RouteDueRetries();
    FlushPeers();
    // Conservation: every accepted request is answered, shed, or pending.
    // A failure ends the process: the books no longer balance, so no reply
    // the router would send afterwards can be trusted.
    ARLO_CHECK(accepted_.load(std::memory_order_relaxed) ==
               replies_.load(std::memory_order_relaxed) +
                   no_node_.load(std::memory_order_relaxed) +
                   pending_.size());
    inflight_.store(pending_.size(), std::memory_order_relaxed);
  }
}

bool Router::RunMailbox() {
  std::vector<std::function<void()>> mail;
  bool open = true;
  {
    std::lock_guard lock(mailbox_mu_);
    mail.swap(mailbox_);
    // Stop refuses posts from here on, so `mail` holds the last of them.
    open = loop_state_ != LoopState::kStopped;
  }
  for (const auto& fn : mail) fn();
  return open;
}

int Router::PollTimeoutMs() const {
  if (retry_heap_.empty()) return -1;
  const std::int64_t wait_ns = retry_heap_.front().due_ns - NowNs();
  if (wait_ns <= 0) return 0;
  return static_cast<int>((wait_ns + 999'999) / 1'000'000);
}

void Router::AcceptClients() {
  for (;;) {
    net::ScopedFd fd = net::AcceptConn(listen_.Get());
    if (!fd.Valid()) return;
    const int raw = fd.Get();
    auto conn = std::make_unique<net::Conn>();
    conn->fd = std::move(fd);
    conn->id = next_conn_id_++;
    poller_.Add(raw, /*want_read=*/true, /*want_write=*/false);
    clients_[raw] = std::move(conn);
  }
}

void Router::CloseClient(int fd) {
  // Its pending requests stay: they resolve as usual and their replies are
  // dropped, which keeps the conservation check exact.
  poller_.Remove(fd);
  clients_.erase(fd);
}

void Router::OnClientEvent(net::Conn& conn, const net::PollEvent& event) {
  const int fd = conn.fd.Get();
  if (event.readable && !ReadClient(conn)) return;  // closed
  if (event.writable) {
    TouchClient(fd);
  } else if (event.hangup && !event.readable) {
    CloseClient(fd);
  }
}

bool Router::ReadClient(net::Conn& conn) {
  // One recv per readiness event: the poller is level-triggered, so bytes
  // left in the socket report again on the next pass.
  const ssize_t n = net::RecvInto(conn);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
  if (n <= 0) {
    CloseClient(conn.fd.Get());
    return false;
  }
  net::Frame frame;
  for (;;) {
    const auto result = conn.decoder.Next(frame);
    if (result == net::FrameDecoder::Result::kNeedMore) return true;
    if (result == net::FrameDecoder::Result::kError ||
        frame.type != net::MsgType::kSubmit) {
      CloseClient(conn.fd.Get());  // protocol error: drop the connection
      return false;
    }
    HandleSubmit(conn, frame.submit);
  }
}

void Router::OnNodeEvent(int node, const net::PollEvent& event) {
  if (event.readable && !ReadNode(node)) return;  // went down
  if (event.writable) {
    TouchNode(node, 0);
  } else if (event.hangup && !event.readable) {
    NodeDown(node, "connection hung up");
  }
}

bool Router::ReadNode(int node) {
  net::Conn& conn = pool_->ConnOf(node);
  const ssize_t n = net::RecvInto(conn);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
  if (n < 0) {
    NodeDown(node, std::string("read failed: ") + std::strerror(errno));
    return false;
  }
  if (n == 0) {
    NodeDown(node, "connection closed by the node");
    return false;
  }
  net::Frame frame;
  for (;;) {
    const auto result = conn.decoder.Next(frame);
    // A reply that finishes a drain closes the connection and empties the
    // decoder, so this is also how a drained node's read ends.
    if (result == net::FrameDecoder::Result::kNeedMore) {
      return conn.fd.Valid();
    }
    if (result == net::FrameDecoder::Result::kError) {
      NodeDown(node, "protocol error: " + conn.decoder.Error());
      return false;
    }
    if (frame.type != net::MsgType::kReply) {
      NodeDown(node, "protocol error: submit frame from a node");
      return false;
    }
    OnNodeReply(node, frame.reply);
  }
}

void Router::TouchNode(int node, int frames) {
  auto it = std::find_if(dirty_nodes_.begin(), dirty_nodes_.end(),
                         [node](const DirtyNode& d) { return d.node == node; });
  if (it == dirty_nodes_.end()) {
    dirty_nodes_.push_back({node, frames});
  } else {
    it->frames += frames;
  }
}

void Router::TouchClient(int fd) {
  if (std::find(dirty_clients_.begin(), dirty_clients_.end(), fd) ==
      dirty_clients_.end()) {
    dirty_clients_.push_back(fd);
  }
}

void Router::HandleSubmit(const net::Conn& client,
                          const net::SubmitRequest& submit) {
  accepted_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t request_id = next_request_id_++;
  PendingRoute& pending = pending_[request_id];
  pending.conn_fd = client.fd.Get();
  pending.conn_id = client.id;
  pending.client_id = submit.id;
  pending.client_request_id = submit.request_id;
  pending.forward = submit;
  pending.forward.request_id = request_id;
  pending.first_sent_ns = NowNs();
  // The router is the sampling head for cluster traffic, but a client that
  // already opted in keeps its trace across the hop.
  pending.traced = (submit.flags & net::kSubmitFlagTrace) != 0 ||
                   telemetry::TraceSampled(request_id, config_.trace_sample_n);
  if (pending.traced) pending.forward.flags |= net::kSubmitFlagTrace;
  Route(request_id, pending);
}

void Router::Route(std::uint64_t request_id, PendingRoute& pending) {
  const std::int64_t pick_start = pending.traced ? NowNs() : 0;
  const int node = policy_->Pick(pending.forward.length, pool_->Views());
  if (node < 0) {
    Shed(request_id);
    return;
  }
  pending.node = node;
  ++pending.attempts;
  if (pending.traced) {
    pending.last_sent_ns = NowNs();
    pending.pick_ns += pending.last_sent_ns - pick_start;
  }
  // Reserved at pick, so the next pick in this pass already sees it.
  pool_->Reserve(node);
  net::EncodeSubmit(pending.forward, pool_->ConnOf(node).out);
  TouchNode(node, 1);
}

void Router::RouteDueRetries() {
  if (retry_heap_.empty()) return;
  const std::int64_t now = NowNs();
  while (!retry_heap_.empty() && retry_heap_.front().due_ns <= now) {
    std::pop_heap(retry_heap_.begin(), retry_heap_.end(),
                  kLaterDue);
    const std::uint64_t request_id = retry_heap_.back().request_id;
    retry_heap_.pop_back();
    auto it = pending_.find(request_id);
    if (it == pending_.end() || it->second.node != -1) continue;
    PendingRoute& pending = it->second;
    if (pending.traced && pending.parked_at_ns != 0) {
      // Close out the retry-heap park that just ended.
      pending.park_ns += now - pending.parked_at_ns;
      pending.parked_at_ns = 0;
    }
    Route(request_id, pending);
  }
}

void Router::FlushPeers() {
  // Indexed: a failed write parks requests, and a shed queues a reply.
  for (std::size_t i = 0; i < dirty_nodes_.size(); ++i) {
    const DirtyNode dirty = dirty_nodes_[i];
    net::Conn& conn = pool_->ConnOf(dirty.node);
    if (!conn.fd.Valid()) continue;  // went down this pass; frames parked
    if (net::FlushConn(poller_, conn) < 0) {
      NodeDown(dirty.node,
               std::string("write failed: ") + std::strerror(errno));
      continue;
    }
    if (dirty.frames == 0) continue;
    routed_.fetch_add(static_cast<std::uint64_t>(dirty.frames),
                      std::memory_order_relaxed);
    pool_->NoteRouted(dirty.node, dirty.frames);
    if (config_.sink) {
      config_.sink->RecordClusterRouted(
          dirty.node, static_cast<std::uint64_t>(dirty.frames));
    }
  }
  dirty_nodes_.clear();
  for (const int fd : dirty_clients_) {
    auto it = clients_.find(fd);
    if (it == clients_.end()) continue;
    if (net::FlushConn(poller_, *it->second) < 0) CloseClient(fd);
  }
  dirty_clients_.clear();
}

void Router::OnNodeReply(int node, const net::Reply& reply) {
  auto it = pending_.find(reply.request_id);
  // Every reply a live connection carries is for a request in flight on it;
  // anything else is a confused backend, and ignoring it keeps the books.
  if (it == pending_.end() || it->second.node != node) return;
  const PendingRoute pending = std::move(it->second);
  pending_.erase(it);
  pool_->Release(node, reply.service_ns);
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
  QueueReply(pending, out);
}

void Router::NodeDown(int node, std::string reason) {
  if (!pool_->MarkDown(node, std::move(reason))) return;
  // Its queued frames went with the connection; their requests are parked
  // below, so they count as routed only where they land next.
  for (DirtyNode& dirty : dirty_nodes_) {
    if (dirty.node == node) dirty.frames = 0;
  }
  std::vector<std::pair<std::uint64_t, int>> orphaned;  // request_id, attempts
  for (auto& [request_id, pending] : pending_) {
    if (pending.node != node) continue;
    pending.node = -1;
    if (pending.traced) pending.parked_at_ns = NowNs();
    orphaned.emplace_back(request_id, pending.attempts);
  }
  for (const auto& [request_id, attempts] : orphaned) {
    retries_.fetch_add(1, std::memory_order_relaxed);
    if (config_.sink) config_.sink->RecordClusterRetry();
    ParkForRetry(request_id, attempts);
  }
}

void Router::ParkForRetry(std::uint64_t request_id, int attempts) {
  if (attempts >= config_.retry.max_attempts) {
    Shed(request_id);
    return;
  }
  RetryEntry entry;
  entry.request_id = request_id;
  entry.due_ns = NowNs() + config_.retry.BackoffFor(std::max(0, attempts - 1),
                                                    retry_rng_);
  retry_heap_.push_back(entry);
  std::push_heap(retry_heap_.begin(), retry_heap_.end(),
                 kLaterDue);
}

void Router::Shed(std::uint64_t request_id) {
  auto it = pending_.find(request_id);
  const PendingRoute pending = std::move(it->second);
  pending_.erase(it);
  no_node_.fetch_add(1, std::memory_order_relaxed);
  if (config_.sink) config_.sink->RecordClusterNoNode();
  net::Reply reply;
  reply.id = pending.client_id;
  reply.request_id = pending.client_request_id;
  reply.status = net::ReplyStatus::kRejectNoNode;
  QueueReply(pending, reply);
}

void Router::QueueReply(const PendingRoute& pending, const net::Reply& reply) {
  auto it = clients_.find(pending.conn_fd);
  if (it == clients_.end() || it->second->id != pending.conn_id) return;
  net::EncodeReply(reply, it->second->out);
  TouchClient(pending.conn_fd);
}

void Router::WriteStatusJson(json::Writer& w) const {
  const Stats stats = GetStats();
  w.BeginObject().Field("policy", PolicyName()).Field("healthy", Healthy());
  w.Field("trace_sample_n", config_.trace_sample_n);
  w.Field("accepted", stats.accepted).Field("routed", stats.routed);
  w.Field("replies", stats.replies).Field("retries", stats.retries);
  w.Field("no_node", stats.no_node);
  w.Field("inflight", inflight_.load(std::memory_order_relaxed));
  w.Key("nodes").BeginArray();
  for (const NodeStatus& n : pool_->Status()) {
    w.BeginObject().Field("id", n.node).Field("name", n.endpoint.name);
    w.Field("port", n.endpoint.port);
    w.Field("admin_port", n.endpoint.admin_port);
    w.Field("state", NodeStateName(n.state)).Field("routed", n.routed);
    w.Field("inflight", n.inflight);
    w.Field("est_queue_delay_ns", n.est_queue_delay_ns);
    w.Field("live_workers", n.live_workers);
    w.Field("probe_failures", n.probe_failures);
    w.Field("down_reason", n.down_reason).EndObject();
  }
  w.EndArray().EndObject();
}

}  // namespace arlo::cluster
