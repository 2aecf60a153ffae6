#include "cluster/node_pool.h"

#include <algorithm>

#include "telemetry/sink.h"

namespace arlo::cluster {

namespace {
NodeState LoadState(const std::atomic<int>& state) {
  return static_cast<NodeState>(state.load(std::memory_order_acquire));
}
}  // namespace

const char* NodeStateName(NodeState state) {
  switch (state) {
    case NodeState::kJoining:
      return "joining";
    case NodeState::kHealthy:
      return "healthy";
    case NodeState::kDraining:
      return "draining";
    case NodeState::kDrained:
      return "drained";
    case NodeState::kEvicted:
      return "evicted";
  }
  return "unknown";
}

NodePool::NodePool(NodePoolConfig config, NodePoolCallbacks callbacks)
    : config_(config), callbacks_(std::move(callbacks)) {}

NodePool::~NodePool() { Stop(); }

NodePool::Node* NodePool::GetNode(int node) const {
  std::lock_guard pool_lock(pool_mu_);
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return nullptr;
  return nodes_[static_cast<std::size_t>(node)].get();
}

std::vector<NodePool::Node*> NodePool::AllNodes() const {
  std::lock_guard pool_lock(pool_mu_);
  std::vector<Node*> all;
  all.reserve(nodes_.size());
  for (const auto& n : nodes_) all.push_back(n.get());
  return all;
}

int NodePool::Join(const NodeEndpoint& endpoint) {
  NodeEndpoint ep = endpoint;
  if (ep.name.empty()) ep.name = "node-" + std::to_string(ep.port);

  std::lock_guard pool_lock(pool_mu_);
  if (stopping_.load(std::memory_order_acquire)) return -1;
  // Resurrect an existing dead slot for the same serving port rather than
  // growing the pool — node ids stay stable across leave/rejoin.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& n = *nodes_[i];
    if (n.endpoint.port != ep.port) continue;
    const NodeState state = LoadState(n.state);
    if (state != NodeState::kDrained && state != NodeState::kEvicted) {
      return -1;  // still alive; nothing to join
    }
    if (n.receiver.joinable()) n.receiver.join();
    {
      std::lock_guard send_lock(n.send_mu);
      n.conn.Close();
      if (!n.conn.TryConnect(ep.port)) return -1;
    }
    n.endpoint = ep;
    n.down_reported.store(false, std::memory_order_release);
    n.probe_failures.store(0, std::memory_order_relaxed);
    {
      std::lock_guard probe_lock(n.probe_mu);
      n.last_probe = obs::NodeProbe{};
    }
    n.state.store(static_cast<int>(NodeState::kHealthy),
                  std::memory_order_release);
    const int node = static_cast<int>(i);
    n.receiver = std::thread([this, node] { ReceiverLoop(node); });
    if (config_.sink) config_.sink->RecordClusterJoin(node);
    return node;
  }

  auto n = std::make_unique<Node>();
  n->endpoint = ep;
  if (!n->conn.TryConnect(ep.port)) return -1;
  n->state.store(static_cast<int>(NodeState::kHealthy),
                 std::memory_order_release);
  const int node = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(n));
  nodes_[node]->receiver = std::thread([this, node] { ReceiverLoop(node); });
  if (config_.sink) config_.sink->RecordClusterJoin(node);
  return node;
}

void NodePool::Start() {
  prober_ = std::thread([this] { ProberLoop(); });
}

bool NodePool::Drain(int node) {
  Node* slot = GetNode(node);
  if (!slot) return false;
  Node& n = *slot;
  int expected = static_cast<int>(NodeState::kHealthy);
  if (!n.state.compare_exchange_strong(expected,
                                       static_cast<int>(NodeState::kDraining),
                                       std::memory_order_acq_rel)) {
    return false;
  }
  if (config_.sink) config_.sink->RecordClusterDrain(node);
  FinishDrainIfIdle(n);
  return true;
}

void NodePool::Stop() {
  if (stopping_.exchange(true)) return;
  {
    std::lock_guard lock(prober_mu_);
    prober_cv_.notify_all();
  }
  if (prober_.joinable()) prober_.join();
  // Work from a snapshot, NOT under pool_mu_: a receiver thread being
  // joined here may be inside an on_reply callback that re-enters the pool
  // (NoteDone → GetNode), which needs pool_mu_.
  for (Node* n : AllNodes()) {
    {
      std::lock_guard send_lock(n->send_mu);
      n->conn.Shutdown();
    }
    if (n->receiver.joinable()) n->receiver.join();
    std::lock_guard send_lock(n->send_mu);
    n->conn.Close();
  }
}

bool NodePool::Reserve(int node) {
  Node* slot = GetNode(node);
  if (!slot) return false;
  Node& n = *slot;
  // Count first, then check: a Drain racing this either sees the count and
  // keeps the connection open, or is seen here and the count is undone.
  n.inflight.fetch_add(1, std::memory_order_acq_rel);
  if (LoadState(n.state) == NodeState::kHealthy) return true;
  Release(n, 1);
  return false;
}

bool NodePool::SendFrames(int node, const std::vector<std::uint8_t>& bytes,
                          int count) {
  Node* slot = GetNode(node);
  if (!slot) return false;
  Node& n = *slot;
  bool sent = false;
  bool write_failed = false;
  {
    std::lock_guard send_lock(n.send_mu);
    const NodeState state = LoadState(n.state);
    const bool writable =
        state == NodeState::kHealthy || state == NodeState::kDraining;
    if (writable && n.conn.Connected()) {
      try {
        n.conn.SendEncoded(bytes);
        sent = true;
      } catch (const std::exception&) {
        write_failed = true;
      }
    }
  }
  if (sent) {
    n.routed.fetch_add(count, std::memory_order_relaxed);
    return true;
  }
  Release(n, count);
  if (write_failed) HandleDown(node);  // outside send_mu: it re-acquires it
  return false;
}

bool NodePool::Send(int node, const net::SubmitRequest& request) {
  if (!Reserve(node)) return false;
  std::vector<std::uint8_t> bytes;
  net::EncodeSubmit(request, bytes);
  return SendFrames(node, bytes, 1);
}

void NodePool::NoteDone(int node, std::int64_t service_ns) {
  Node* slot = GetNode(node);
  if (!slot) return;
  Node& n = *slot;
  if (service_ns > 0) {
    const std::int64_t old =
        n.service_ewma_ns.load(std::memory_order_relaxed);
    n.service_ewma_ns.store(old == 0 ? service_ns : old + (service_ns - old) / 8,
                            std::memory_order_relaxed);
  }
  Release(n, 1);
}

void NodePool::Release(Node& n, int count) {
  int inflight = n.inflight.load(std::memory_order_acquire);
  while (!n.inflight.compare_exchange_weak(inflight,
                                           std::max(0, inflight - count),
                                           std::memory_order_acq_rel)) {
  }
  FinishDrainIfIdle(n);
}

void NodePool::ReceiverLoop(int node) {
  Node& n = *GetNode(node);
  // Relays everything one read returned, then lets the router write it out
  // before the next blocking Receive.
  bool open = true;
  while (open) {
    net::Reply reply;
    try {
      open = n.conn.Receive(reply);
    } catch (const std::exception&) {
      open = false;  // protocol error or socket failure: treat as down
    }
    if (!open) break;
    for (bool more = true; more;) {
      if (callbacks_.on_reply) callbacks_.on_reply(node, reply);
      try {
        more = n.conn.TryReceiveBuffered(reply);
      } catch (const std::exception&) {
        more = open = false;  // corrupt buffered frame: flush, then down
      }
    }
    if (callbacks_.on_flush) callbacks_.on_flush(node);
  }
  // EOF on a drained node (we shut the socket down ourselves) or during
  // Stop is the expected exit; anything else is a real down transition.
  if (stopping_.load(std::memory_order_acquire)) return;
  if (LoadState(n.state) == NodeState::kDrained) return;
  HandleDown(node);
}

void NodePool::HandleDown(int node) {
  Node& n = *GetNode(node);
  if (stopping_.load(std::memory_order_acquire)) return;
  if (n.down_reported.exchange(true, std::memory_order_acq_rel)) return;
  n.state.store(static_cast<int>(NodeState::kEvicted),
                std::memory_order_release);
  // The router re-routes every request in flight here (on_down), so none
  // of them is in flight on this node any more.
  n.inflight.store(0, std::memory_order_release);
  {
    // Unblocks a receiver still parked in Receive when the down was
    // detected by the prober or a failed send.
    std::lock_guard send_lock(n.send_mu);
    n.conn.Shutdown();
  }
  if (config_.sink) config_.sink->RecordClusterEviction(node);
  if (callbacks_.on_down) callbacks_.on_down(node);
}

void NodePool::FinishDrainIfIdle(Node& n) {
  if (LoadState(n.state) != NodeState::kDraining) return;
  if (n.inflight.load(std::memory_order_acquire) != 0) return;
  int expected = static_cast<int>(NodeState::kDraining);
  if (n.state.compare_exchange_strong(expected,
                                      static_cast<int>(NodeState::kDrained),
                                      std::memory_order_acq_rel)) {
    std::lock_guard send_lock(n.send_mu);
    n.conn.Shutdown();  // receiver exits on the EOF and stays silent
  }
}

void NodePool::ProberLoop() {
  for (;;) {
    {
      std::unique_lock lock(prober_mu_);
      prober_cv_.wait_for(lock, config_.probe_period, [this] {
        return stopping_.load(std::memory_order_acquire);
      });
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    const int count = NumNodes();
    for (int node = 0; node < count; ++node) ProbeOnce(node);
    if (config_.sink) {
      config_.sink->SetClusterNodeGauges(NumRoutable(), TotalInflight());
    }
  }
}

void NodePool::ProbeOnce(int node) {
  Node& n = *GetNode(node);
  const NodeState state = LoadState(n.state);
  if (state != NodeState::kHealthy && state != NodeState::kDraining) return;
  // admin_port == 0 disables probing: the node is trusted healthy for as
  // long as its wire connection stays up (tests use bare-socket backends).
  if (n.endpoint.admin_port == 0) return;
  const obs::NodeProbe probe = obs::ProbeAdminEndpoint(n.endpoint.admin_port);
  if (probe.reachable && probe.healthy) {
    n.probe_failures.store(0, std::memory_order_relaxed);
    std::lock_guard probe_lock(n.probe_mu);
    n.last_probe = probe;
    return;
  }
  const int failures =
      n.probe_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  if (config_.sink) config_.sink->RecordClusterProbeFailure(node);
  if (failures >= config_.probe_failures_to_evict &&
      LoadState(n.state) == NodeState::kHealthy) {
    HandleDown(node);
  }
}

std::vector<NodeView> NodePool::Snapshot() const {
  const std::vector<Node*> all = AllNodes();
  std::vector<NodeView> views;
  views.reserve(all.size());
  for (int node = 0; node < static_cast<int>(all.size()); ++node) {
    const Node& n = *all[static_cast<std::size_t>(node)];
    NodeView view;
    view.node = node;
    view.routable = LoadState(n.state) == NodeState::kHealthy;
    view.inflight = n.inflight.load(std::memory_order_acquire);
    view.service_ewma_ns = n.service_ewma_ns.load(std::memory_order_relaxed);
    {
      std::lock_guard probe_lock(n.probe_mu);
      view.est_queue_delay_ns = n.last_probe.est_queue_delay_ns;
      view.live_workers = n.last_probe.live_workers;
      view.backlog = n.last_probe.inflight + n.last_probe.buffered;
      view.worker_max_lengths = n.last_probe.ready_worker_max_lengths;
    }
    views.push_back(std::move(view));
  }
  return views;
}

std::vector<NodeStatus> NodePool::Status() const {
  const std::vector<Node*> slots = AllNodes();
  std::vector<NodeStatus> all;
  all.reserve(slots.size());
  for (int node = 0; node < static_cast<int>(slots.size()); ++node) {
    const Node& n = *slots[static_cast<std::size_t>(node)];
    NodeStatus status;
    status.node = node;
    status.endpoint = n.endpoint;
    status.state = LoadState(n.state);
    status.routed = n.routed.load(std::memory_order_relaxed);
    status.inflight = n.inflight.load(std::memory_order_acquire);
    status.probe_failures = n.probe_failures.load(std::memory_order_relaxed);
    {
      std::lock_guard probe_lock(n.probe_mu);
      status.est_queue_delay_ns = n.last_probe.est_queue_delay_ns;
      status.live_workers = n.last_probe.live_workers;
    }
    all.push_back(std::move(status));
  }
  return all;
}

int NodePool::NumNodes() const {
  std::lock_guard pool_lock(pool_mu_);
  return static_cast<int>(nodes_.size());
}

int NodePool::NumRoutable() const {
  int routable = 0;
  for (const Node* n : AllNodes()) {
    if (LoadState(n->state) == NodeState::kHealthy) ++routable;
  }
  return routable;
}

std::int64_t NodePool::TotalInflight() const {
  std::int64_t total = 0;
  for (const Node* n : AllNodes()) {
    total += n->inflight.load(std::memory_order_acquire);
  }
  return total;
}

}  // namespace arlo::cluster
