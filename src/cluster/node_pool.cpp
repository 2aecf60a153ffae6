#include "cluster/node_pool.h"

#include <algorithm>

#include "telemetry/sink.h"

namespace arlo::cluster {

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

NodePool::NodePool(NodePoolConfig config, net::Poller& poller)
    : config_(config), poller_(poller) {}

NodePool::~NodePool() { StopProber(); }

NodeState NodePool::StateOf(int node) const {
  return static_cast<NodeState>(
      nodes_[static_cast<std::size_t>(node)]->state.load(
          std::memory_order_acquire));
}

void NodePool::SetState(int node, NodeState state) {
  nodes_[static_cast<std::size_t>(node)]->state.store(
      static_cast<int>(state), std::memory_order_release);
  views_[static_cast<std::size_t>(node)].routable =
      state == NodeState::kHealthy;
}

void NodePool::SetInflight(int node, int inflight) {
  views_[static_cast<std::size_t>(node)].inflight = inflight;
  nodes_[static_cast<std::size_t>(node)]->inflight.store(
      inflight, std::memory_order_relaxed);
}

void NodePool::CloseConn(Node& n) {
  if (n.conn.fd.Valid()) poller_.Remove(n.conn.fd.Get());
  n.conn.fd.Reset();
  n.conn.decoder.Reset();
  n.conn.out.clear();
  n.conn.out_off = 0;
  n.conn.want_write = false;
}

int NodePool::Adopt(const NodeEndpoint& endpoint, net::ScopedFd fd) {
  NodeEndpoint ep = endpoint;
  if (ep.name.empty()) ep.name = "node-" + std::to_string(ep.port);

  // Resurrect an existing dead slot for the same serving port rather than
  // growing the pool — node ids stay stable across leave/rejoin.
  int node = -1;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->endpoint.port == ep.port) node = static_cast<int>(i);
  }
  if (node >= 0) {
    const NodeState state = StateOf(node);
    if (state != NodeState::kDrained && state != NodeState::kEvicted) {
      return -1;  // still alive; `fd` closes unused
    }
    Node& n = *nodes_[static_cast<std::size_t>(node)];
    {
      std::lock_guard lock(slots_mu_);
      n.endpoint = ep;
      n.down_reason.clear();
    }
    n.probe_failures.store(0, std::memory_order_relaxed);
    n.est_queue_delay_ns.store(0, std::memory_order_relaxed);
    n.live_workers.store(0, std::memory_order_relaxed);
    NodeView& view = views_[static_cast<std::size_t>(node)];
    view.est_queue_delay_ns = 0;
    view.live_workers = 0;
    view.backlog = 0;
    view.worker_max_lengths.clear();
  } else {
    auto n = std::make_unique<Node>();
    n->endpoint = ep;
    node = static_cast<int>(nodes_.size());
    NodeView view;
    view.node = node;
    views_.push_back(std::move(view));
    std::lock_guard lock(slots_mu_);
    nodes_.push_back(std::move(n));
  }
  Node& n = *nodes_[static_cast<std::size_t>(node)];
  n.conn.fd = std::move(fd);
  poller_.Add(n.conn.fd.Get(), /*want_read=*/true, /*want_write=*/false);
  SetInflight(node, 0);
  SetState(node, NodeState::kHealthy);
  if (config_.sink) config_.sink->RecordClusterJoin(node);
  return node;
}

bool NodePool::Drain(int node) {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return false;
  if (StateOf(node) != NodeState::kHealthy) return false;
  SetState(node, NodeState::kDraining);
  if (config_.sink) config_.sink->RecordClusterDrain(node);
  FinishDrainIfIdle(node);
  return true;
}

bool NodePool::MarkDown(int node, std::string reason) {
  const NodeState state = StateOf(node);
  if (state != NodeState::kHealthy && state != NodeState::kDraining) {
    return false;
  }
  Node& n = *nodes_[static_cast<std::size_t>(node)];
  {
    std::lock_guard lock(slots_mu_);
    n.down_reason = std::move(reason);
  }
  SetState(node, NodeState::kEvicted);
  SetInflight(node, 0);
  CloseConn(n);
  if (config_.sink) config_.sink->RecordClusterEviction(node);
  return true;
}

bool NodePool::ApplyProbe(int node, const obs::NodeProbe& probe) {
  const NodeState state = StateOf(node);
  if (state != NodeState::kHealthy && state != NodeState::kDraining) {
    return false;  // went down (or was drained) while the probe ran
  }
  Node& n = *nodes_[static_cast<std::size_t>(node)];
  if (probe.reachable && probe.healthy) {
    n.probe_failures.store(0, std::memory_order_relaxed);
    n.est_queue_delay_ns.store(probe.est_queue_delay_ns,
                               std::memory_order_relaxed);
    n.live_workers.store(probe.live_workers, std::memory_order_relaxed);
    NodeView& view = views_[static_cast<std::size_t>(node)];
    view.est_queue_delay_ns = probe.est_queue_delay_ns;
    view.live_workers = probe.live_workers;
    view.backlog = probe.inflight + probe.buffered;
    view.worker_max_lengths = probe.ReadyMaxLengths();
    return false;
  }
  const int failures =
      n.probe_failures.load(std::memory_order_relaxed) + 1;
  n.probe_failures.store(failures, std::memory_order_relaxed);
  if (config_.sink) config_.sink->RecordClusterProbeFailure(node);
  return failures >= config_.probe_failures_to_evict &&
         state == NodeState::kHealthy;
}

void NodePool::Reserve(int node) {
  SetInflight(node, views_[static_cast<std::size_t>(node)].inflight + 1);
}

void NodePool::Release(int node, std::int64_t service_ns) {
  NodeView& view = views_[static_cast<std::size_t>(node)];
  if (service_ns > 0) {
    const std::int64_t old = view.service_ewma_ns;
    view.service_ewma_ns = old == 0 ? service_ns : old + (service_ns - old) / 8;
  }
  SetInflight(node, std::max(0, view.inflight - 1));
  FinishDrainIfIdle(node);
}

void NodePool::NoteRouted(int node, int count) {
  nodes_[static_cast<std::size_t>(node)]->routed.fetch_add(
      count, std::memory_order_relaxed);
}

void NodePool::FinishDrainIfIdle(int node) {
  if (StateOf(node) != NodeState::kDraining) return;
  if (views_[static_cast<std::size_t>(node)].inflight != 0) return;
  SetState(node, NodeState::kDrained);
  CloseConn(*nodes_[static_cast<std::size_t>(node)]);
}

int NodePool::NodeForFd(int fd) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->conn.fd.Get() == fd) return static_cast<int>(i);
  }
  return -1;
}

void NodePool::CloseAll() {
  for (const auto& n : nodes_) CloseConn(*n);
}

void NodePool::StartProber(ProbeSink deliver) {
  prober_ = std::thread(
      [this, deliver = std::move(deliver)] { ProberLoop(deliver); });
}

void NodePool::StopProber() {
  {
    std::lock_guard lock(prober_mu_);
    prober_stopping_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

void NodePool::ProberLoop(const ProbeSink& deliver) {
  for (;;) {
    {
      std::unique_lock lock(prober_mu_);
      if (prober_cv_.wait_for(lock, config_.probe_period,
                              [this] { return prober_stopping_; })) {
        return;
      }
    }
    const int count = NumNodes();
    for (int node = 0; node < count; ++node) {
      std::uint16_t admin_port = 0;
      {
        std::lock_guard lock(slots_mu_);
        const Node& n = *nodes_[static_cast<std::size_t>(node)];
        const auto state = static_cast<NodeState>(
            n.state.load(std::memory_order_acquire));
        if (state == NodeState::kHealthy || state == NodeState::kDraining) {
          admin_port = n.endpoint.admin_port;
        }
      }
      // admin_port == 0 disables probing: the node is trusted healthy for as
      // long as its wire connection stays up (tests use bare-socket
      // backends).  The blocking HTTP round runs here, never on the loop.
      if (admin_port != 0) deliver(node, obs::ProbeAdminEndpoint(admin_port));
    }
    if (config_.sink) {
      config_.sink->SetClusterNodeGauges(NumRoutable(), TotalInflight());
    }
  }
}

std::vector<NodeStatus> NodePool::Status() const {
  std::lock_guard lock(slots_mu_);
  std::vector<NodeStatus> all;
  all.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = *nodes_[i];
    NodeStatus status;
    status.node = static_cast<int>(i);
    status.endpoint = n.endpoint;
    status.state =
        static_cast<NodeState>(n.state.load(std::memory_order_acquire));
    status.routed = n.routed.load(std::memory_order_relaxed);
    status.inflight = n.inflight.load(std::memory_order_relaxed);
    status.est_queue_delay_ns =
        n.est_queue_delay_ns.load(std::memory_order_relaxed);
    status.live_workers = n.live_workers.load(std::memory_order_relaxed);
    status.probe_failures = n.probe_failures.load(std::memory_order_relaxed);
    status.down_reason = n.down_reason;
    all.push_back(std::move(status));
  }
  return all;
}

int NodePool::NumNodes() const {
  std::lock_guard lock(slots_mu_);
  return static_cast<int>(nodes_.size());
}

int NodePool::NumRoutable() const {
  std::lock_guard lock(slots_mu_);
  int routable = 0;
  for (const auto& n : nodes_) {
    if (n->state.load(std::memory_order_acquire) ==
        static_cast<int>(NodeState::kHealthy)) {
      ++routable;
    }
  }
  return routable;
}

std::int64_t NodePool::TotalInflight() const {
  std::lock_guard lock(slots_mu_);
  std::int64_t total = 0;
  for (const auto& n : nodes_) {
    total += n->inflight.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace arlo::cluster
