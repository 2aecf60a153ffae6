// NodePool: the router's table of backend nodes.  Each slot holds the
// node's wire connection (a net::Conn the router's event loop reads and
// flushes), its lifecycle state, its per-node metric series, and the
// NodeView the routing policy picks from.  A prober thread polls each
// node's admin plane (/healthz + /statusz) and hands every result to the
// loop, which evicts a node after N consecutive failures.  The lifecycle:
//
//   kJoining -> kHealthy -> kDraining -> kDrained
//                  \-----------------------> kEvicted   (probe failures,
//                                                        EOF, read/write
//                                                        error, bad frame)
//
// Node ids are stable indices: an evicted or drained node keeps its slot,
// and re-Adopting the same endpoint resurrects the slot (new connection +
// state reset) rather than growing the pool.  An eviction keeps its cause
// on the slot (NodeStatus::down_reason) until the slot is resurrected.
//
// In flight: the router Reserves a node when it picks it, so the next pick
// already sees the route; a reply Releases it; going down zeroes it (the
// router re-routes every request that was in flight there).  A draining
// node closes its connection and reports kDrained once the count is zero.
//
// Threads: the router's event-loop thread owns the pool, and every method
// not marked otherwise runs on it (or before the loop starts / after it
// stops).  Status, NumNodes, NumRoutable and TotalInflight read values the
// loop publishes (atomics and the router's ClusterMetrics) and are safe
// from any thread.  The prober thread reads admin ports and states only;
// it never touches a connection.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/policy.h"
#include "net/conn.h"
#include "obs/probe.h"
#include "telemetry/metrics.h"

namespace arlo::cluster {

/// The router tier's metric family (arlo_cluster_*; docs/CLUSTER.md), the
/// only copy of these counts.  The Router registers it on its sink's
/// registry (on one it owns without a sink) and hands it to its NodePool;
/// Router::GetStats and NodePool::Status read it back.  NodePool::Adopt
/// registers the per-node {node="i"} series on `registry`.
struct ClusterMetrics {
  explicit ClusterMetrics(telemetry::MetricsRegistry& registry);

  telemetry::MetricsRegistry& registry;
  telemetry::Counter* routed;          ///< submits forwarded to a backend
  telemetry::Counter* replies;         ///< backend replies relayed to clients
  telemetry::Counter* retries;         ///< re-routes after a node died
  telemetry::Counter* no_node;         ///< explicit sheds: no routable node
  telemetry::Counter* evictions;       ///< nodes evicted (any down cause)
  telemetry::Counter* joins;           ///< nodes joined (incl. resurrections)
  telemetry::Counter* drains;          ///< graceful drains initiated
  telemetry::Counter* probe_failures;  ///< individual failed admin probes
  telemetry::Gauge* nodes_routable;
  telemetry::Gauge* inflight;  ///< router-side in flight across all nodes
  /// Submit forwarded to final reply, as seen by the router (wall ns).
  telemetry::LatencyHistogram* route_latency_ns;
};

struct NodeEndpoint {
  std::string name;             ///< for statusz; defaults to "node-<port>"
  std::uint16_t port = 0;       ///< wire-protocol (serving) port
  std::uint16_t admin_port = 0; ///< admin plane; 0 disables probing
};

enum class NodeState : int {
  kJoining = 0,
  kHealthy = 1,
  kDraining = 2,
  kDrained = 3,
  kEvicted = 4,
};

const char* NodeStateName(NodeState state);

struct NodePoolConfig {
  std::chrono::milliseconds probe_period{100};
  /// Consecutive failed probes before a node is evicted.
  int probe_failures_to_evict = 3;
};

/// Everything /statusz reports about one node.
struct NodeStatus {
  int node = -1;
  NodeEndpoint endpoint;
  NodeState state = NodeState::kJoining;
  std::int64_t routed = 0;  ///< total submits forwarded to this node
  int inflight = 0;
  std::int64_t est_queue_delay_ns = 0;
  int live_workers = 0;
  int probe_failures = 0;  ///< consecutive, resets on success
  /// Why the node was last evicted (EOF, a read or write errno, the
  /// decoder's error, or N failed probes); empty while it never was.
  std::string down_reason;
};

class NodePool {
 public:
  /// Node connections are registered on `poller` (the router loop's); the
  /// pool counts into `metrics` (the router's).
  NodePool(NodePoolConfig config, net::Poller& poller,
           ClusterMetrics& metrics);
  ~NodePool();  ///< StopProber()

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  /// Adds the connected socket `fd` as a healthy node, or resurrects the
  /// dead slot with the same serving port.  Returns the node id, or -1 (and
  /// closes `fd`) when that slot is still alive.
  int Adopt(const NodeEndpoint& endpoint, net::ScopedFd fd);

  /// Stops routing new work to `node`; once its in-flight count reaches
  /// zero the connection closes and the node reports kDrained.  Returns
  /// false for unknown or not-healthy nodes.
  bool Drain(int node);

  /// Marks `node` evicted for `reason`, closes its connection and zeroes
  /// its in-flight count.  Returns false (changing nothing) when the node
  /// was not healthy or draining.
  bool MarkDown(int node, std::string reason);

  /// Applies one probe result.  Returns true when it was the Nth failure in
  /// a row on a healthy node: the caller evicts it.
  bool ApplyProbe(int node, const obs::NodeProbe& probe);

  /// Counts one request in flight on `node` (a routable node).
  void Reserve(int node);
  /// Balances one Reserve when its reply arrived, `route_ns` after the
  /// request was first forwarded: counts the reply and its latency, fleet
  /// wide and for `node`.  A positive `service_ns` (from the reply) feeds
  /// the service-time EWMA that EffectiveQueueDelay uses to de-herd stale
  /// probe estimates.
  void Release(int node, std::int64_t service_ns, std::int64_t route_ns);
  /// `count` reserved frames were handed to `node`'s socket.
  void NoteRouted(int node, int count);

  /// The node whose connection is `fd`, or -1.
  int NodeForFd(int fd) const;
  net::Conn& ConnOf(int node) {
    return nodes_[static_cast<std::size_t>(node)]->conn;
  }
  /// Policy input, kept current in place: one NodeView per slot.
  const std::vector<NodeView>& Views() const { return views_; }

  /// Closes every node connection (router shutdown).
  void CloseAll();

  /// Receives each probe result on the prober thread.
  using ProbeSink = std::function<void(int node, const obs::NodeProbe&)>;
  /// Starts the prober thread; it hands each probe result to `deliver`.
  void StartProber(ProbeSink deliver);
  void StopProber();

  /// Introspection for /statusz.  Any thread.
  std::vector<NodeStatus> Status() const;
  int NumNodes() const;      ///< any thread
  int NumRoutable() const;   ///< any thread
  std::int64_t TotalInflight() const;  ///< any thread

 private:
  struct Node {
    // Written by the loop under slots_mu_, read by Status:
    NodeEndpoint endpoint;
    std::string down_reason;
    // Published by the loop for other threads:
    std::atomic<int> state{static_cast<int>(NodeState::kJoining)};
    std::atomic<int> inflight{0};
    std::atomic<int> probe_failures{0};
    std::atomic<std::int64_t> est_queue_delay_ns{0};
    std::atomic<int> live_workers{0};
    // Registered when the slot is created, then fixed:
    telemetry::Counter* routed = nullptr;  ///< this node's share of routed
    telemetry::LatencyHistogram* route_latency = nullptr;
    // Loop only:
    net::Conn conn;
  };

  NodeState StateOf(int node) const;
  void SetState(int node, NodeState state);
  void SetInflight(int node, int inflight);
  void CloseConn(Node& n);
  void FinishDrainIfIdle(int node);
  void ProberLoop(const ProbeSink& deliver);

  NodePoolConfig config_;
  net::Poller& poller_;
  ClusterMetrics& metrics_;

  mutable std::mutex slots_mu_;  ///< guards nodes_ growth and Node strings
  std::vector<std::unique_ptr<Node>> nodes_;  // slots never removed
  std::vector<NodeView> views_;  // loop only; index == node id

  std::mutex prober_mu_;
  std::condition_variable prober_cv_;
  bool prober_stopping_ = false;  // guarded by prober_mu_
  std::thread prober_;  // last: it uses every member above
};

}  // namespace arlo::cluster
