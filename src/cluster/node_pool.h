// NodePool: the router's view of its backend nodes.  Owns one wire-protocol
// connection + receiver thread per node, a prober thread that polls each
// node's admin plane (/healthz + /statusz) and evicts nodes after N
// consecutive probe failures, and the node lifecycle state machine:
//
//   kJoining -> kHealthy -> kDraining -> kDrained
//                  \-----------------------> kEvicted   (probe failure,
//                                                        EOF, send error)
//
// Node ids are stable indices: an evicted or drained node keeps its slot,
// and re-Joining the same endpoint resurrects the slot (reconnect + state
// reset) rather than growing the pool.  The pool reports node death exactly
// once per down transition via callbacks.on_down — the router uses that
// signal to re-route the node's in-flight requests.
//
// Submit path: the router Reserves a node at pick time (so policies see the
// route at once), encodes the submit into its per-node batch, and writes the
// whole batch with one SendFrames call.  A node's in-flight count is the
// number of reservations not yet balanced by a reply, a failed send, or the
// node going down (its requests are then re-routed, so the count resets).
//
// Thread-safety: Join/Drain/Stop may be called from any thread.  Reserve and
// SendFrames are safe from many threads (per-node send mutex).  Callbacks
// run on pool threads (receiver or prober) with no pool-wide lock held; they
// may call back into the pool (except Stop/Join).
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
#include "net/client.h"
#include "net/protocol.h"
#include "obs/probe.h"

namespace arlo::telemetry {
class TelemetrySink;
}

namespace arlo::cluster {

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
  telemetry::TelemetrySink* sink = nullptr;  ///< optional
};

struct NodePoolCallbacks {
  /// A reply arrived from `node`.  Runs on that node's receiver thread,
  /// once per reply in what one read of the node connection returned.
  std::function<void(int node, const net::Reply&)> on_reply;
  /// The receiver of `node` relayed every reply it had buffered and is
  /// about to block on the socket again: write out whatever on_reply staged.
  /// Runs on the same thread as the on_reply calls it follows.
  std::function<void(int node)> on_flush;
  /// `node` went down (eviction or connection loss) — fired exactly once
  /// per down transition, after the node stopped being routable.
  std::function<void(int node)> on_down;
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
};

class NodePool {
 public:
  NodePool(NodePoolConfig config, NodePoolCallbacks callbacks);
  ~NodePool();  ///< Stop() if still running

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  /// Connects to the endpoint and adds it as a healthy node (or resurrects
  /// the existing slot for the same port).  Returns the node id, or -1 when
  /// the connect fails or the slot is still alive.
  int Join(const NodeEndpoint& endpoint);

  /// Starts the prober thread.  Call once after the initial Joins.
  void Start();

  /// Stops routing new work to `node`; once its router-side in-flight count
  /// reaches zero the connection closes and the node reports kDrained.
  /// Returns false for unknown or already-dead nodes.
  bool Drain(int node);

  /// Shuts down every connection and joins all pool threads.
  void Stop();

  /// Counts one request in flight on `node` ahead of its write.  Returns
  /// false (counting nothing) when the node is not routable.
  bool Reserve(int node);

  /// Writes `count` encoded submit frames, each already Reserved, to `node`
  /// in one call.  A node that began draining after the Reserve still takes
  /// them.  On failure all `count` reservations are released and false is
  /// returned; only a failed write reports the node down (HandleDown).
  bool SendFrames(int node, const std::vector<std::uint8_t>& bytes, int count);

  /// Reserve + encode + SendFrames for a single submit.
  bool Send(int node, const net::SubmitRequest& request);

  /// Balances one reservation when its request resolved (a reply from
  /// `node`).  A positive `service_ns` (from the backend's reply) feeds the
  /// per-node service-time EWMA that EffectiveQueueDelay uses to de-herd
  /// stale probe estimates.
  void NoteDone(int node, std::int64_t service_ns = 0);

  /// Policy input: one NodeView per slot (index == node id).
  std::vector<NodeView> Snapshot() const;

  /// Introspection for /statusz.
  std::vector<NodeStatus> Status() const;

  int NumNodes() const;
  int NumRoutable() const;
  std::int64_t TotalInflight() const;

 private:
  struct Node {
    NodeEndpoint endpoint;
    std::mutex send_mu;
    net::ClientConnection conn;  // guarded by send_mu for writes/Connect
    std::thread receiver;
    std::atomic<int> state{static_cast<int>(NodeState::kJoining)};
    std::atomic<bool> down_reported{false};
    std::atomic<int> inflight{0};
    std::atomic<std::int64_t> routed{0};
    /// Per-request service time EWMA from replies (lossy read-modify-write
    /// race between concurrent replies is fine for an estimate).
    std::atomic<std::int64_t> service_ewma_ns{0};
    mutable std::mutex probe_mu;
    obs::NodeProbe last_probe;          // guarded by probe_mu
    std::atomic<int> probe_failures{0};
  };

  /// Resolves a node id to its stable Node object under pool_mu_ (Join may
  /// reallocate nodes_ concurrently; the pointed-to Nodes never move or
  /// die).  Null for out-of-range ids.
  Node* GetNode(int node) const;
  /// Stable pointers to every current slot, index == node id.
  std::vector<Node*> AllNodes() const;

  /// Drops `count` reservations, never below zero: a down transition
  /// already reset the count its stragglers would release.
  void Release(Node& n, int count);
  void ReceiverLoop(int node);
  void ProberLoop();
  void ProbeOnce(int node);
  /// The single funnel for unplanned node death (receiver EOF, send error,
  /// probe eviction).  Exactly-once via down_reported.
  void HandleDown(int node);
  void FinishDrainIfIdle(Node& n);

  NodePoolConfig config_;
  NodePoolCallbacks callbacks_;

  mutable std::mutex pool_mu_;  ///< guards nodes_ growth
  std::vector<std::unique_ptr<Node>> nodes_;  // slots never removed

  std::atomic<bool> stopping_{false};
  std::thread prober_;
  std::mutex prober_mu_;
  std::condition_variable prober_cv_;
};

}  // namespace arlo::cluster
