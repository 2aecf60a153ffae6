// Router: a standalone frontend that speaks the wire protocol to clients
// and multiplexes their requests across a NodePool of backend nodes.
//
// Data path: a client submit gets a router-global request_id stamped into
// its request_id field (the client's own id/request_id are saved in the
// pending table), is routed by the configured policy, and forwarded on the
// node's shared connection.  The backend echoes the request_id, which is
// the only correlation needed to relay out-of-order replies from a shared
// backend connection to the right client with the client's ids restored.
//
// Fault path: when a node dies with requests in flight, every pending entry
// routed to it is re-queued with exponential backoff (fault::RetryPolicy)
// and re-routed to a surviving node.  A request only leaves the pending
// table through exactly one of: backend reply relayed, re-route budget
// exhausted (explicit kRejectNoNode), or router shutdown — the zero-loss
// contract the node-kill tests pin down.  The loop checks it after every
// pass: accepted == replies + no_node + pending.
//
// Threads: one event-loop thread (net::Poller, the same connection layer as
// the node's net::Server) owns the listen socket, every client and node
// socket, the pending table, the routing policy, the node views and the
// retry heap, whose earliest due time bounds the poll timeout.  Each pass
// reads once per ready socket, routes or relays what it decoded into
// per-peer out buffers, and ends with one send per touched peer, so a lone
// request never waits on a batch.  Three things stay off the loop because
// they block: the pool's prober (HTTP probes), the admin plane, and the
// connect of JoinNode.  They reach the loop through one mailbox drained on
// wake.  GetStats, Pool().Status() and WriteStatusJson read the
// ClusterMetrics and the atomics the loop publishes and are safe from any
// thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/node_pool.h"
#include "cluster/policy.h"
#include "common/json.h"
#include "common/rng.h"
#include "fault/retry.h"
#include "net/conn.h"
#include "net/poller.h"
#include "net/protocol.h"

namespace arlo::telemetry {
class TelemetrySink;
}

namespace arlo::cluster {

struct RouterConfig {
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back with Port()
  /// MakeRoutingPolicy name: "rr", "least-inflight", "queue-delay",
  /// "length".
  std::string policy = "queue-delay";
  std::vector<NodeEndpoint> nodes;  ///< joined at Start
  std::chrono::milliseconds probe_period{100};
  int probe_failures_to_evict = 3;
  /// Re-route budget and backoff for in-flight requests orphaned by a node
  /// death.  max_attempts counts total sends: 4 = one route + 3 re-routes.
  fault::RetryPolicy retry;
  std::uint64_t seed = 1;  ///< retry backoff jitter
  telemetry::TelemetrySink* sink = nullptr;  ///< optional
  /// Head-based trace sampling rate: 0 = off, 1 = every request, N = hash
  /// of the router-assigned request_id selects ~1/N.  Sampled requests are
  /// forwarded with kSubmitFlagTrace and their cross-hop timelines are
  /// assembled from the reply annex (docs/OBSERVABILITY.md).
  std::uint32_t trace_sample_n = 0;
};

class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();  ///< Stop() if running

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds the listen socket, joins the configured nodes, and spawns the
  /// loop and prober threads.  Throws when the policy name is unknown or
  /// the listen socket cannot bind.
  void Start();
  void Stop();

  std::uint16_t Port() const;

  /// Live lifecycle operations (also exposed on the admin plane).  Both
  /// block until the loop has applied them; call them off the loop.
  int JoinNode(const NodeEndpoint& endpoint);
  bool DrainNode(int node);

  /// At least one routable backend.
  bool Healthy() const;

  /// One JSON object: router totals plus a per-node array.
  void WriteStatusJson(json::Writer& w) const;

  /// Built from Metrics(), plus the loop's accepted count.
  struct Stats {
    std::uint64_t accepted = 0;   ///< submits read off client sockets
    std::uint64_t routed = 0;     ///< successful forwards (incl. re-routes)
    std::uint64_t replies = 0;    ///< backend replies relayed
    std::uint64_t retries = 0;    ///< re-route attempts after node death
    std::uint64_t no_node = 0;    ///< kRejectNoNode sheds
  };
  Stats GetStats() const;

  /// The arlo_cluster_* family: on the sink's registry, or on the router's
  /// own without a sink.
  const ClusterMetrics& Metrics() const { return metrics_; }

  NodePool& Pool() { return *pool_; }
  const RouterConfig& Config() const { return config_; }
  const char* PolicyName() const;

 private:
  /// A routed-but-unresolved request.  `node` is the node it is currently
  /// in flight on, or -1 while parked in the retry heap.
  struct PendingRoute {
    int conn_fd = -1;                     ///< client connection, by fd...
    std::uint64_t conn_id = 0;            ///< ...and id (fds get reused)
    std::uint64_t client_id = 0;          ///< client's wire id, restored
    std::uint64_t client_request_id = 0;  ///< client's request_id, restored
    net::SubmitRequest forward;           ///< request_id = router-assigned
    int node = -1;
    int attempts = 0;  ///< sends so far
    std::int64_t first_sent_ns = 0;       ///< steady-clock, for latency
    // Traced requests accumulate the router-side stage spans here; the
    // untraced path never reads the clock beyond first_sent_ns.
    bool traced = false;
    std::int64_t pick_ns = 0;       ///< total routing-policy selection time
    std::int64_t park_ns = 0;       ///< total time parked in the retry heap
    std::int64_t parked_at_ns = 0;  ///< park start; 0 = not currently parked
    std::int64_t last_sent_ns = 0;  ///< most recent pick (frame batched)
  };

  struct RetryEntry {
    std::int64_t due_ns = 0;
    std::uint64_t request_id = 0;
  };

  /// A node with frames queued this pass, and how many of them are new.
  struct DirtyNode {
    int node = -1;
    int frames = 0;
  };

  enum class LoopState { kIdle, kRunning, kStopped };

  void Loop();
  /// Milliseconds until the earliest retry is due; -1 with none parked.
  int PollTimeoutMs() const;
  void AcceptClients();
  void OnClientEvent(net::Conn& conn, const net::PollEvent& event);
  /// One read of a client; false when it closed the connection.
  bool ReadClient(net::Conn& conn);
  void CloseClient(int fd);
  void OnNodeEvent(int node, const net::PollEvent& event);
  /// One read of a node; false when the node is gone (down or drained).
  bool ReadNode(int node);
  /// Marks a peer for this pass's flush; `frames` new frames for a node.
  void TouchNode(int node, int frames);
  void TouchClient(int fd);
  void HandleSubmit(const net::Conn& client, const net::SubmitRequest& submit);
  /// Picks a node for the parked `pending` (node == -1), reserves it, and
  /// queues the frame on its connection.  A request no node takes is shed.
  void Route(std::uint64_t request_id, PendingRoute& pending);
  void RouteDueRetries();
  void OnNodeReply(int node, const net::Reply& reply);
  /// Evicts `node` and parks every request in flight on it for re-routing.
  void NodeDown(int node, std::string reason);
  /// Parks `request_id` in the retry heap with jittered backoff, or sheds
  /// it when its re-route budget is spent.
  void ParkForRetry(std::uint64_t request_id, int attempts);
  /// Removes `request_id` from the pending table and replies kRejectNoNode.
  void Shed(std::uint64_t request_id);
  /// Queues `reply` for the client of `pending`; dropped when it left.
  void QueueReply(const PendingRoute& pending, const net::Reply& reply);
  /// One send per peer touched this pass: nodes first (a failed node write
  /// can shed), then clients.
  void FlushPeers();
  /// Queues `fn` for the loop and wakes it; false once Stop began (or
  /// before Start).
  bool Post(std::function<void()> fn);
  /// Runs everything posted so far; false once Stop closed the mailbox.
  bool RunMailbox();
  /// Runs `fn` on the loop and returns its result: inline before Start
  /// spawns the loop, `stopped` once Stop began.
  int OnLoop(const std::function<int()>& fn, int stopped);

  RouterConfig config_;
  telemetry::MetricsRegistry own_registry_;  ///< used without a sink
  ClusterMetrics metrics_;
  std::unique_ptr<RoutingPolicy> policy_;
  net::Poller poller_;
  net::WakePipe wake_;
  std::unique_ptr<NodePool> pool_;
  net::ScopedFd listen_;
  std::atomic<bool> running_{false};

  // --- loop-owned state (no locks) ---------------------------------------
  std::unordered_map<int, std::unique_ptr<net::Conn>> clients_;  // by fd
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t next_request_id_ = 1;
  std::unordered_map<std::uint64_t, PendingRoute> pending_;
  std::vector<RetryEntry> retry_heap_;  // min-heap on due_ns
  Rng retry_rng_{1};
  std::vector<DirtyNode> dirty_nodes_;
  std::vector<int> dirty_clients_;  // fds

  // --- the mailbox: how other threads reach the loop ---------------------
  std::mutex mailbox_mu_;
  std::vector<std::function<void()>> mailbox_;  // guarded by mailbox_mu_
  LoopState loop_state_ = LoopState::kIdle;     // guarded by mailbox_mu_

  // --- published by the loop, read anywhere (with metrics_) --------------
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> inflight_{0};  ///< pending-table size

  std::thread loop_;  // last: it uses every member above
};

}  // namespace arlo::cluster
