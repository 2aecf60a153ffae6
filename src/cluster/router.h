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
// contract the node-kill tests pin down.
//
// Batching: every write carries all that its thread has already decoded.
// A reader routes every submit of one recv into a per-node outbox and then
// writes each node's share with one send; a node receiver relays every reply
// one read returned into per-client buffers and then writes each client's
// share with one send.  Both flush before their thread blocks again, so a
// lone request never waits on a batch.
//
// Threads: one acceptor, one blocking reader per client connection, one
// receiver per node (inside NodePool), the pool's prober, and one retry
// timer.  Client writes are serialized per connection with a write mutex
// because replies for one client surface on many node-receiver threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/node_pool.h"
#include "cluster/policy.h"
#include "common/rng.h"
#include "fault/retry.h"
#include "net/protocol.h"
#include "net/socket.h"

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
  /// acceptor/prober/retry threads.  Throws when the policy name is unknown
  /// or the listen socket cannot bind.
  void Start();
  void Stop();

  std::uint16_t Port() const;

  /// Live lifecycle operations (also exposed on the admin plane).
  int JoinNode(const NodeEndpoint& endpoint);
  bool DrainNode(int node);

  /// At least one routable backend.
  bool Healthy() const;

  /// One JSON object: router totals plus a per-node array.
  void WriteStatusJson(std::ostream& os) const;

  struct Stats {
    std::uint64_t accepted = 0;   ///< submits read off client sockets
    std::uint64_t routed = 0;     ///< successful forwards (incl. re-routes)
    std::uint64_t replies = 0;    ///< backend replies relayed
    std::uint64_t retries = 0;    ///< re-route attempts after node death
    std::uint64_t no_node = 0;    ///< kRejectNoNode sheds
  };
  Stats GetStats() const;

  NodePool& Pool() { return *pool_; }
  const RouterConfig& Config() const { return config_; }
  const char* PolicyName() const;

 private:
  struct ClientConn {
    std::uint64_t id = 0;
    net::ScopedFd fd;
    std::mutex write_mu;
    std::thread reader;
  };

  /// A routed-but-unresolved request.  `node` is the node it is currently
  /// in flight on, or -1 while parked in the retry queue.
  struct PendingRoute {
    std::uint64_t conn_id = 0;
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
    std::int64_t park_ns = 0;       ///< total time parked in the retry queue
    std::int64_t parked_at_ns = 0;  ///< park start; 0 = not currently parked
    std::int64_t last_sent_ns = 0;  ///< most recent pick (frame batched)
  };

  struct RetryEntry {
    std::int64_t due_ns = 0;
    std::uint64_t request_id = 0;
  };

  /// Routed submits not yet written: encoded frames per node, flushed with
  /// one SendFrames call each.  Owned by one thread; kept across flushes so
  /// its buffers are reused.
  struct Outbox {
    struct Batch {
      int node = -1;
      std::vector<std::uint8_t> bytes;
      std::vector<std::uint64_t> request_ids;
    };
    std::vector<Batch> batches;  ///< one per node ever touched; few

    void Add(int node, std::uint64_t request_id,
             const net::SubmitRequest& forward);
  };

  /// Replies a thread has encoded but not yet written, per client.
  struct StagedReplies {
    std::shared_ptr<ClientConn> conn;
    std::vector<std::uint8_t> bytes;
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<ClientConn> conn);
  void HandleSubmit(const std::shared_ptr<ClientConn>& conn,
                    const net::SubmitRequest& submit, Outbox& outbox);
  void OnNodeReply(int node, const net::Reply& reply);
  void OnNodeDown(int node);
  void RetryLoop();
  /// Picks a node for `request_id` (parked, node == -1), reserves it, and
  /// adds the frame to `outbox`.  A request no node takes is shed.
  void Route(std::uint64_t request_id, const net::SubmitRequest& forward,
             bool traced, Outbox& outbox);
  /// Route for a parked request whose frame is read from the pending table.
  void RouteParked(std::uint64_t request_id, Outbox& outbox);
  /// Writes each node's batch with one send; re-routes the requests of a
  /// failed batch until the outbox is empty.
  void Flush(Outbox& outbox);
  /// A reserve or send on `node` failed for `request_id`.  Detaches it from
  /// `node` unless another path (OnNodeDown, a reply) already owns it.
  /// Returns true when the caller should re-route it; false when it is
  /// owned elsewhere or was shed because its re-route budget is spent.
  bool DetachFailedSend(std::uint64_t request_id, int node);
  /// Removes `request_id` if it is still parked and replies kRejectNoNode.
  void ShedParked(std::uint64_t request_id);
  int PickNode(std::uint32_t length);
  /// Appends a reply to the calling thread's per-client buffers; dropped
  /// when the client already left.
  void StageReply(std::uint64_t conn_id, const net::Reply& reply);
  /// Writes every buffer StageReply filled on this thread, one send per
  /// client: the pool's on_flush, and right after each shed.
  void FlushStagedReplies();
  static std::vector<StagedReplies>& ThreadStagedReplies();
  void ShedNoNode(const PendingRoute& pending);
  /// Parks `request_id` in the retry queue with jittered backoff, or sheds
  /// immediately when the re-route budget is exhausted.  Caller must have
  /// already detached the entry from its node (node == -1) under
  /// pending_mu_.
  void ParkForRetry(std::uint64_t request_id, int attempts);

  RouterConfig config_;
  std::unique_ptr<RoutingPolicy> policy_;  // guarded by policy_mu_
  std::mutex policy_mu_;
  std::unique_ptr<NodePool> pool_;

  net::ScopedFd listen_;
  std::thread acceptor_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  mutable std::mutex conns_mu_;
  std::map<std::uint64_t, std::shared_ptr<ClientConn>> conns_;
  /// Readers whose clients disconnected park themselves here (the thread
  /// cannot join itself); the acceptor and Stop reap them.
  std::vector<std::shared_ptr<ClientConn>> zombies_;  // guarded by conns_mu_
  std::uint64_t next_conn_id_ = 1;

  std::atomic<std::uint64_t> next_request_id_{1};
  mutable std::mutex pending_mu_;
  std::map<std::uint64_t, PendingRoute> pending_;

  std::mutex retry_mu_;
  std::condition_variable retry_cv_;
  std::vector<RetryEntry> retry_queue_;  // kept sorted by due_ns
  std::thread retry_thread_;
  Rng retry_rng_{1};  // guarded by retry_mu_

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> routed_{0};
  std::atomic<std::uint64_t> replies_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> no_node_{0};
};

}  // namespace arlo::cluster
