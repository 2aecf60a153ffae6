// Routing-policy unit tests over fabricated NodeView snapshots, plus the
// probe-side helpers (statusz JSON scanning, admin query parsing) the
// router's decision loop depends on.  No sockets anywhere in this file.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/policy.h"
#include "cluster/router_admin.h"
#include "serving/statusz.h"
#include "obs/probe.h"

namespace arlo::cluster {
namespace {

NodeView MakeNode(int id, bool routable = true, int inflight = 0,
                  std::int64_t est_delay_ns = 0,
                  std::vector<int> max_lengths = {}) {
  NodeView view;
  view.node = id;
  view.routable = routable;
  view.inflight = inflight;
  view.est_queue_delay_ns = est_delay_ns;
  view.worker_max_lengths = std::move(max_lengths);
  return view;
}

TEST(ClusterPolicy, FactoryKnowsEveryPolicyName) {
  for (const char* name : {"rr", "least-inflight", "queue-delay", "length"}) {
    auto policy = MakeRoutingPolicy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_STREQ(policy->Name(), name);
  }
  EXPECT_EQ(MakeRoutingPolicy("bogus"), nullptr);
}

TEST(ClusterPolicy, RoundRobinIsFairOverRoutableNodes) {
  RoundRobinPolicy policy;
  const std::vector<NodeView> nodes = {MakeNode(0), MakeNode(1), MakeNode(2)};
  std::map<int, int> picks;
  for (int i = 0; i < 300; ++i) ++picks[policy.Pick(128, nodes)];
  EXPECT_EQ(picks[0], 100);
  EXPECT_EQ(picks[1], 100);
  EXPECT_EQ(picks[2], 100);
}

TEST(ClusterPolicy, RoundRobinSkipsUnroutableNodes) {
  RoundRobinPolicy policy;
  const std::vector<NodeView> nodes = {MakeNode(0), MakeNode(1, false),
                                       MakeNode(2)};
  std::map<int, int> picks;
  for (int i = 0; i < 100; ++i) ++picks[policy.Pick(128, nodes)];
  EXPECT_EQ(picks.count(1), 0u);
  EXPECT_EQ(picks[0] + picks[2], 100);
  EXPECT_GT(picks[0], 0);
  EXPECT_GT(picks[2], 0);
}

TEST(ClusterPolicy, AllPoliciesReturnMinusOneWithNoRoutableNode) {
  const std::vector<NodeView> nodes = {MakeNode(0, false), MakeNode(1, false)};
  for (const char* name : {"rr", "least-inflight", "queue-delay", "length"}) {
    auto policy = MakeRoutingPolicy(name);
    EXPECT_EQ(policy->Pick(128, nodes), -1) << name;
    EXPECT_EQ(policy->Pick(128, {}), -1) << name << " (empty)";
  }
}

TEST(ClusterPolicy, LeastInflightPicksTheMinimum) {
  LeastInflightPolicy policy;
  const std::vector<NodeView> nodes = {MakeNode(0, true, 5),
                                       MakeNode(1, true, 2),
                                       MakeNode(2, true, 9)};
  EXPECT_EQ(policy.Pick(128, nodes), 1);
}

TEST(ClusterPolicy, LeastInflightRotatesAmongTies) {
  LeastInflightPolicy policy;
  const std::vector<NodeView> nodes = {MakeNode(0, true, 3),
                                       MakeNode(1, true, 1),
                                       MakeNode(2, true, 1)};
  std::map<int, int> picks;
  for (int i = 0; i < 100; ++i) ++picks[policy.Pick(128, nodes)];
  // Both minimum nodes share the picks; the loaded node gets none.
  EXPECT_EQ(picks.count(0), 0u);
  EXPECT_EQ(picks[1], 50);
  EXPECT_EQ(picks[2], 50);
}

TEST(ClusterPolicy, QueueDelaySteersAwayFromTheSkewedNode) {
  QueueDelayPolicy policy;
  // Node 1's backend queue is building (50 ms estimate vs 1 ms), even
  // though router-side inflight counts look identical.
  const std::vector<NodeView> nodes = {
      MakeNode(0, true, 4, 1'000'000), MakeNode(1, true, 4, 50'000'000),
      MakeNode(2, true, 4, 1'000'000)};
  std::map<int, int> picks;
  for (int i = 0; i < 100; ++i) ++picks[policy.Pick(128, nodes)];
  EXPECT_EQ(picks.count(1), 0u);
  EXPECT_EQ(picks[0] + picks[2], 100);
}

TEST(ClusterPolicy, EffectiveQueueDelayPricesRoutesSinceTheLastProbe) {
  NodeView view = MakeNode(0, true, /*inflight=*/10, /*est_delay_ns=*/0);
  // Probe saw the node idle (backlog 0, delay 0), but the router has since
  // routed 10 requests priced at 6 ms across 3 workers → 20 ms effective.
  view.backlog = 0;
  view.live_workers = 3;
  view.service_ewma_ns = 6'000'000;
  EXPECT_EQ(EffectiveQueueDelay(view), 10 * 2'000'000);

  // No service EWMA yet → raw probe value, whatever the inflight delta.
  view.service_ewma_ns = 0;
  view.est_queue_delay_ns = 7'000'000;
  EXPECT_EQ(EffectiveQueueDelay(view), 7'000'000);

  // Probe backlog already accounts for the in-flight work → no correction.
  view.service_ewma_ns = 6'000'000;
  view.backlog = 12;
  EXPECT_EQ(EffectiveQueueDelay(view), 7'000'000);
}

TEST(ClusterPolicy, QueueDelayDoesNotHerdOntoAStaleIdleProbe) {
  QueueDelayPolicy policy;
  // Node 0's probe is stale: it reported idle, but the router has dumped 20
  // requests on it since.  Node 1 reported a modest real queue.  Raw probe
  // comparison would herd every pick onto node 0 until the next probe.
  NodeView stale = MakeNode(0, true, /*inflight=*/20, /*est_delay_ns=*/0);
  stale.live_workers = 1;
  stale.service_ewma_ns = 5'000'000;
  NodeView honest = MakeNode(1, true, /*inflight=*/2, /*est_delay_ns=*/10'000'000);
  honest.backlog = 2;
  honest.live_workers = 1;
  honest.service_ewma_ns = 5'000'000;
  const std::vector<NodeView> nodes = {stale, honest};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(policy.Pick(128, nodes), 1);
}

TEST(ClusterPolicy, QueueDelayBreaksTiesOnInflight) {
  QueueDelayPolicy policy;
  const std::vector<NodeView> nodes = {MakeNode(0, true, 7, 1'000'000),
                                       MakeNode(1, true, 2, 1'000'000)};
  EXPECT_EQ(policy.Pick(128, nodes), 1);
}

TEST(ClusterPolicy, LengthAwareSteersToTheTightestFit) {
  LengthAwarePolicy policy;
  // Node 0 runs long-context workers (4096), node 1 short ones (512).
  // A 300-token request pads least on node 1; a 2000-token request only
  // fits on node 0.
  const std::vector<NodeView> nodes = {
      MakeNode(0, true, 0, 0, {4096, 4096}),
      MakeNode(1, true, 0, 0, {512, 512})};
  EXPECT_EQ(policy.Pick(300, nodes), 1);
  EXPECT_EQ(policy.Pick(2000, nodes), 0);
}

TEST(ClusterPolicy, LengthAwareFallsBackWhenNothingFits) {
  LengthAwarePolicy policy;
  // No worker fits 9000 tokens anywhere: the request must still route
  // (the backend buffers/demotes) rather than shed.
  const std::vector<NodeView> nodes = {
      MakeNode(0, true, 3, 0, {512}), MakeNode(1, true, 1, 0, {1024})};
  const int pick = policy.Pick(9000, nodes);
  EXPECT_EQ(pick, 1);  // equal (non-)fit, so least inflight wins
}

TEST(ClusterPolicy, LengthAwareIgnoresNodesWithoutProbesGracefully) {
  LengthAwarePolicy policy;
  // Probe-less nodes (admin disabled) expose no length profile; they act
  // as nothing-fits nodes, so a profiled node that fits wins.
  const std::vector<NodeView> nodes = {MakeNode(0),
                                       MakeNode(1, true, 0, 0, {1024})};
  EXPECT_EQ(policy.Pick(800, nodes), 1);
}

TEST(ClusterPolicy, StatuszParsingExtractsRouterRelevantFields) {
  const std::string body =
      "{\"time_s\":2.5,\"submitted\":120,\"completed\":100,\"inflight\":15,"
      "\"buffered\":5,\"live_workers\":3,\"peak_workers\":4,"
      "\"est_queue_delay_ns\":7500000,"
      "\"batches\":{\"formed\":10,\"timeouts\":1},"
      "\"workers\":["
      "{\"id\":0,\"runtime\":1,\"state\":\"ready\",\"max_length\":512,"
      "\"queued\":2,\"executing\":1},"
      "{\"id\":1,\"runtime\":2,\"state\":\"provisioning\","
      "\"max_length\":1024,\"queued\":0,\"executing\":0},"
      "{\"id\":2,\"runtime\":3,\"state\":\"ready\",\"max_length\":2048,"
      "\"queued\":1,\"executing\":1}],"
      "\"scheme\":{\"allocation\":[1,1]}}";
  obs::NodeProbe probe;
  serving::ParseStatusz(body, probe);
  EXPECT_DOUBLE_EQ(probe.time_s, 2.5);
  EXPECT_EQ(probe.submitted, 120);
  EXPECT_EQ(probe.completed, 100);
  EXPECT_EQ(probe.inflight, 15);
  EXPECT_EQ(probe.buffered, 5);
  EXPECT_EQ(probe.live_workers, 3);
  EXPECT_EQ(probe.est_queue_delay_ns, 7'500'000);
  // Only the two ready workers contribute to the length profile.
  EXPECT_EQ(probe.ReadyMaxLengths(), (std::vector<int>{512, 2048}));
}

TEST(ClusterPolicy, QueryIntParsesAdminQueries) {
  std::int64_t value = 0;
  EXPECT_TRUE(QueryInt("node=3", "node", value));
  EXPECT_EQ(value, 3);
  EXPECT_TRUE(QueryInt("port=9000&admin=9001", "admin", value));
  EXPECT_EQ(value, 9001);
  EXPECT_FALSE(QueryInt("port=9000", "admin", value));
  EXPECT_FALSE(QueryInt("node=abc", "node", value));
  EXPECT_FALSE(QueryInt("", "node", value));
}

}  // namespace
}  // namespace arlo::cluster
